#include "advise/advice.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/metrics.h"
#include "support/check.h"
#include "support/json.h"
#include "support/schema.h"

namespace mb::advise {

using support::JsonValue;
using support::JsonWriter;

namespace {

std::string pct(double frac) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.1f%%", 100.0 * frac);
  return buf;
}

}  // namespace

std::string_view kind_name(Kind k) {
  switch (k) {
    case Kind::kRemapRanks: return "remap-ranks";
    case Kind::kSwitchCollective: return "switch-collective";
    case Kind::kCheckpointInterval: return "checkpoint-interval";
    case Kind::kKernelVariant: return "kernel-variant";
    case Kind::kSimJobs: return "sim-jobs";
  }
  support::fail("kind_name", "invalid recommendation kind");
}

Kind parse_kind(std::string_view name) {
  for (Kind k : {Kind::kRemapRanks, Kind::kSwitchCollective,
                 Kind::kCheckpointInterval, Kind::kKernelVariant,
                 Kind::kSimJobs}) {
    if (kind_name(k) == name) return k;
  }
  support::fail("parse_kind",
                "unknown recommendation kind '" + std::string(name) + "'");
}

std::string_view verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kPending: return "pending";
    case Verdict::kAccepted: return "accepted";
    case Verdict::kRejected: return "rejected";
    case Verdict::kAdvisory: return "advisory";
  }
  support::fail("verdict_name", "invalid verdict");
}

Verdict parse_verdict(std::string_view name) {
  for (Verdict v : {Verdict::kPending, Verdict::kAccepted, Verdict::kRejected,
                    Verdict::kAdvisory}) {
    if (verdict_name(v) == name) return v;
  }
  support::fail("parse_verdict",
                "unknown verdict '" + std::string(name) + "'");
}

void rank_recommendations(AdviceReport& report) {
  std::stable_sort(report.recommendations.begin(),
                   report.recommendations.end(),
                   [](const Recommendation& a, const Recommendation& b) {
                     if (a.predicted_delta_hi != b.predicted_delta_hi)
                       return a.predicted_delta_hi > b.predicted_delta_hi;
                     return a.id < b.id;
                   });
}

std::string to_json(const AdviceReport& report) {
  JsonWriter w;
  support::begin_document(w, support::kAdviceSchema);
  w.field("tool", report.tool);
  w.field("tool_version", report.tool_version);
  w.field("scenario", report.scenario);
  w.field("seed", report.seed);
  w.field("applied", report.applied);
  w.key("recommendations").begin_array();
  for (const Recommendation& r : report.recommendations) {
    w.begin_object();
    w.field("id", r.id);
    w.field("kind", kind_name(r.kind));
    w.field("title", r.title);
    w.field("action", r.action);
    w.field("target", r.target);
    w.field("metric", r.metric);
    w.field("baseline_value", r.baseline_value);
    w.field("proposed_value", r.proposed_value);
    w.field("predicted_delta_lo", r.predicted_delta_lo);
    w.field("predicted_delta_hi", r.predicted_delta_hi);
    w.field("appliable", r.appliable);
    w.field("verdict", verdict_name(r.verdict));
    if (r.verdict == Verdict::kAccepted || r.verdict == Verdict::kRejected) {
      w.field("measured_baseline", r.measured_baseline);
      w.field("measured_candidate", r.measured_candidate);
      w.field("measured_delta", r.measured_delta);
    }
    if (!r.verdict_reason.empty())
      w.field("verdict_reason", r.verdict_reason);
    w.key("evidence").begin_array();
    for (const Evidence& e : r.evidence) {
      w.begin_object();
      w.field("artifact", e.artifact);
      w.field("pointer", e.pointer);
      w.field("detail", e.detail);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

AdviceReport advice_from_json(std::string_view text) {
  const JsonValue doc = support::parse_json(text);
  support::check_document(doc, support::kAdviceSchema, "advice_from_json");
  AdviceReport report;
  report.tool = doc.at("tool").as_string();
  report.tool_version = doc.at("tool_version").as_string();
  report.scenario = doc.at("scenario").as_string();
  report.seed = support::u64_at(doc, "seed");
  report.applied = doc.at("applied").as_bool();
  for (const JsonValue& rv : doc.at("recommendations").as_array()) {
    Recommendation r;
    r.id = rv.at("id").as_string();
    r.kind = parse_kind(rv.at("kind").as_string());
    r.title = rv.at("title").as_string();
    r.action = rv.at("action").as_string();
    r.target = rv.at("target").as_string();
    r.metric = rv.at("metric").as_string();
    r.baseline_value = rv.at("baseline_value").as_number();
    r.proposed_value = rv.at("proposed_value").as_number();
    r.predicted_delta_lo = rv.at("predicted_delta_lo").as_number();
    r.predicted_delta_hi = rv.at("predicted_delta_hi").as_number();
    r.appliable = rv.at("appliable").as_bool();
    r.verdict = parse_verdict(rv.at("verdict").as_string());
    if (const JsonValue* v = rv.find("measured_baseline"))
      r.measured_baseline = v->as_number();
    if (const JsonValue* v = rv.find("measured_candidate"))
      r.measured_candidate = v->as_number();
    if (const JsonValue* v = rv.find("measured_delta"))
      r.measured_delta = v->as_number();
    if (const JsonValue* v = rv.find("verdict_reason"))
      r.verdict_reason = v->as_string();
    for (const JsonValue& ev : rv.at("evidence").as_array()) {
      Evidence e;
      e.artifact = ev.at("artifact").as_string();
      e.pointer = ev.at("pointer").as_string();
      e.detail = ev.at("detail").as_string();
      r.evidence.push_back(std::move(e));
    }
    report.recommendations.push_back(std::move(r));
  }
  return report;
}

std::string render_advice(const AdviceReport& report) {
  std::ostringstream out;
  out << "advice for " << report.scenario << " (seed " << report.seed
      << "): " << report.recommendations.size() << " recommendation(s)";
  if (report.applied) out << ", verdicts applied";
  out << '\n';
  std::size_t i = 0;
  for (const Recommendation& r : report.recommendations) {
    out << "  " << ++i << ". [" << kind_name(r.kind) << "] " << r.title
        << '\n';
    out << "     predicted: " << pct(r.predicted_delta_lo) << " - "
        << pct(r.predicted_delta_hi) << " of " << r.metric << '\n';
    out << "     action: " << r.action << '\n';
    for (const Evidence& e : r.evidence) {
      out << "     evidence: " << e.artifact << e.pointer << " — "
          << e.detail << '\n';
    }
    out << "     verdict: " << verdict_name(r.verdict);
    if (r.verdict == Verdict::kAccepted || r.verdict == Verdict::kRejected) {
      out << " (measured " << pct(r.measured_delta) << ": "
          << r.verdict_reason << ")";
    } else if (!r.verdict_reason.empty()) {
      out << " (" << r.verdict_reason << ")";
    }
    out << '\n';
  }
  return out.str();
}

void publish_advice_metrics(const AdviceReport& report) {
  obs::Registry& registry = obs::metrics();
  for (const Recommendation& r : report.recommendations) {
    registry
        .counter("advise.recommendations",
                 {{"kind", std::string(kind_name(r.kind))}})
        .add(1.0);
    if (r.verdict == Verdict::kAccepted)
      registry.counter("advise.accepted").add(1.0);
    if (r.verdict == Verdict::kRejected)
      registry.counter("advise.rejected").add(1.0);
  }
}

}  // namespace mb::advise
