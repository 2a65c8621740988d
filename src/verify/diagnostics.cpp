#include "verify/diagnostics.h"

#include <utility>

#include "obs/metrics.h"
#include "support/check.h"
#include "support/json.h"
#include "support/schema.h"
#include "support/table.h"
#include "support/version.h"
#include "verify/rules.h"

namespace mb::verify {

std::string_view severity_name(Severity s) {
  switch (s) {
    case Severity::kError: return "error";
    case Severity::kWarn: return "warn";
    case Severity::kNote: return "note";
  }
  return "?";
}

Location Location::program(std::uint32_t rank, std::size_t op_index) {
  Location loc;
  loc.in_program = true;
  loc.rank = rank;
  loc.op_index = op_index;
  return loc;
}

Location Location::config(std::string key) {
  Location loc;
  loc.config_key = std::move(key);
  return loc;
}

std::string Location::to_string() const {
  if (in_program) {
    return "rank " + std::to_string(rank) + " op " +
           std::to_string(op_index);
  }
  return config_key;
}

void Report::add(Diagnostic d) {
  support::check(find_rule(d.rule) != nullptr, "Report::add",
                 "unknown rule id '" + d.rule + "'");
  findings_.push_back(std::move(d));
}

void Report::add(std::string_view rule, Location location,
                 std::string message, std::string hint) {
  const RuleInfo* info = find_rule(rule);
  support::check(info != nullptr, "Report::add",
                 "unknown rule id '" + std::string(rule) + "'");
  add(rule, info->severity, std::move(location), std::move(message),
      std::move(hint));
}

void Report::add(std::string_view rule, Severity severity, Location location,
                 std::string message, std::string hint) {
  Diagnostic d;
  d.rule = std::string(rule);
  d.severity = severity;
  d.location = std::move(location);
  d.message = std::move(message);
  d.hint = std::move(hint);
  add(std::move(d));
}

void Report::merge(const Report& other) {
  for (const Diagnostic& d : other.findings_) findings_.push_back(d);
}

std::size_t Report::count(Severity s) const {
  std::size_t n = 0;
  for (const Diagnostic& d : findings_)
    if (d.severity == s) ++n;
  return n;
}

bool Report::has_rule(std::string_view rule) const {
  for (const Diagnostic& d : findings_)
    if (d.rule == rule) return true;
  return false;
}

std::string render_diagnostics(const Report& report) {
  std::string out;
  if (report.empty()) {
    out = "no findings\n";
    return out;
  }
  support::Table table({"Rule", "Severity", "Location", "Message"});
  for (const Diagnostic& d : report.findings()) {
    std::string message = d.message;
    if (!d.hint.empty()) message += " [hint: " + d.hint + "]";
    table.add_row({d.rule, std::string(severity_name(d.severity)),
                   d.location.empty() ? "-" : d.location.to_string(),
                   message});
  }
  out = table.render();
  out += std::to_string(report.errors()) + " error(s), " +
         std::to_string(report.warnings()) + " warning(s), " +
         std::to_string(report.notes()) + " note(s)\n";
  return out;
}

std::string diagnostics_to_json(const Report& report,
                                std::string_view source,
                                std::uint64_t seed) {
  support::JsonWriter w;
  support::begin_document(w, support::kDiagnosticsSchema);
  w.field("tool", "mb_verify");
  w.field("tool_version", support::version());
  w.field("source", source);
  w.field("seed", seed);
  write_findings(w, report);
  w.end_object();
  return std::move(w).str();
}

void write_findings(support::JsonWriter& w, const Report& report) {
  w.key("counts").begin_object();
  w.field("error", static_cast<std::uint64_t>(report.errors()));
  w.field("warn", static_cast<std::uint64_t>(report.warnings()));
  w.field("note", static_cast<std::uint64_t>(report.notes()));
  w.end_object();
  w.key("findings").begin_array();
  for (const Diagnostic& d : report.findings()) {
    w.begin_object();
    w.field("rule", d.rule);
    w.field("severity", severity_name(d.severity));
    if (d.location.in_program) {
      w.field("rank", d.location.rank);
      w.field("op_index", static_cast<std::uint64_t>(d.location.op_index));
    }
    if (!d.location.config_key.empty())
      w.field("config_key", d.location.config_key);
    w.field("message", d.message);
    if (!d.hint.empty()) w.field("hint", d.hint);
    w.end_object();
  }
  w.end_array();
}

void publish_diagnostics(const Report& report, std::string_view pass) {
  obs::Registry& registry = obs::metrics();
  registry.counter("verify.runs", {{"pass", std::string(pass)}}).inc();
  registry.counter("verify.findings", {{"severity", "error"}})
      .add(static_cast<double>(report.errors()));
  registry.counter("verify.findings", {{"severity", "warn"}})
      .add(static_cast<double>(report.warnings()));
  registry.counter("verify.findings", {{"severity", "note"}})
      .add(static_cast<double>(report.notes()));
}

}  // namespace mb::verify
