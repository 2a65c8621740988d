#include "core/bench_report.h"

#include <utility>

#include "support/check.h"
#include "support/schema.h"

namespace mb::core {

using support::check;
using support::JsonValue;
using support::JsonWriter;

std::string_view direction_name(Direction d) {
  return d == Direction::kMinimize ? "minimize" : "maximize";
}

Direction parse_direction(std::string_view name) {
  if (name == "minimize") return Direction::kMinimize;
  if (name == "maximize") return Direction::kMaximize;
  support::fail("parse_direction",
                "unknown direction '" + std::string(name) + "'");
}

const BenchRecord* BenchReport::find(std::string_view name) const {
  for (const auto& r : records)
    if (r.name == name) return &r;
  return nullptr;
}

void BenchReport::add_platform(const PlatformInfo& info) {
  for (const auto& p : platforms)
    if (p.name == info.name) return;
  platforms.push_back(info);
}

void append_resultset(BenchReport& report, const ParamSpace& space,
                      const ResultSet& results, std::string_view base_name,
                      std::string_view platform, std::string_view metric,
                      std::string_view unit, Direction direction) {
  check(space.size() == results.variants(), "append_resultset",
        "space size does not match result variants");
  for (std::size_t v = 0; v < results.variants(); ++v) {
    BenchRecord record;
    record.name = std::string(base_name);
    if (space.dims() > 0) {
      record.name += "/";
      record.name += space.at(v).to_string();
    }
    record.platform = std::string(platform);
    record.metric = std::string(metric);
    record.unit = std::string(unit);
    record.direction = direction;
    record.samples = results.samples(v);
    check(report.find(record.name) == nullptr, "append_resultset",
          "duplicate record name '" + record.name + "'");
    report.records.push_back(std::move(record));
  }
}

std::string to_json(const BenchReport& report) {
  JsonWriter w;
  support::begin_document(w, support::kBenchReportSchema);
  w.field("suite", report.suite);
  w.field("tool", report.tool);
  w.field("tool_version", report.tool_version);
  w.field("seed", report.seed);

  w.key("plan").begin_object();
  w.field("repetitions", report.plan.repetitions);
  w.field("randomize_order", report.plan.randomize_order);
  w.field("fresh_machine_per_rep", report.plan.fresh_machine_per_rep);
  w.field("seed", report.plan.seed);
  w.end_object();

  w.key("platforms").begin_array();
  for (const auto& p : report.platforms) {
    w.begin_object();
    w.field("name", p.name);
    w.field("cores", p.cores);
    w.field("freq_hz", p.freq_hz);
    w.field("power_w", p.power_w);
    w.field("peak_dp_gflops", p.peak_dp_gflops);
    w.field("peak_sp_gflops", p.peak_sp_gflops);
    w.end_object();
  }
  w.end_array();

  w.key("benchmarks").begin_array();
  for (const auto& r : report.records) {
    check(!r.samples.empty(), "to_json",
          "record '" + r.name + "' has no samples");
    w.begin_object();
    w.field("name", r.name);
    w.field("platform", r.platform);
    w.field("metric", r.metric);
    w.field("unit", r.unit);
    w.field("direction", direction_name(r.direction));
    w.key("samples").begin_array();
    for (double s : r.samples) w.value(s);
    w.end_array();

    const auto sum = r.summary();
    w.key("summary").begin_object();
    w.field("n", static_cast<std::uint64_t>(sum.n));
    w.field("mean", sum.mean);
    w.field("median", sum.median);
    w.field("stddev", sum.stddev);
    w.field("cv", stats::cv(r.samples));
    w.field("min", sum.min);
    w.field("max", sum.max);
    w.field("q1", sum.q1);
    w.field("q3", sum.q3);
    w.end_object();

    const auto split = r.modes();
    w.key("modes").begin_object();
    w.field("count", split.bimodal ? 2 : 1);
    if (split.bimodal) {
      w.field("low_center", split.low_center);
      w.field("high_center", split.high_center);
      w.field("separation", split.separation);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();

  if (!report.metrics.empty()) {
    w.key("metrics");
    obs::write_metrics_json(w, report.metrics);
  }

  if (report.failure.present) {
    w.key("failure").begin_object();
    w.key("dead_ranks").begin_array();
    for (std::uint32_t r : report.failure.dead_ranks) w.value(r);
    w.end_array();
    w.key("blocked").begin_array();
    for (const RunFailure::Blocked& b : report.failure.blocked) {
      w.begin_object();
      w.field("rank", b.rank);
      w.field("peer", b.peer);
      w.field("tag", static_cast<std::int64_t>(b.tag));
      w.field("op_index", b.op_index);
      w.field("since_s", b.since_s);
      w.field("timed_out", b.timed_out);
      w.end_object();
    }
    w.end_array();
    w.field("detected_s", report.failure.detected_s);
    w.end_object();
  }

  w.end_object();
  return std::move(w).str();
}

BenchReport report_from_json(std::string_view text) {
  return report_from_json(support::parse_json(text));
}

BenchReport report_from_json(const JsonValue& doc) {
  support::check_document(doc, support::kBenchReportSchema,
                          "report_from_json");
  BenchReport report;
  report.suite = doc.at("suite").as_string();
  report.tool = doc.at("tool").as_string();
  // Optional: reports from builds before the observability change.
  const JsonValue* tv = doc.find("tool_version");
  report.tool_version = tv != nullptr ? tv->as_string() : "";
  report.seed = static_cast<std::uint64_t>(doc.at("seed").as_number());
  if (const JsonValue* m = doc.find("metrics"))
    report.metrics = obs::parse_metrics_json(*m);
  if (const JsonValue* f = doc.find("failure")) {
    report.failure.present = true;
    for (const JsonValue& r : f->at("dead_ranks").as_array())
      report.failure.dead_ranks.push_back(
          static_cast<std::uint32_t>(r.as_number()));
    for (const JsonValue& b : f->at("blocked").as_array()) {
      RunFailure::Blocked blocked;
      blocked.rank = static_cast<std::uint32_t>(b.at("rank").as_number());
      blocked.peer = static_cast<std::uint32_t>(b.at("peer").as_number());
      blocked.tag = static_cast<std::int32_t>(b.at("tag").as_number());
      blocked.op_index =
          static_cast<std::uint64_t>(b.at("op_index").as_number());
      blocked.since_s = b.at("since_s").as_number();
      blocked.timed_out = b.at("timed_out").as_bool();
      report.failure.blocked.push_back(blocked);
    }
    report.failure.detected_s = f->at("detected_s").as_number();
  }

  const JsonValue& plan = doc.at("plan");
  report.plan.repetitions =
      static_cast<std::uint32_t>(plan.at("repetitions").as_number());
  report.plan.randomize_order = plan.at("randomize_order").as_bool();
  report.plan.fresh_machine_per_rep =
      plan.at("fresh_machine_per_rep").as_bool();
  report.plan.seed = static_cast<std::uint64_t>(plan.at("seed").as_number());

  for (const JsonValue& p : doc.at("platforms").as_array()) {
    PlatformInfo info;
    info.name = p.at("name").as_string();
    info.cores = static_cast<std::uint32_t>(p.at("cores").as_number());
    info.freq_hz = p.at("freq_hz").as_number();
    info.power_w = p.at("power_w").as_number();
    info.peak_dp_gflops = p.at("peak_dp_gflops").as_number();
    info.peak_sp_gflops = p.at("peak_sp_gflops").as_number();
    report.platforms.push_back(std::move(info));
  }

  for (const JsonValue& b : doc.at("benchmarks").as_array()) {
    BenchRecord record;
    record.name = b.at("name").as_string();
    record.platform = b.at("platform").as_string();
    record.metric = b.at("metric").as_string();
    record.unit = b.at("unit").as_string();
    record.direction = parse_direction(b.at("direction").as_string());
    for (const JsonValue& s : b.at("samples").as_array())
      record.samples.push_back(s.as_number());
    check(!record.samples.empty(), "report_from_json",
          "record '" + record.name + "' has no samples");
    check(report.find(record.name) == nullptr, "report_from_json",
          "duplicate record name '" + record.name + "'");
    report.records.push_back(std::move(record));
  }
  return report;
}

}  // namespace mb::core
