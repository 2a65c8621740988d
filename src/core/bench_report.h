// Machine-readable benchmark reports (the BENCH_*.json schema).
//
// The paper's methodological core (Sec. V-A.1, Fig. 5) is that results on
// these platforms are noisy and often bimodal, so conclusions must come from
// randomized repeated runs compared statistically. Human-oriented text tables
// cannot be diffed or gated on by CI; this module gives every benchmark a
// structured form instead: named sample series with their descriptive
// statistics and execution-mode analysis, plus the platform and measurement
// plan they came from, serialized to a versioned JSON document.
//
// Schema (version 1), informally:
//   {
//     "schema": "mb-bench-report", "schema_version": 1,
//     "suite": "...", "tool": "...", "tool_version": "1.0.0", "seed": N,
//     "metrics": [...],  // optional obs snapshot (obs/metrics.h)
//     "plan": {"repetitions": N, "randomize_order": B,
//              "fresh_machine_per_rep": B, "seed": N},
//     "platforms": [{"name": "...", "cores": N, "freq_hz": X,
//                    "power_w": X, "peak_dp_gflops": X,
//                    "peak_sp_gflops": X}, ...],
//     "benchmarks": [{"name": "...", "platform": "...", "metric": "...",
//                     "unit": "...", "direction": "minimize|maximize",
//                     "samples": [...],
//                     "summary": {"n":, "mean":, "median":, "stddev":,
//                                 "cv":, "min":, "max":, "q1":, "q3":},
//                     "modes": {"count": 1|2, "low_center":,
//                               "high_center":, "separation":}}, ...]
//   }
// "samples" is authoritative and preserved in measurement order; "summary"
// and "modes" are derived conveniences for downstream consumers and are
// recomputed (not trusted) when a report is parsed back.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/harness.h"
#include "core/param_space.h"
#include "core/resultset.h"
#include "obs/metrics.h"
#include "support/json.h"
#include "support/version.h"

namespace mb::core {

/// "minimize" / "maximize".
std::string_view direction_name(Direction d);
Direction parse_direction(std::string_view name);

/// Platform metadata embedded in a report (a flat summary of the
/// arch::Platform the measurements ran on; kept declarative so that core
/// does not depend on arch).
struct PlatformInfo {
  std::string name;
  std::uint32_t cores = 0;
  double freq_hz = 0.0;
  double power_w = 0.0;
  double peak_dp_gflops = 0.0;
  double peak_sp_gflops = 0.0;
};

/// One benchmark's sample series.
struct BenchRecord {
  std::string name;      ///< unique within a report, e.g. "membench/snowball/
                         ///< array_kb=48"
  std::string platform;  ///< PlatformInfo::name it ran on ("" if n/a)
  std::string metric;    ///< "seconds", "bandwidth_gbs", "mflops", ...
  std::string unit;      ///< display unit, e.g. "GB/s"
  Direction direction = Direction::kMinimize;
  std::vector<double> samples;  ///< in measurement order

  stats::Summary summary() const { return stats::summarize(samples); }
  /// Mode analysis; a single sample is trivially unimodal.
  stats::ModeSplit modes() const {
    return samples.size() < 2 ? stats::ModeSplit{}
                              : stats::split_modes(samples);
  }
  /// Robust central value used by comparisons.
  double center() const { return stats::median(samples); }
};

/// Structured account of a run that did not complete, embedded in the
/// report when a command observed one (e.g. an unrecovered `mbctl chaos`
/// scenario). Declarative mirror of mpi::FailureReport so core does not
/// depend on the mpi layer; `present` false omits the section entirely.
struct RunFailure {
  struct Blocked {
    std::uint32_t rank = 0;
    std::uint32_t peer = 0;  ///< the (dead or silent) rank waited on
    std::int32_t tag = 0;
    std::uint64_t op_index = 0;
    double since_s = 0.0;
    bool timed_out = false;
  };

  bool present = false;
  std::vector<std::uint32_t> dead_ranks;
  std::vector<Blocked> blocked;
  double detected_s = 0.0;
};

/// A complete report: metadata plus records.
struct BenchReport {
  std::string suite;  ///< e.g. "bench-suite", "membench"
  std::string tool;   ///< producing tool, e.g. "mbctl"
  /// Producing build ("1.0.0"), so every emitted report is attributable;
  /// empty when read from a report that predates the field.
  std::string tool_version{support::version()};
  std::uint64_t seed = 0;
  MeasurementPlan plan;
  std::vector<PlatformInfo> platforms;
  std::vector<BenchRecord> records;
  /// Optional observability snapshot (obs::Registry::snapshot()) captured
  /// alongside the measurements: per-phase times and subsystem counters
  /// let `compare` attribute a regression to a phase instead of just
  /// flagging the end-to-end number. Empty = section omitted.
  std::vector<obs::MetricSample> metrics;
  /// Structured failure of an unrecovered run; omitted when not present.
  RunFailure failure;

  /// Record lookup by name; nullptr when absent.
  const BenchRecord* find(std::string_view name) const;

  /// Adds platform metadata once (deduplicated by name).
  void add_platform(const PlatformInfo& info);
};

/// Converts a harness ResultSet into one record per variant, named
/// "<base>/<point>" (e.g. "membench/snowball/array_kb=48").
void append_resultset(BenchReport& report, const ParamSpace& space,
                      const ResultSet& results, std::string_view base_name,
                      std::string_view platform, std::string_view metric,
                      std::string_view unit, Direction direction);

/// Serializes the report (pretty-printed, schema above).
std::string to_json(const BenchReport& report);

/// Parses a serialized report. Validates the schema name and version and
/// the presence/types of required fields; throws support::Error otherwise.
BenchReport report_from_json(std::string_view text);
BenchReport report_from_json(const support::JsonValue& doc);

}  // namespace mb::core
