// Automatic timeline analysis — the measurement half of the advisor loop.
//
// The paper's methodology is reading per-rank timelines by eye in
// Paraver (Fig. 4: delayed collectives; Fig. 5: a slowed node). This
// module automates that reading: given a trace (and optionally a
// metrics time series) it extracts
//
//   * per-collective statistics — instances, delayed count (the Fig. 4
//     classifier), and the total wait caused by arrival spread;
//   * straggler detection with wait attribution — for every collective
//     instance, ranks arriving late (relative to the median arrival)
//     are charged the wait they induced in everyone else, generalizing
//     "which node was slow" from Fig. 5;
//   * the critical path through the DES timeline — each collective is a
//     synchronization point gated by its last-arriving rank; the
//     chronological gate sequence with arrival lags is the path a
//     speedup would have to shorten;
//   * congestion hotspots — per-link counter series from the time
//     series, ranked by total and peak rate.
//
// The result serializes as a versioned mb-analysis JSON artifact and
// renders as a human-readable report (mbctl analyze).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/timeseries.h"
#include "trace/trace.h"

namespace mb::obs {

struct AnalysisOptions {
  /// Fig. 4 delayed-instance threshold (duration > factor x median).
  double delay_factor = 2.0;
  /// A rank is *late* into an instance when its arrival lag behind the
  /// median arrival exceeds this fraction of the instance's worst lag.
  double late_fraction = 0.5;
  /// List caps (rank activity, hotspots).
  std::size_t top = 8;
};

/// Where one rank's time went, by event kind.
struct RankActivity {
  std::uint32_t rank = 0;
  double compute_s = 0.0;
  double collective_s = 0.0;
  double p2p_s = 0.0;
  double wait_s = 0.0;
};

struct CollectiveStats {
  std::string label;
  std::size_t instances = 0;
  std::size_t delayed = 0;  ///< Fig. 4 classifier at delay_factor
  double median_duration_s = 0.0;
  /// Sum over instances of sum over ranks of (last arrival - own
  /// arrival): the wait created by desynchronized entry.
  double arrival_wait_s = 0.0;
};

struct Straggler {
  std::uint32_t rank = 0;
  std::size_t instances_late = 0;
  double attributed_wait_s = 0.0;
  double share = 0.0;  ///< of the run's total attributed wait
  /// Attribution split by collective label, descending.
  std::vector<std::pair<std::string, double>> by_label;
};

/// One synchronization point on the critical path: the i-th instance of
/// `label` could not complete before `rank` arrived at `enter_s`.
struct CriticalStep {
  double enter_s = 0.0;  ///< last arrival (the gating moment)
  std::string label;
  std::size_t instance = 0;
  std::uint32_t rank = 0;  ///< last-arriving rank
  double lag_s = 0.0;      ///< last arrival - median arrival
};

struct Hotspot {
  std::string link;    ///< "src->dst" from the series labels
  std::string metric;  ///< e.g. "net.link.retransmits"
  double total = 0.0;  ///< final cumulative value
  double peak_rate_per_s = 0.0;
  double peak_at_s = 0.0;
};

struct FaultMark {
  std::uint32_t rank = 0;
  double at_s = 0.0;
  std::string label;
};

struct Analysis {
  std::string tool = "montblanc";
  std::string tool_version;
  std::uint64_t seed = 0;
  std::uint32_t ranks = 0;
  std::size_t records = 0;
  double makespan_s = 0.0;
  double total_attributed_wait_s = 0.0;
  std::vector<RankActivity> rank_activity;  ///< busiest waiters first
  std::vector<CollectiveStats> collectives;  ///< label order
  std::vector<Straggler> stragglers;         ///< attributed wait, desc
  std::vector<CriticalStep> critical_path;   ///< chronological
  std::vector<Hotspot> hotspots;             ///< total, desc
  std::vector<FaultMark> faults;             ///< chronological
};

/// Runs every analysis over `trace`; `timeseries` (may be null) feeds
/// the congestion-hotspot pass. Provenance, when the trace carries it,
/// lands in tool_version/seed (callers may overwrite otherwise).
Analysis analyze_timeline(const trace::Trace& trace,
                          const TimeSeries* timeseries,
                          const AnalysisOptions& options = {});

std::string to_json(const Analysis& analysis);

/// Human-readable report (the `mbctl analyze` stdout).
std::string render_analysis(const Analysis& analysis);

}  // namespace mb::obs
