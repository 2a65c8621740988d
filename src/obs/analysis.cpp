#include "obs/analysis.h"

#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>

#include "stats/descriptive.h"
#include "support/check.h"
#include "support/json.h"
#include "support/schema.h"
#include "support/version.h"

namespace mb::obs {

using support::JsonWriter;

Analysis analyze_timeline(const trace::Trace& trace,
                          const TimeSeries* timeseries,
                          const AnalysisOptions& options) {
  support::check(options.late_fraction > 0.0 && options.late_fraction < 1.0,
                 "analyze_timeline", "late_fraction must be in (0, 1)");
  Analysis a;
  a.tool_version = trace.has_provenance() ? trace.tool_version()
                                          : std::string(support::version());
  a.seed = trace.has_provenance() ? trace.seed() : 0;
  a.ranks = trace.ranks();
  a.records = trace.size();
  a.makespan_s = trace.end_time();

  // Per-rank activity split by event kind.
  std::vector<RankActivity> activity(a.ranks);
  for (std::uint32_t r = 0; r < a.ranks; ++r) activity[r].rank = r;
  for (const auto& rec : trace.records()) {
    RankActivity& act = activity[rec.rank];
    switch (rec.kind) {
      case trace::EventKind::kCompute: act.compute_s += rec.duration(); break;
      case trace::EventKind::kCollective:
        act.collective_s += rec.duration();
        break;
      case trace::EventKind::kSend:
      case trace::EventKind::kRecv: act.p2p_s += rec.duration(); break;
      case trace::EventKind::kWait: act.wait_s += rec.duration(); break;
      case trace::EventKind::kFault:
        a.faults.push_back({rec.rank, rec.t0, rec.label});
        break;
    }
  }
  std::stable_sort(a.faults.begin(), a.faults.end(),
                   [](const FaultMark& x, const FaultMark& y) {
                     return x.at_s < y.at_s;
                   });
  std::stable_sort(activity.begin(), activity.end(),
                   [](const RankActivity& x, const RankActivity& y) {
                     return x.wait_s + x.collective_s >
                            y.wait_s + y.collective_s;
                   });
  if (activity.size() > options.top) activity.resize(options.top);
  a.rank_activity = std::move(activity);

  struct Accum {
    std::size_t instances_late = 0;
    double attributed = 0.0;
    std::map<std::string, double> by_label;
  };
  std::map<std::uint32_t, Accum> accum;
  std::vector<CriticalStep> steps;

  // Collective instances come from the Fig. 4 index: an instance's
  // members are its ranks' records, in ascending rank order.
  const std::vector<trace::Record>& records = trace.records();
  for (const auto& [label, report] :
       trace::classify_collectives(trace, options.delay_factor)) {
    CollectiveStats cs;
    cs.label = label;
    cs.instances = report.instances.size();
    cs.delayed = report.delayed_count;
    cs.median_duration_s = report.median_duration;

    for (const trace::CollectiveInstance& inst : report.instances) {
      // Arrival = when the rank *entered* the collective (t0): the spread
      // of arrivals is pure wait imposed on the early ranks.
      if (inst.members.size() < 2) continue;
      const trace::Record& first = records[inst.members.front()];
      double last_arrival = first.t0;
      std::uint32_t last_rank = first.rank;
      std::vector<double> times;
      times.reserve(inst.members.size());
      for (const std::size_t k : inst.members) {
        const trace::Record& r = records[k];
        times.push_back(r.t0);
        if (r.t0 > last_arrival) {
          last_arrival = r.t0;
          last_rank = r.rank;
        }
      }
      const double median_arrival = stats::median(times);
      const double worst_lag = last_arrival - median_arrival;
      double spread_wait = 0.0;
      for (const double t0 : times) spread_wait += last_arrival - t0;
      cs.arrival_wait_s += spread_wait;
      if (worst_lag <= 0.0) continue;

      steps.push_back({last_arrival, label, inst.index, last_rank, worst_lag});

      // Late set: every rank whose lag is within late_fraction of the
      // worst. This deliberately catches *groups* of stragglers — both
      // ranks of a slowed node arrive nearly together, so charging only
      // the single last arrival would let its sibling off free.
      std::vector<std::pair<std::uint32_t, double>> late;
      double late_lag_sum = 0.0;
      for (const std::size_t k : inst.members) {
        const double lag = records[k].t0 - median_arrival;
        if (lag > options.late_fraction * worst_lag) {
          late.emplace_back(records[k].rank, lag);
          late_lag_sum += lag;
        }
      }
      if (late.empty() || late_lag_sum <= 0.0) continue;
      a.total_attributed_wait_s += spread_wait;
      for (const auto& [rank, lag] : late) {
        Accum& acc = accum[rank];
        const double charged = spread_wait * (lag / late_lag_sum);
        acc.attributed += charged;
        acc.by_label[label] += charged;
        ++acc.instances_late;
      }
    }
    a.collectives.push_back(std::move(cs));
  }

  // Stragglers: consistent late arrivals carrying a real share of the
  // total attributed wait — at least this share, over at least this many
  // late entries (one bad instance is noise).
  constexpr double kStragglerMinShare = 0.2;
  constexpr std::size_t kStragglerMinInstances = 2;
  for (const auto& [rank, acc] : accum) {
    const double share = a.total_attributed_wait_s > 0.0
                             ? acc.attributed / a.total_attributed_wait_s
                             : 0.0;
    if (share < kStragglerMinShare) continue;
    if (acc.instances_late < kStragglerMinInstances) continue;
    Straggler s;
    s.rank = rank;
    s.instances_late = acc.instances_late;
    s.attributed_wait_s = acc.attributed;
    s.share = share;
    s.by_label.assign(acc.by_label.begin(), acc.by_label.end());
    std::stable_sort(s.by_label.begin(), s.by_label.end(),
                     [](const auto& x, const auto& y) {
                       return x.second > y.second;
                     });
    a.stragglers.push_back(std::move(s));
  }
  std::stable_sort(a.stragglers.begin(), a.stragglers.end(),
                   [](const Straggler& x, const Straggler& y) {
                     return x.attributed_wait_s > y.attributed_wait_s;
                   });

  // Critical path: cap to the biggest lags, then restore chronology.
  constexpr std::size_t kMaxCriticalSteps = 256;
  std::stable_sort(steps.begin(), steps.end(),
                   [](const CriticalStep& x, const CriticalStep& y) {
                     return x.lag_s > y.lag_s;
                   });
  if (steps.size() > kMaxCriticalSteps) steps.resize(kMaxCriticalSteps);
  std::stable_sort(steps.begin(), steps.end(),
                   [](const CriticalStep& x, const CriticalStep& y) {
                     return x.enter_s < y.enter_s;
                   });
  a.critical_path = std::move(steps);

  // Congestion hotspots from cumulative per-link counter series.
  if (timeseries != nullptr) {
    for (const auto& s : timeseries->series) {
      if (s.name.rfind("net.link.", 0) != 0) continue;
      if (s.values.empty() || s.values.back() <= 0.0) continue;
      Hotspot h;
      h.metric = s.name;
      for (const auto& [k, v] : s.labels)
        if (k == "link") h.link = v;
      h.total = s.values.back();
      double prev_t = 0.0;
      double prev_v = 0.0;
      for (std::size_t i = 0; i < s.values.size(); ++i) {
        const double dt = timeseries->times_s[i] - prev_t;
        const double rate = dt > 0.0 ? (s.values[i] - prev_v) / dt : 0.0;
        if (rate > h.peak_rate_per_s) {
          h.peak_rate_per_s = rate;
          h.peak_at_s = timeseries->times_s[i];
        }
        prev_t = timeseries->times_s[i];
        prev_v = s.values[i];
      }
      a.hotspots.push_back(std::move(h));
    }
    std::stable_sort(a.hotspots.begin(), a.hotspots.end(),
                     [](const Hotspot& x, const Hotspot& y) {
                       return x.total > y.total;
                     });
    if (a.hotspots.size() > options.top) a.hotspots.resize(options.top);
  }
  return a;
}

std::string to_json(const Analysis& a) {
  JsonWriter w;
  support::begin_document(w, support::kAnalysisSchema);
  w.field("tool", a.tool);
  w.field("tool_version", a.tool_version);
  w.field("seed", a.seed);
  w.field("ranks", a.ranks);
  w.field("records", static_cast<std::uint64_t>(a.records));
  w.field("makespan_s", a.makespan_s);
  w.field("total_attributed_wait_s", a.total_attributed_wait_s);

  w.key("rank_activity").begin_array();
  for (const auto& r : a.rank_activity) {
    w.begin_object();
    w.field("rank", r.rank);
    w.field("compute_s", r.compute_s);
    w.field("collective_s", r.collective_s);
    w.field("p2p_s", r.p2p_s);
    w.field("wait_s", r.wait_s);
    w.end_object();
  }
  w.end_array();

  w.key("collectives").begin_array();
  for (const auto& c : a.collectives) {
    w.begin_object();
    w.field("label", c.label);
    w.field("instances", static_cast<std::uint64_t>(c.instances));
    w.field("delayed", static_cast<std::uint64_t>(c.delayed));
    w.field("median_duration_s", c.median_duration_s);
    w.field("arrival_wait_s", c.arrival_wait_s);
    w.end_object();
  }
  w.end_array();

  w.key("stragglers").begin_array();
  for (const auto& s : a.stragglers) {
    w.begin_object();
    w.field("rank", s.rank);
    w.field("instances_late", static_cast<std::uint64_t>(s.instances_late));
    w.field("attributed_wait_s", s.attributed_wait_s);
    w.field("share", s.share);
    w.key("by_label").begin_object();
    for (const auto& [label, seconds] : s.by_label) w.field(label, seconds);
    w.end_object();
    w.end_object();
  }
  w.end_array();

  w.key("critical_path").begin_array();
  for (const auto& step : a.critical_path) {
    w.begin_object();
    w.field("t_s", step.enter_s);
    w.field("label", step.label);
    w.field("instance", static_cast<std::uint64_t>(step.instance));
    w.field("rank", step.rank);
    w.field("lag_s", step.lag_s);
    w.end_object();
  }
  w.end_array();

  w.key("hotspots").begin_array();
  for (const auto& h : a.hotspots) {
    w.begin_object();
    w.field("link", h.link);
    w.field("metric", h.metric);
    w.field("total", h.total);
    w.field("peak_rate_per_s", h.peak_rate_per_s);
    w.field("peak_at_s", h.peak_at_s);
    w.end_object();
  }
  w.end_array();

  w.key("faults").begin_array();
  for (const auto& f : a.faults) {
    w.begin_object();
    w.field("rank", f.rank);
    w.field("t_s", f.at_s);
    w.field("label", f.label);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

namespace {

std::string seconds(double s) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(4) << s << " s";
  return os.str();
}

std::string percent(double fraction) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << fraction * 100.0 << "%";
  return os.str();
}

}  // namespace

std::string render_analysis(const Analysis& a) {
  std::ostringstream os;
  os << "timeline analysis — " << a.ranks << " rank(s), " << a.records
     << " record(s), makespan " << seconds(a.makespan_s) << "\n";
  os << "  tool " << a.tool_version << ", seed " << a.seed << "\n\n";

  os << "collectives:\n";
  if (a.collectives.empty()) {
    os << "  (no collective records in trace)\n";
  } else {
    os << "  " << std::left << std::setw(20) << "label" << std::right
       << std::setw(10) << "instances" << std::setw(9) << "delayed"
       << std::setw(13) << "median" << std::setw(16) << "arrival wait"
       << "\n";
    for (const auto& c : a.collectives) {
      os << "  " << std::left << std::setw(20) << c.label << std::right
         << std::setw(10) << c.instances << std::setw(9) << c.delayed
         << std::setw(13) << seconds(c.median_duration_s) << std::setw(16)
         << seconds(c.arrival_wait_s) << "\n";
    }
  }

  os << "\nstragglers (consistently late into collectives):\n";
  if (a.stragglers.empty()) {
    os << "  none detected\n";
  } else {
    for (const auto& s : a.stragglers) {
      os << "  rank " << s.rank << ": " << s.instances_late
         << " late entr" << (s.instances_late == 1 ? "y" : "ies") << ", "
         << seconds(s.attributed_wait_s) << " attributed wait ("
         << percent(s.share) << " of total)";
      if (!s.by_label.empty()) {
        os << " — worst: " << s.by_label.front().first << " "
           << seconds(s.by_label.front().second);
      }
      os << "\n";
    }
  }

  os << "\ncritical path (each collective instance waits for its last "
        "arrival):\n";
  if (a.critical_path.empty()) {
    os << "  no synchronization lag found\n";
  } else {
    // The artifact keeps every step; the report shows the dozen worst,
    // in chronological order.
    std::vector<const CriticalStep*> shown;
    for (const auto& step : a.critical_path) shown.push_back(&step);
    std::stable_sort(shown.begin(), shown.end(),
                     [](const CriticalStep* x, const CriticalStep* y) {
                       return x->lag_s > y->lag_s;
                     });
    if (shown.size() > 12) shown.resize(12);
    std::stable_sort(shown.begin(), shown.end(),
                     [](const CriticalStep* x, const CriticalStep* y) {
                       return x->enter_s < y->enter_s;
                     });
    for (const CriticalStep* step : shown) {
      os << "  t=" << seconds(step->enter_s) << "  " << step->label << "#"
         << step->instance << " gated by rank " << step->rank << " (lag "
         << seconds(step->lag_s) << ")\n";
    }
    if (a.critical_path.size() > shown.size()) {
      os << "  … " << (a.critical_path.size() - shown.size())
         << " smaller step(s) in the JSON artifact\n";
    }
  }

  os << "\ncongestion hotspots:\n";
  if (a.hotspots.empty()) {
    os << "  none (no time series, or no per-link counters moved)\n";
  } else {
    for (const auto& h : a.hotspots) {
      os << "  " << h.link << "  " << h.metric << " total "
         << static_cast<std::uint64_t>(h.total) << ", peak "
         << std::fixed << std::setprecision(1) << h.peak_rate_per_s
         << "/s at t=" << seconds(h.peak_at_s) << "\n";
    }
  }

  if (!a.faults.empty()) {
    os << "\ninjected faults seen in trace:\n";
    for (const auto& f : a.faults) {
      os << "  t=" << seconds(f.at_s) << "  rank " << f.rank << "  "
         << f.label << "\n";
    }
  }
  return os.str();
}

}  // namespace mb::obs
