// Metrics time series — sim-time-driven sampling of live gauges.
//
// The registry (obs/metrics.h) snapshots the *final* state of a run;
// Fig. 4/5-style questions ("when did the switch start dropping?",
// "what was queue pressure while rank 7 straggled?") need the trajectory.
// TimeSampler rides the DES itself: a self-rescheduling event samples a
// set of probes every `interval_s` of *simulated* time, so the sampling
// grid is deterministic — identical runs produce byte-identical
// mb-timeseries artifacts, and sampling adds no wall-clock timers.
//
// One-shard engine only (like fault injection): the sampler reads global
// state — queue depth, link counters — which has no single consistent
// owner once the topology is split across shards.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/sharded.h"
#include "support/version.h"

namespace mb::obs {

/// One sampled quantity: a value per entry of TimeSeries::times_s.
struct Series {
  std::string name;
  Labels labels;
  std::vector<double> values;
};

struct TimeSeries {
  std::string tool = "montblanc";
  std::string tool_version{support::version()};
  std::uint64_t seed = 0;
  double interval_s = 0.0;
  std::vector<double> times_s;  ///< simulated time of each sample
  std::vector<Series> series;   ///< columns, all sized like times_s

  bool empty() const { return times_s.empty(); }
};

std::string to_json(const TimeSeries& ts);
TimeSeries timeseries_from_json(std::string_view text);

/// Removes every series whose name starts with `name_prefix` except the
/// `keep_top` with the largest final value (all-zero series always go).
/// Bounds per-link artifacts: a 10k-rank tree has thousands of links but
/// only the congested handful carry signal. Survivor order: descending
/// final value, then original order — deterministic.
void prune_series(TimeSeries& ts, std::string_view name_prefix,
                  std::size_t keep_top);

/// Samples registered probes on a fixed simulated-time grid.
///
///   TimeSampler sampler;
///   sampler.add_probe("sim.pending_events",
///                     [&] { return double(engine.stats().pending); });
///   sampler.arm(engine, 0.5);
///   ... run ...
///   result.timeseries = sampler.take();
///
/// The sampler stops itself: when its own event finds the engine
/// otherwise empty the run has drained (that final sample is kept), so
/// it never holds the event loop open. `max_samples` bounds memory on
/// very long runs.
class TimeSampler {
 public:
  void add_probe(std::string name, Labels labels,
                 std::function<double()> probe);
  void add_probe(std::string name, std::function<double()> probe) {
    add_probe(std::move(name), Labels{}, std::move(probe));
  }

  /// Schedules the first sample at now() + interval_s on a configured
  /// one-shard engine. Call after the probes are registered and before
  /// the run. One arm() per sampler.
  void arm(sim::ShardedEngine& engine, double interval_s,
           std::size_t max_samples = 4096);

  std::size_t samples() const { return data_.times_s.size(); }

  /// Moves the collected series out (the seed is left to the caller —
  /// the sampler does not know the run's provenance).
  TimeSeries take();

 private:
  void schedule(sim::ShardedEngine& engine, double interval_s);
  void step(sim::ShardedEngine& engine, double interval_s);

  struct Probe {
    std::string name;
    Labels labels;
    std::function<double()> fn;
  };
  std::vector<Probe> probes_;
  TimeSeries data_;
  std::size_t max_samples_ = 0;
  bool armed_ = false;
};

}  // namespace mb::obs
