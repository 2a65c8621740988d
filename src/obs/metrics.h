// Metrics registry: named, labeled counters / gauges / histograms.
//
// The paper's methodology (Sec. IV) is trace-then-explain: a slow run is
// only diagnosable if the layers underneath exported what they were doing.
// This registry is the cross-layer sink for such facts. Design goals, in
// order:
//  * cheap hot-path updates — instruments resolve a handle once (a hash
//    lookup at setup time, so registering per-rank series stays linear in
//    ranks) and then increment through the handle, which is a plain add on
//    a member;
//  * stable, snapshotable state — registration order is preserved, and a
//    snapshot is a plain value (`MetricSample`) that serializes to JSON via
//    support/json and parses back;
//  * single-threaded semantics — like the simulator itself, the registry
//    is deliberately not thread-safe; determinism matters more here than
//    concurrency.
//
// Thread-safety contract (explicit, because the sharded engine runs
// worker threads): every Registry method, and every update through a
// Counter/Gauge/Histogram handle, must happen on one thread at a time —
// there is no internal locking. Under sim::ShardedEngine the runtime
// therefore updates rank-labeled instruments only from the shard that
// owns the rank, and everything global (registration, snapshot(),
// reset(), clear(), rollups, the time sampler) happens outside the run
// or on a one-shard engine. The process-wide metrics() registry inherits
// this contract; tests that need a pristine registry call
// reset_for_test() instead of relying on process isolation.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/json.h"

namespace mb::obs {

/// Label set attached to a metric series, e.g. {{"rank","3"}}. Order is
/// normalized (sorted by key) so label order at the call site is
/// irrelevant to series identity.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing value (counts, bytes, accumulated seconds).
class Counter {
 public:
  void inc() { value_ += 1.0; }
  void add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Last-write-wins value (depths, best-so-far, rollup snapshots).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram with Prometheus-style upper-bound semantics:
/// an observation lands in the first bucket whose bound is >= the value
/// (bounds are inclusive upper edges); larger values land in the implicit
/// overflow bucket.
class Histogram {
 public:
  /// `bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket observation counts (same length as bounds()).
  const std::vector<std::uint64_t>& counts() const { return counts_; }
  std::uint64_t overflow() const { return overflow_; }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t overflow_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// One metric series captured at a point in time — the unit of the JSON
/// snapshot embedded in profiles and bench reports.
struct MetricSample {
  enum class Type : std::uint8_t { kCounter, kGauge, kHistogram };

  std::string name;
  Type type = Type::kCounter;
  Labels labels;  ///< normalized (sorted by key)
  double value = 0.0;  ///< counter/gauge value; histogram sum
  // Histogram-only fields:
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t overflow = 0;
  std::uint64_t count = 0;

  /// "name{k=v,...}" — unique series key within a registry.
  std::string key() const;
};

std::string_view metric_type_name(MetricSample::Type t);

class Registry {
 public:
  /// Finds or creates the series; the returned reference stays valid for
  /// the registry's lifetime (including across clear(), which zeroes
  /// values but keeps instruments registered). Requesting an existing
  /// name+labels with a different metric type throws support::Error.
  Counter& counter(std::string_view name, Labels labels = {});
  Gauge& gauge(std::string_view name, Labels labels = {});
  /// `bounds` must match on repeat lookups of an existing histogram.
  Histogram& histogram(std::string_view name, std::vector<double> bounds,
                       Labels labels = {});

  std::size_t size() const { return series_.size(); }

  /// All series in registration order.
  std::vector<MetricSample> snapshot() const;

  /// Counter subset in registration order (span delta attribution).
  /// The index of a counter is stable for the registry's lifetime.
  std::size_t counter_count() const { return counters_.size(); }
  double counter_value(std::size_t i) const;
  std::string counter_key(std::size_t i) const;

  /// Zeroes every value; instruments and handles stay registered/valid.
  void reset();
  /// Drops every series (handles become dangling — setup-time only).
  void clear();
  /// Test fixtures only: returns the registry to its pristine state so a
  /// test can assert absolute values instead of before/after deltas.
  /// Equivalent to clear() — call it *before* constructing the objects
  /// under test; handles resolved earlier (by other tests in the same
  /// process) must not be used afterwards.
  void reset_for_test() { clear(); }

 private:
  struct Series {
    MetricSample::Type type;
    std::string name;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// The series named `name` with normalized `labels`, or nullptr.
  Series* find(std::string_view name, const Labels& labels);
  /// Appends `s` in registration order and indexes it.
  Series& add(Series s);

  std::vector<Series> series_;           ///< registration order
  /// (name, normalized labels), length-prefixed -> index into series_.
  std::unordered_map<std::string, std::size_t> index_;
  std::vector<Counter*> counters_;       ///< registration order, counters only
  std::vector<std::size_t> counter_series_;  ///< index into series_
};

/// The process-wide default registry all built-in instrumentation uses.
Registry& metrics();

/// Serializes samples as a JSON array (the "metrics" section of profile
/// and bench-report documents).
void write_metrics_json(support::JsonWriter& w,
                        const std::vector<MetricSample>& samples);

/// Parses a "metrics" JSON array written by write_metrics_json().
std::vector<MetricSample> parse_metrics_json(const support::JsonValue& array);

}  // namespace mb::obs
