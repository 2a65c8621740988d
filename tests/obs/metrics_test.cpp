#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/check.h"
#include "support/json.h"

namespace mb::obs {
namespace {

TEST(Metrics, CounterFindOrCreateAccumulates) {
  Registry r;
  Counter& c = r.counter("x");
  c.inc();
  c.add(2.5);
  EXPECT_DOUBLE_EQ(r.counter("x").value(), 3.5);
  EXPECT_EQ(&r.counter("x"), &c);
  EXPECT_EQ(r.size(), 1u);
}

TEST(Metrics, LabelOrderDoesNotSplitSeries) {
  Registry r;
  Counter& a = r.counter("x", {{"b", "2"}, {"a", "1"}});
  Counter& b = r.counter("x", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.counter_key(0), "x{a=1,b=2}");
}

TEST(Metrics, DifferentLabelsAreDifferentSeries) {
  Registry r;
  r.counter("x", {{"rank", "0"}}).add(1.0);
  r.counter("x", {{"rank", "1"}}).add(2.0);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_DOUBLE_EQ(r.counter("x", {{"rank", "0"}}).value(), 1.0);
  EXPECT_DOUBLE_EQ(r.counter("x", {{"rank", "1"}}).value(), 2.0);
}

TEST(Metrics, DuplicateLabelKeysRejected) {
  Registry r;
  EXPECT_THROW(r.counter("x", {{"a", "1"}, {"a", "2"}}), support::Error);
}

TEST(Metrics, TypeMismatchRejected) {
  Registry r;
  r.counter("x");
  EXPECT_THROW(r.gauge("x"), support::Error);
  EXPECT_THROW(r.histogram("x", {1.0}), support::Error);
}

TEST(Metrics, HistogramBucketEdgesAreInclusiveUpperBounds) {
  Registry r;
  Histogram& h = r.histogram("lat", {1.0, 2.0, 4.0});
  h.observe(-3.0);  // below the first bound -> first bucket
  h.observe(1.0);   // exactly on a bound -> that bucket (le semantics)
  h.observe(1.0001);
  h.observe(4.0);
  h.observe(4.5);  // past the last bound -> overflow
  EXPECT_EQ(h.counts(), (std::vector<std::uint64_t>{2, 1, 1}));
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), -3.0 + 1.0 + 1.0001 + 4.0 + 4.5);
}

TEST(Metrics, HistogramBoundsMustMatchOnRelookup) {
  Registry r;
  r.histogram("lat", {1.0, 2.0});
  EXPECT_NO_THROW(r.histogram("lat", {1.0, 2.0}));
  EXPECT_THROW(r.histogram("lat", {1.0, 3.0}), support::Error);
}

TEST(Metrics, HistogramRejectsBadBounds) {
  EXPECT_THROW(Histogram({}), support::Error);
  EXPECT_THROW(Histogram({2.0, 1.0}), support::Error);
  EXPECT_THROW(Histogram({1.0, 1.0}), support::Error);
}

TEST(Metrics, ResetZeroesValuesButKeepsHandlesValid) {
  Registry r;
  Counter& c = r.counter("x");
  Gauge& g = r.gauge("g");
  Histogram& h = r.histogram("h", {1.0});
  c.add(5.0);
  g.set(7.0);
  h.observe(0.5);
  r.reset();
  EXPECT_EQ(r.size(), 3u);
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  c.inc();  // the handle still feeds the registered series
  EXPECT_DOUBLE_EQ(r.counter("x").value(), 1.0);
}

TEST(Metrics, CounterSubsetIndexesOnlyCounters) {
  Registry r;
  r.counter("a");
  r.gauge("g");
  r.counter("b", {{"k", "v"}});
  r.histogram("h", {1.0});
  ASSERT_EQ(r.counter_count(), 2u);
  EXPECT_EQ(r.counter_key(0), "a");
  EXPECT_EQ(r.counter_key(1), "b{k=v}");
  EXPECT_THROW(r.counter_value(2), support::Error);
}

TEST(Metrics, ManySeriesResolveToTheirHandlesUntilClear) {
  Registry r;
  constexpr std::size_t kRanks = 10000;
  std::vector<Counter*> sent;
  std::vector<Gauge*> depth;
  for (std::size_t i = 0; i < kRanks; ++i) {
    sent.push_back(&r.counter("sent", {{"rank", std::to_string(i)}}));
    depth.push_back(&r.gauge("depth", {{"rank", std::to_string(i)}}));
  }
  ASSERT_EQ(r.size(), 2u * kRanks);
  for (std::size_t i = 0; i < kRanks; ++i) {
    EXPECT_EQ(&r.counter("sent", {{"rank", std::to_string(i)}}), sent[i]);
    EXPECT_EQ(&r.gauge("depth", {{"rank", std::to_string(i)}}), depth[i]);
  }
  EXPECT_EQ(r.size(), 2u * kRanks);
  // Names and label text that concatenate alike stay separate series.
  r.counter("ab", {{"c", "d"}});
  r.counter("a", {{"bc", "d"}});
  r.counter("a", {{"b", "cd"}});
  EXPECT_EQ(r.size(), 2u * kRanks + 3);
  EXPECT_THROW(r.gauge("sent", {{"rank", "7"}}), support::Error);

  r.clear();
  EXPECT_EQ(r.size(), 0u);
  // No stale entry survives: the old counter's key takes a new type.
  Gauge& g = r.gauge("sent", {{"rank", "7"}});
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(&r.gauge("sent", {{"rank", "7"}}), &g);
  EXPECT_EQ(r.counter_count(), 0u);
}

TEST(Metrics, SnapshotRoundTripsThroughJson) {
  Registry r;
  r.counter("bytes", {{"rank", "3"}}).add(4096.0);
  r.gauge("depth").set(17.0);
  Histogram& h = r.histogram("lat", {1.0, 8.0});
  h.observe(0.5);
  h.observe(100.0);

  const auto before = r.snapshot();
  support::JsonWriter w;
  write_metrics_json(w, before);
  const auto after = parse_metrics_json(support::parse_json(w.str()));

  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].name, before[i].name);
    EXPECT_EQ(after[i].type, before[i].type);
    EXPECT_EQ(after[i].labels, before[i].labels);
    EXPECT_DOUBLE_EQ(after[i].value, before[i].value);
    EXPECT_EQ(after[i].bounds, before[i].bounds);
    EXPECT_EQ(after[i].counts, before[i].counts);
    EXPECT_EQ(after[i].overflow, before[i].overflow);
    EXPECT_EQ(after[i].count, before[i].count);
  }
  EXPECT_EQ(after[0].key(), "bytes{rank=3}");
}

}  // namespace
}  // namespace mb::obs
