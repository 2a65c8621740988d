#include "obs/timeseries.h"

#include <gtest/gtest.h>

#include <limits>

#include "sim/sharded.h"
#include "support/check.h"

namespace mb::obs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(TimeSampler, SamplesOnSimTimeGridAndStops) {
  sim::ShardedEngine engine(1);
  engine.configure({}, 1, kInf);
  int work = 0;
  // Work events at 0.05 s intervals keep the engine busy until t = 0.5.
  for (int i = 1; i <= 10; ++i)
    engine.schedule(0, 0.05 * i, [&work] { ++work; });

  TimeSampler sampler;
  sampler.add_probe("work.done",
                    [&work] { return static_cast<double>(work); });
  sampler.arm(engine, 0.1);
  engine.run_all();

  EXPECT_EQ(work, 10);
  const TimeSeries ts = sampler.take();
  ASSERT_GE(ts.times_s.size(), 5u);
  EXPECT_DOUBLE_EQ(ts.times_s.front(), 0.1);
  ASSERT_EQ(ts.series.size(), 1u);
  EXPECT_EQ(ts.series[0].name, "work.done");
  // At t=0.1 two work events (0.05, 0.10) have fired; monotone after.
  EXPECT_DOUBLE_EQ(ts.series[0].values.front(), 2.0);
  for (std::size_t i = 1; i < ts.series[0].values.size(); ++i)
    EXPECT_GE(ts.series[0].values[i], ts.series[0].values[i - 1]);
  // The sampler did not hold the loop open much past the last event.
  EXPECT_LE(ts.times_s.back(), 0.5 + 0.1 + 1e-9);
}

TEST(TimeSampler, MaxSamplesBoundsMemory) {
  sim::ShardedEngine engine(1);
  engine.configure({}, 1, kInf);
  for (int i = 1; i <= 100; ++i)
    engine.schedule(0, 0.1 * i, [] {});
  TimeSampler sampler;
  sampler.add_probe("x", [] { return 1.0; });
  sampler.arm(engine, 0.1, /*max_samples=*/5);
  engine.run_all();
  EXPECT_EQ(sampler.samples(), 5u);
}

TEST(TimeSampler, ProbesMustPrecedeArm) {
  sim::ShardedEngine engine(1);
  engine.configure({}, 1, kInf);
  TimeSampler sampler;
  sampler.add_probe("x", [] { return 0.0; });
  sampler.arm(engine, 0.5);
  EXPECT_THROW(sampler.add_probe("y", [] { return 0.0; }),
               support::Error);
  EXPECT_THROW(sampler.arm(engine, 0.5), support::Error);
}

TEST(TimeSampler, RefusesAMultiShardEngine) {
  // Probes read global state that no shard owns once the run is split.
  sim::ShardedEngine engine(2);
  engine.configure({0, 1}, 2, 1e-3);
  TimeSampler sampler;
  EXPECT_THROW(sampler.arm(engine, 0.5), support::Error);
}

TEST(TimeSeries, JsonRoundTrip) {
  TimeSeries ts;
  ts.tool_version = "1.0.0";
  ts.seed = 9;
  ts.interval_s = 0.25;
  ts.times_s = {0.25, 0.5};
  Series s;
  s.name = "net.link.retransmits";
  s.labels = {{"link", "0->18"}};
  s.values = {0.0, 3.0};
  ts.series.push_back(s);

  const TimeSeries back = timeseries_from_json(to_json(ts));
  EXPECT_EQ(back.tool_version, "1.0.0");
  EXPECT_EQ(back.seed, 9u);
  EXPECT_DOUBLE_EQ(back.interval_s, 0.25);
  EXPECT_EQ(back.times_s, ts.times_s);
  ASSERT_EQ(back.series.size(), 1u);
  EXPECT_EQ(back.series[0].name, "net.link.retransmits");
  EXPECT_EQ(back.series[0].labels, ts.series[0].labels);
  EXPECT_EQ(back.series[0].values, ts.series[0].values);
}

TEST(TimeSeries, FromJsonValidates) {
  EXPECT_THROW(timeseries_from_json("{\"schema\":\"nope\"}"),
               support::Error);
  EXPECT_THROW(
      timeseries_from_json(
          "{\"schema\":\"mb-timeseries\",\"schema_version\":99}"),
      support::Error);
}

TEST(PruneSeries, KeepsTopByFinalValueDropsZeros) {
  TimeSeries ts;
  ts.times_s = {1.0};
  const auto add = [&ts](std::string name, double final_value) {
    Series s;
    s.name = std::move(name);
    s.values = {final_value};
    ts.series.push_back(std::move(s));
  };
  add("sim.pending_events", 5.0);  // prefix mismatch: always kept
  add("net.link.a", 10.0);
  add("net.link.b", 0.0);  // all-zero: always dropped
  add("net.link.c", 30.0);
  add("net.link.d", 20.0);

  prune_series(ts, "net.link.", 2);
  ASSERT_EQ(ts.series.size(), 3u);
  EXPECT_EQ(ts.series[0].name, "sim.pending_events");
  EXPECT_EQ(ts.series[1].name, "net.link.c");
  EXPECT_EQ(ts.series[2].name, "net.link.d");
}

}  // namespace
}  // namespace mb::obs
