#include "obs/rollup.h"

#include <gtest/gtest.h>

#include <limits>

#include "arch/platforms.h"
#include "obs/profile.h"
#include "support/rng.h"

namespace mb::obs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Rollup, EventQueueGaugesTrackTheCalendar) {
  sim::ShardedEngine engine(1);
  engine.configure({}, 1, kInf);
  // Three simultaneous pending events drive the high-water mark to 3.
  engine.schedule(0, 1.0, [] {});
  engine.schedule(0, 2.0, [] {});
  engine.schedule(0, 3.0, [] {});
  engine.run_all();

  Registry r;
  publish_scheduler(r, engine);
  EXPECT_DOUBLE_EQ(r.gauge("sim.events_executed").value(), 3.0);
  EXPECT_DOUBLE_EQ(r.gauge("sim.events_scheduled").value(), 3.0);
  EXPECT_DOUBLE_EQ(r.gauge("sim.calendar_depth").value(), 0.0);
  EXPECT_DOUBLE_EQ(r.gauge("sim.calendar_max_depth").value(), 3.0);
}

TEST(Rollup, OneShardPublishesNoInfiniteLookahead) {
  // One shard has no cross-shard link, so its lookahead is +infinity.
  // JSON cannot carry that (JsonWriter writes null and the profile and
  // report readers reject the document), so the gauge is left out.
  sim::ShardedEngine engine(1);
  engine.configure({}, 1, kInf);
  engine.schedule(0, 1.0, [] {});
  engine.run_all();

  Registry r;
  publish_scheduler(r, engine);
  for (const MetricSample& m : r.snapshot())
    EXPECT_NE(m.name, "sim.lookahead_s");
  EXPECT_DOUBLE_EQ(r.gauge("sim.shards").value(), 1.0);
  EXPECT_DOUBLE_EQ(r.gauge("sim.windows").value(), 1.0);
  const Profile p = capture_profile(Profiler{}, r, "mbctl", "fig4");
  EXPECT_NO_THROW(profile_from_json(to_json(p)));
}

TEST(Rollup, ShardedEnginePublishesItsLookahead) {
  sim::ShardedEngine engine(2);
  engine.configure({0, 1}, 2, 0.25);
  engine.schedule(0, 1.0, [] {});
  engine.schedule(1, 1.0, [] {});
  engine.run_all();

  Registry r;
  publish_scheduler(r, engine);
  EXPECT_DOUBLE_EQ(r.gauge("sim.lookahead_s").value(), 0.25);
  EXPECT_DOUBLE_EQ(r.gauge("sim.shards").value(), 2.0);
  EXPECT_DOUBLE_EQ(r.gauge("sim.windows").value(), 1.0);
}

TEST(Rollup, MachineGaugesCoverEveryCacheLevel) {
  sim::Machine machine(arch::snowball(), sim::PagePolicy::kConsecutive,
                       support::Rng(1));
  const auto region = machine.mmap(64 * 1024);
  for (std::uint64_t off = 0; off < 64 * 1024; off += 64)
    machine.touch(region.vaddr + off, 8, /*write=*/false);

  Registry r;
  publish_machine(r, machine);

  const std::string platform = machine.platform().name;
  const std::size_t levels = machine.hierarchy().stats().level.size();
  ASSERT_GT(levels, 0u);
  double total_accesses = 0.0;
  for (std::size_t i = 0; i < levels; ++i) {
    const Labels labels{{"level", "L" + std::to_string(i + 1)},
                        {"platform", platform}};
    total_accesses += r.gauge("cache.accesses", labels).value();
    // hits + misses partition accesses at every level.
    EXPECT_DOUBLE_EQ(r.gauge("cache.hits", labels).value() +
                         r.gauge("cache.misses", labels).value(),
                     r.gauge("cache.accesses", labels).value());
  }
  EXPECT_GT(total_accesses, 0.0);
  EXPECT_GE(r.gauge("cache.memory_bytes", {{"platform", platform}}).value(),
            0.0);
}

}  // namespace
}  // namespace mb::obs
