// Conservative-lookahead engine: determinism across worker counts, the
// lookahead safety check, window accounting and configuration guards.
#include "sim/sharded.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "support/check.h"

namespace mb::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ShardedEngine, SingleShardRunsLikeSerialEngine) {
  // One shard owns every node, so its node map may be left empty.
  ShardedEngine engine(4);
  engine.configure({}, 1, kInf);
  std::vector<int> order;
  engine.schedule(2, 2.0, [&] { order.push_back(2); });
  engine.schedule(0, 1.0, [&] {
    order.push_back(1);
    engine.schedule(1, engine.now() + 0.5, [&] { order.push_back(3); });
  });
  const double end = engine.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(end, 2.0);
  EXPECT_EQ(engine.now(), 2.0);
  EXPECT_EQ(engine.shards(), 1u);
  EXPECT_EQ(engine.windows(), 1u);  // unbounded lookahead: one window
  EXPECT_EQ(engine.workers(), 1u);
  EXPECT_EQ(engine.shard_of(7), 0u);
  EXPECT_EQ(engine.stats().executed, 3u);
  EXPECT_EQ(engine.stats().scheduled, 3u);
}

/// Cross-shard ping-pong: node 0 lives in shard 0, node 1 in shard 1,
/// lookahead L. Each hop schedules the next at exactly now + L — the
/// tightest legal cross-shard event. The per-shard logs must come out
/// identical for every worker count (each shard's log is only ever
/// touched by its owning worker, so recording is race-free).
std::pair<std::vector<double>, std::vector<double>> ping_pong(
    std::uint32_t jobs, int hops) {
  constexpr double kLookahead = 1e-3;
  ShardedEngine engine(jobs);
  engine.configure({0, 1}, 2, kLookahead);
  std::vector<double> log0;
  std::vector<double> log1;
  // SmallFn is not recursive-friendly through std::function; drive the
  // chain with a self-scheduling struct instead.
  struct Bouncer {
    ShardedEngine& engine;
    std::vector<double>& log0;
    std::vector<double>& log1;
    int remaining;
    void hop(std::uint32_t node, double at) {
      engine.schedule(node, at, [this, node] {
        (node == 0 ? log0 : log1).push_back(engine.now());
        if (--remaining > 0) hop(node ^ 1, engine.now() + kLookahead);
      });
    }
  };
  Bouncer bouncer{engine, log0, log1, hops};
  bouncer.hop(0, 0.0);
  engine.run_all();
  EXPECT_EQ(log0.size() + log1.size(), static_cast<std::size_t>(hops));
  EXPECT_GT(engine.windows(), 0u);
  EXPECT_EQ(engine.workers(), std::min(jobs, 2u));
  return {log0, log1};
}

TEST(ShardedEngine, CrossShardPingPongIdenticalAcrossWorkerCounts) {
  const auto serial = ping_pong(1, 64);
  for (const std::uint32_t jobs : {2u, 4u, 8u}) {
    const auto parallel = ping_pong(jobs, 64);
    EXPECT_EQ(parallel.first, serial.first) << "jobs=" << jobs;
    EXPECT_EQ(parallel.second, serial.second) << "jobs=" << jobs;
  }
}

TEST(ShardedEngine, CrossShardScheduleInsideLookaheadWindowThrows) {
  ShardedEngine engine(2);
  engine.configure({0, 1}, 2, 1.0);
  engine.schedule(0, 0.0, [&] {
    // A model bug: reaching into the other shard sooner than any
    // cross-shard link could deliver. The engine must fail loudly, not
    // silently misorder.
    engine.schedule(1, engine.now() + 0.25, [] {});
  });
  EXPECT_THROW(engine.run_all(), support::Error);
}

TEST(ShardedEngine, StatsSumOverShards) {
  ShardedEngine engine(2);
  engine.configure({0, 1}, 2, 0.5);
  // The two shards run on different workers, so the shared counter must
  // be atomic (relaxed is enough: run_all() joins before the read).
  std::atomic<int> fired{0};
  for (std::uint32_t node = 0; node < 2; ++node) {
    engine.schedule(node, 0.1,
                    [&fired] { fired.fetch_add(1, std::memory_order_relaxed); });
    engine.schedule(node, 0.2,
                    [&fired] { fired.fetch_add(1, std::memory_order_relaxed); });
  }
  engine.run_all();
  EXPECT_EQ(fired.load(), 4);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.executed, 4u);
  EXPECT_EQ(stats.scheduled, 4u);
}

TEST(ShardedEngine, ConfigureGuards) {
  ShardedEngine engine(2);
  EXPECT_THROW(engine.run_all(), support::Error);  // not configured
  EXPECT_THROW(engine.configure({0}, 1, 0.0), support::Error);
  EXPECT_THROW(engine.configure({3}, 2, 1.0), support::Error);
  engine.configure({0, 1}, 2, 1.0);
  EXPECT_THROW(engine.configure({0, 1}, 2, 1.0), support::Error);
  EXPECT_EQ(engine.shard_of(1), 1u);
  EXPECT_THROW(engine.shard_of(7), support::Error);
}

}  // namespace
}  // namespace mb::sim
