#include "mpi/runtime.h"

#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "net/topology.h"
#include "obs/metrics.h"
#include "support/check.h"
#include "support/units.h"

namespace mb::mpi {
namespace {

struct Harness {
  sim::ShardedEngine engine{1};
  net::Network network{engine};
  net::ClusterTopology topo;
  trace::Trace trace;

  explicit Harness(std::uint32_t nodes) {
    net::TreeParams params = net::tibidabo_tree(nodes);
    topo = net::build_tree(network, params);
    engine.configure({}, 1, std::numeric_limits<double>::infinity());
  }

  /// Runs with every record captured, then drains them into `trace`.
  double run(const Program& program, std::uint32_t ranks_per_node = 1) {
    std::vector<net::NodeId> rank_to_host;
    for (std::uint32_t r = 0; r < program.ranks(); ++r)
      rank_to_host.push_back(topo.hosts[r / ranks_per_node]);
    trace::SinkConfig keep_all;
    keep_all.ring_capacity = 0;
    trace::StreamingSink sink(program.ranks(), keep_all);
    Runtime rt(engine, network, rank_to_host, RuntimeConfig{}, &sink);
    const double makespan = rt.run(program);
    sink.drain(trace);
    return makespan;
  }
};

TEST(Runtime, ComputeOnlyMakespanIsMaxOverRanks) {
  Harness h(2);
  Program p(2);
  p.rank(0).push_back(Op::compute(1.0));
  p.rank(1).push_back(Op::compute(2.5));
  EXPECT_NEAR(h.run(p), 2.5, 1e-12);
}

TEST(Runtime, SendRecvTransfersAcrossNetwork) {
  Harness h(2);
  Program p(2);
  p.rank(0).push_back(Op::send(1, 1 << 20, 7));
  p.rank(1).push_back(Op::recv(0, 7));
  const double makespan = h.run(p);
  // 1 MB at 0.7 Gb/s host links (~87.5 MB/s): ~12 ms with frames
  // pipelining across the two hops.
  EXPECT_GT(makespan, 0.01);
  EXPECT_LT(makespan, 0.1);
}

TEST(Runtime, RecvBeforeSendStillCompletes) {
  Harness h(2);
  Program p(2);
  p.rank(1).push_back(Op::recv(0, 3));
  p.rank(0).push_back(Op::compute(0.1));
  p.rank(0).push_back(Op::send(1, 100, 3));
  EXPECT_GT(h.run(p), 0.1);
}

TEST(Runtime, IntraNodeMessagesBypassNetwork) {
  Harness h(1);
  Program p(2);
  p.rank(0).push_back(Op::send(1, 1 << 20, 1));
  p.rank(1).push_back(Op::recv(0, 1));
  const double makespan = h.run(p, /*ranks_per_node=*/2);
  // Memory-speed transfer: well under a millisecond for 1 MB.
  EXPECT_LT(makespan, 2e-3);
}

TEST(Runtime, MessageOrderingFifoPerKey) {
  Harness h(2);
  Program p(2);
  p.rank(0).push_back(Op::send(1, 100, 5));
  p.rank(0).push_back(Op::send(1, 100, 5));
  p.rank(1).push_back(Op::recv(0, 5));
  p.rank(1).push_back(Op::recv(0, 5));
  EXPECT_NO_THROW(h.run(p));
}

TEST(Runtime, TagMismatchDeadlocks) {
  Harness h(2);
  Program p(2);
  p.rank(0).push_back(Op::send(1, 100, 1));
  p.rank(1).push_back(Op::recv(0, 2));  // wrong tag
  EXPECT_THROW(h.run(p), support::Error);
}

TEST(Runtime, VerifierNamesTheFailureBeforeExecution) {
  // With verification on (the default), the pre-run pass replaces the
  // opaque end-of-simulation deadlock failure with a diagnostic naming
  // the rule and the blocked (rank, op).
  Harness h(2);
  Program p(2);
  p.rank(0).push_back(Op::send(1, 100, 1));
  p.rank(1).push_back(Op::recv(0, 2));  // wrong tag
  try {
    h.run(p);
    FAIL() << "expected support::Error";
  } catch (const support::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("MPI002"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1 op 0"), std::string::npos) << what;
  }
}

TEST(Runtime, VerifyOptOutFallsBackToRuntimeDeadlockCheck) {
  Harness h(2);
  Program p(2);
  p.rank(0).push_back(Op::send(1, 100, 1));
  p.rank(1).push_back(Op::recv(0, 2));  // wrong tag
  std::vector<net::NodeId> hosts{h.topo.hosts[0], h.topo.hosts[1]};
  RuntimeConfig config;
  config.verify = false;
  Runtime rt(h.engine, h.network, hosts, config, nullptr);
  try {
    rt.run(p);
    FAIL() << "expected support::Error";
  } catch (const support::Error& e) {
    // The event loop drains and only then reports — no rule id available.
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
    EXPECT_EQ(what.find("MPI002"), std::string::npos) << what;
  }
}

TEST(Runtime, BarrierSynchronizesRanks) {
  Harness h(4);
  Program p(4);
  for (std::uint32_t r = 0; r < 4; ++r)
    p.rank(r).push_back(Op::compute(0.1 * (r + 1)));
  p.append_all(Op::barrier());
  p.append_all(Op::compute(0.05));
  const double makespan = h.run(p);
  // Slowest pre-barrier rank: 0.4; then barrier + 0.05.
  EXPECT_GT(makespan, 0.45);
  EXPECT_LT(makespan, 0.6);
}

TEST(Runtime, BcastDeliversToAllRanks) {
  Harness h(8);
  Program p(8);
  p.append_all(Op::bcast(2, 64 * 1024));
  EXPECT_NO_THROW(h.run(p));
  // Every rank but the root recorded the collective.
  const auto recs = h.trace.filter(trace::EventKind::kCollective, "bcast");
  EXPECT_EQ(recs.size(), 8u);
}

TEST(Runtime, AllreduceCompletes) {
  Harness h(6);
  Program p(6);
  p.append_all(Op::allreduce(1 << 16));
  EXPECT_NO_THROW(h.run(p));
}

TEST(Runtime, AlltoallvCompletesAndTraces) {
  Harness h(6);
  Program p(6);
  p.append_all(Op::alltoallv(std::vector<std::uint64_t>(6, 32 * 1024)));
  EXPECT_NO_THROW(h.run(p));
  EXPECT_EQ(h.trace.filter(trace::EventKind::kCollective, "alltoallv").size(),
            6u);
}

TEST(Runtime, CollectiveOrderingRequirementHolds) {
  // Two consecutive collectives must not cross-match tags.
  Harness h(4);
  Program p(4);
  p.append_all(Op::allreduce(1024));
  p.append_all(Op::allreduce(1024));
  p.append_all(Op::bcast(0, 2048));
  EXPECT_NO_THROW(h.run(p));
}

TEST(Runtime, ComputeIsTraced) {
  Harness h(2);
  Program p(2);
  p.append_all(Op::compute(0.5, "work"));
  h.run(p);
  const auto recs = h.trace.filter(trace::EventKind::kCompute, "work");
  EXPECT_EQ(recs.size(), 2u);
  EXPECT_NEAR(recs[0].duration(), 0.5, 1e-12);
}

TEST(Runtime, PublishesTrafficAndTimeMetrics) {
  // The runtime feeds the global registry; start from a pristine one so
  // other tests' runs in this process don't interfere.
  obs::Registry& registry = obs::metrics();
  registry.reset_for_test();

  Harness h(2);
  Program p(2);
  p.rank(0).push_back(Op::compute(0.1));
  p.rank(0).push_back(Op::send(1, 1 << 16, 7));
  p.rank(1).push_back(Op::recv(0, 7));  // posted early: rank 1 waits
  h.run(p);

  EXPECT_DOUBLE_EQ(
      registry.counter("mpi.bytes_sent", {{"rank", "0"}}).value(),
      static_cast<double>(1 << 16));
  EXPECT_DOUBLE_EQ(
      registry.counter("mpi.bytes_received", {{"rank", "1"}}).value(),
      static_cast<double>(1 << 16));
  EXPECT_GT(registry.counter("mpi.time_s", {{"kind", "p2p"}}).value(), 0.0);
  // Rank 1 blocked from t=0 until the message landed after rank 0's
  // 0.1 s compute: at least that much wait time was accounted.
  EXPECT_GT(registry.counter("mpi.time_s", {{"kind", "wait"}}).value(), 0.1);
  EXPECT_DOUBLE_EQ(
      registry.counter("mpi.time_s", {{"kind", "collective"}}).value(), 0.0);
}

TEST(Runtime, CollectiveTimeAccountedToCollectiveCounter) {
  obs::Registry& registry = obs::metrics();
  registry.reset_for_test();
  Harness h(2);
  Program p(2);
  for (std::uint32_t r = 0; r < 2; ++r)
    p.rank(r).push_back(Op::alltoallv({1 << 16, 1 << 16}));
  h.run(p);
  EXPECT_GT(
      registry.counter("mpi.time_s", {{"kind", "collective"}}).value(), 0.0);
}

TEST(Runtime, CrashedPeerYieldsStructuredFailureReport) {
  Harness h(2);
  std::vector<net::NodeId> hosts{h.topo.hosts[0], h.topo.hosts[1]};
  RuntimeConfig config;
  config.recv_timeout_s = 0.5;
  Runtime rt(h.engine, h.network, hosts, config, nullptr);
  Program p(2);
  p.rank(0).push_back(Op::recv(1, 5));
  p.rank(1).push_back(Op::compute(0.2));
  p.rank(1).push_back(Op::send(0, 1000, 5));
  h.engine.schedule(0, 0.1, [&] { rt.crash_rank(1); });

  const RunOutcome outcome = rt.run_outcome(p);
  EXPECT_FALSE(outcome.completed);
  ASSERT_EQ(outcome.failure.dead_ranks.size(), 1u);
  EXPECT_EQ(outcome.failure.dead_ranks[0], 1u);
  // Rank 0 blocked at t=0 on recv(peer=1, tag=5); the detector declares
  // it dead at wait_start + recv_timeout.
  ASSERT_EQ(outcome.failure.blocked.size(), 1u);
  EXPECT_EQ(outcome.failure.blocked[0].rank, 0u);
  EXPECT_EQ(outcome.failure.blocked[0].peer, 1u);
  EXPECT_EQ(outcome.failure.blocked[0].tag, 5);
  EXPECT_TRUE(outcome.failure.blocked[0].timed_out);
  EXPECT_NEAR(outcome.failure.detected_s, 0.5, 1e-9);
  // The throwing entry point renders the same report.
  const std::string rendered = outcome.failure.to_string();
  EXPECT_NE(rendered.find("dead ranks: 1"), std::string::npos);
  EXPECT_NE(rendered.find("rank 0 blocked on recv(peer=1"),
            std::string::npos);
}

TEST(Runtime, SendRetryRecoversFromTransientOutage) {
  Harness h(2);
  std::vector<net::NodeId> hosts{h.topo.hosts[0], h.topo.hosts[1]};
  RuntimeConfig config;
  config.max_send_retries = 3;
  config.send_retry_base_s = 5.0;
  obs::metrics().reset_for_test();
  Runtime rt(h.engine, h.network, hosts, config, nullptr);

  // The host link is down long enough for the network to exhaust its
  // per-frame retransmit budget and abandon the message; the runtime's
  // send retry re-posts it once the link is back.
  h.network.set_link_state(h.topo.hosts[0], h.topo.leaf_switches[0], false);
  h.engine.schedule(0, 60.0, [&] {
    h.network.set_link_state(h.topo.hosts[0], h.topo.leaf_switches[0],
                             true);
  });
  Program p(2);
  p.rank(0).push_back(Op::send(1, 1000, 9));
  p.rank(1).push_back(Op::recv(0, 9));

  const RunOutcome outcome = rt.run_outcome(p);
  EXPECT_TRUE(outcome.completed);
  EXPECT_GT(outcome.makespan_s, 60.0);  // waited out the outage
  EXPECT_GE(obs::metrics().counter("mpi.retries").value(), 1.0);
}

TEST(Runtime, SlowdownStretchesSubsequentCompute) {
  Harness h(2);
  std::vector<net::NodeId> hosts{h.topo.hosts[0], h.topo.hosts[1]};
  Runtime rt(h.engine, h.network, hosts, RuntimeConfig{}, nullptr);
  Program p(2);
  p.rank(0).push_back(Op::compute(0.1));
  p.rank(0).push_back(Op::compute(1.0));
  // Fires between the two ops: only the second is stretched (Fig. 5
  // degraded mode, ~5x slower).
  h.engine.schedule(0, 0.05, [&] { rt.set_rank_slowdown(0, 5.0); });

  EXPECT_NEAR(rt.run(p), 0.1 + 5.0, 1e-9);
  EXPECT_THROW(rt.set_rank_slowdown(0, 0.5), support::Error);  // < 1
  EXPECT_THROW(rt.set_rank_slowdown(99, 2.0), support::Error);
}

TEST(Runtime, RanksMismatchRejected) {
  Harness h(2);
  Program p(3);
  std::vector<net::NodeId> hosts{h.topo.hosts[0], h.topo.hosts[1]};
  Runtime rt(h.engine, h.network, hosts, RuntimeConfig{}, nullptr);
  EXPECT_THROW(rt.run(p), support::Error);
}

TEST(Runtime, RankOnSwitchRejected) {
  Harness h(2);
  std::vector<net::NodeId> hosts{h.topo.root_switch};
  EXPECT_THROW(Runtime(h.engine, h.network, hosts, RuntimeConfig{}, nullptr),
               support::Error);
}

}  // namespace
}  // namespace mb::mpi
