// Fault injection: degraded links and their effect on point-to-point and
// collective communication (the straggler pathology of real clusters).
#include <gtest/gtest.h>

#include <limits>

#include "mpi/runtime.h"
#include "net/topology.h"
#include "support/check.h"

namespace mb::net {
namespace {

struct Cluster {
  sim::ShardedEngine engine{1};
  Network net{engine};
  ClusterTopology topo;

  explicit Cluster(std::uint32_t nodes) {
    topo = build_tree(net, tibidabo_tree(nodes));
    engine.configure({}, 1, std::numeric_limits<double>::infinity());
  }
};

TEST(FaultInjection, DegradedLinkSlowsItsFlows) {
  auto healthy_time = [] {
    Cluster c(4);
    double t = -1;
    c.net.send(c.topo.hosts[0], c.topo.hosts[1], 1 << 20,
               [&] { t = c.engine.now(); });
    c.engine.run_all();
    return t;
  }();

  Cluster c(4);
  c.net.degrade_link(c.topo.hosts[0], c.topo.leaf_switches[0], 0.1, 1e-3);
  double t = -1;
  c.net.send(c.topo.hosts[0], c.topo.hosts[1], 1 << 20,
             [&] { t = c.engine.now(); });
  c.engine.run_all();
  EXPECT_GT(t, 5.0 * healthy_time);
}

TEST(FaultInjection, OtherFlowsUnaffected) {
  Cluster c(4);
  c.net.degrade_link(c.topo.hosts[0], c.topo.leaf_switches[0], 0.1, 1e-3);
  double t = -1;
  c.net.send(c.topo.hosts[2], c.topo.hosts[3], 1 << 20,
             [&] { t = c.engine.now(); });
  c.engine.run_all();
  EXPECT_LT(t, 0.1);  // the healthy pair still runs at full speed
}

TEST(FaultInjection, StragglerStallsTheWholeCollective) {
  auto makespan_with = [](bool degrade) {
    Cluster c(8);
    if (degrade)
      c.net.degrade_link(c.topo.hosts[5], c.topo.leaf_switches[0], 0.05,
                         2e-3);
    std::vector<NodeId> hosts;
    for (std::uint32_t r = 0; r < 16; ++r)
      hosts.push_back(c.topo.hosts[r / 2]);
    mpi::Runtime rt(c.engine, c.net, hosts, mpi::RuntimeConfig{}, nullptr);
    mpi::Program prog(16);
    prog.append_all(mpi::Op::allreduce(1 << 20));
    return rt.run(prog);
  };
  // One bad NIC out of eight stalls the allreduce for everyone: the
  // collective is only as fast as its slowest participant.
  EXPECT_GT(makespan_with(true), 3.0 * makespan_with(false));
}

TEST(FaultInjection, DownedLinkBlocksUntilRestored) {
  Cluster c(4);
  const NodeId host = c.topo.hosts[0];
  const NodeId leaf = c.topo.leaf_switches[0];
  c.net.set_link_state(host, leaf, false);
  c.engine.schedule(0, 1.0, [&] { c.net.set_link_state(host, leaf, true); });
  double t = -1;
  c.net.send(host, c.topo.hosts[1], 100, [&] { t = c.engine.now(); });
  c.engine.run_all();
  // The frame sat out the outage on retransmit timers; it cannot have
  // arrived before the link came back.
  EXPECT_GT(t, 1.0);
  EXPECT_LT(t, 5.0);  // ... but the capped backoff retries promptly
  EXPECT_GT(c.net.link_stats(host, leaf).down_drops, 0u);
  EXPECT_GT(c.net.link_stats(host, leaf).retransmits, 0u);
}

TEST(FaultInjection, RetransmitBackoffIsExponential) {
  // Outage of 0.5 s: the Tibidabo links retry on a 25 ms base RTO with
  // backoff 2, so the retries land at 0.025 * (1+2+4+8+16) cumulative —
  // 0.025, 0.075, 0.175, 0.375 (all still down) and 0.775 (up). Delivery
  // happens right after 0.775, on the fifth retransmit.
  Cluster c(2);
  const NodeId host = c.topo.hosts[0];
  const NodeId leaf = c.topo.leaf_switches[0];
  c.net.set_link_state(host, leaf, false);
  c.engine.schedule(0, 0.5, [&] { c.net.set_link_state(host, leaf, true); });
  double t = -1;
  c.net.send(host, c.topo.hosts[1], 100, [&] { t = c.engine.now(); });
  c.engine.run_all();
  EXPECT_GT(t, 0.775);
  EXPECT_LT(t, 0.85);
  EXPECT_EQ(c.net.link_stats(host, leaf).retransmits, 5u);
}

TEST(FaultInjection, PermanentOutageGivesUpAndReportsFailure) {
  Cluster c(2);
  const NodeId host = c.topo.hosts[0];
  const NodeId leaf = c.topo.leaf_switches[0];
  c.net.set_link_state(host, leaf, false);
  bool delivered = false;
  int failures = 0;
  c.net.send(host, c.topo.hosts[1], 100, [&] { delivered = true; },
             [&] { ++failures; });
  c.engine.run_all();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(failures, 1);  // on_failed fires exactly once
  EXPECT_GT(c.net.link_stats(host, leaf).gave_up, 0u);
}

TEST(FaultInjection, EachAbandonedMessageFiresItsOwnHook) {
  // Failure hooks wait out of line, in slots freed when their message
  // retires: three abandoned messages fire their own hooks once each, and
  // later messages reusing the slots deliver without firing any.
  Cluster c(2);
  const NodeId host = c.topo.hosts[0];
  const NodeId leaf = c.topo.leaf_switches[0];
  c.net.set_link_state(host, leaf, false);
  int fired[5] = {};
  int delivered = 0;
  for (int m = 0; m < 3; ++m)
    c.net.send(host, c.topo.hosts[1], 3000, [&] { ++delivered; },
               [&fired, m] { ++fired[m]; });
  c.engine.run_all();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(fired[0], 1);
  EXPECT_EQ(fired[1], 1);
  EXPECT_EQ(fired[2], 1);
  EXPECT_EQ(c.net.in_flight_messages(), 0u);

  c.net.set_link_state(host, leaf, true);
  for (int m = 3; m < 5; ++m)
    c.net.send(host, c.topo.hosts[1], 3000, [&] { ++delivered; },
               [&fired, m] { ++fired[m]; });
  c.engine.run_all();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(fired[3] + fired[4], 0);
  EXPECT_EQ(fired[0] + fired[1] + fired[2], 3);
}

TEST(FaultInjection, InjectedLossStillDeliversEverything) {
  Cluster c(2);
  const NodeId host = c.topo.hosts[0];
  const NodeId leaf = c.topo.leaf_switches[0];
  c.net.set_link_loss(host, leaf, 0.3, 42);
  int delivered = 0;
  const int messages = 50;
  for (int m = 0; m < messages; ++m)
    c.net.send(host, c.topo.hosts[1], 4000, [&] { ++delivered; });
  c.engine.run_all();
  EXPECT_EQ(delivered, messages);  // retransmission hides the loss
  const auto& stats = c.net.link_stats(host, leaf);
  EXPECT_GT(stats.injected_losses, 0u);
  EXPECT_GE(stats.retransmits, stats.injected_losses);
}

TEST(FaultInjection, LinkStateQueryAndValidation) {
  Cluster c(2);
  const NodeId host = c.topo.hosts[0];
  const NodeId leaf = c.topo.leaf_switches[0];
  EXPECT_TRUE(c.net.link_up(host, leaf));
  c.net.set_link_state(host, leaf, false);
  EXPECT_FALSE(c.net.link_up(host, leaf));
  EXPECT_FALSE(c.net.link_up(leaf, host));  // both directions go down
  c.net.set_link_state(host, leaf, true);
  EXPECT_TRUE(c.net.link_up(host, leaf));
  // Loss probability 1 would retransmit forever.
  EXPECT_THROW(c.net.set_link_loss(host, leaf, 1.0, 1), support::Error);
  EXPECT_THROW(c.net.set_link_loss(host, leaf, -0.1, 1), support::Error);
}

TEST(FaultInjection, Preconditions) {
  Cluster c(2);
  EXPECT_THROW(
      c.net.degrade_link(c.topo.hosts[0], c.topo.leaf_switches[0], 0.0, 0),
      support::Error);
  EXPECT_THROW(
      c.net.degrade_link(c.topo.hosts[0], c.topo.leaf_switches[0], 1.5, 0),
      support::Error);
  EXPECT_THROW(
      c.net.degrade_link(c.topo.hosts[0], c.topo.hosts[1], 1.0, 0),
      support::Error);  // not directly connected
}

}  // namespace
}  // namespace mb::net
