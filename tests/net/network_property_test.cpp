// Property sweeps over the network simulator: message conservation and
// timing sanity under randomized traffic on every topology size.
#include <gtest/gtest.h>

#include <limits>

#include "net/topology.h"
#include "support/rng.h"

namespace mb::net {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

class TopologySweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TopologySweep, EveryMessageDeliveredExactlyOnce) {
  const std::uint32_t nodes = GetParam();
  sim::ShardedEngine engine(1);
  Network net(engine);
  const auto topo = build_tree(net, tibidabo_tree(nodes));
  engine.configure({}, 1, kInf);

  support::Rng rng(nodes);
  const int messages = 200;
  int delivered = 0;
  for (int m = 0; m < messages; ++m) {
    const NodeId src = topo.hosts[rng.index(nodes)];
    NodeId dst = topo.hosts[rng.index(nodes)];
    const std::uint64_t bytes = rng.uniform_u64(0, 64 * 1024);
    net.send(src, dst, bytes, [&delivered] { ++delivered; });
  }
  engine.run_all();
  EXPECT_EQ(delivered, messages);
}

TEST_P(TopologySweep, RoutesAreSymmetricInHops) {
  const std::uint32_t nodes = GetParam();
  sim::ShardedEngine engine(1);
  Network net(engine);
  const auto topo = build_tree(net, tibidabo_tree(nodes));
  support::Rng rng(nodes * 7);
  for (int i = 0; i < 50; ++i) {
    const NodeId a = topo.hosts[rng.index(nodes)];
    const NodeId b = topo.hosts[rng.index(nodes)];
    EXPECT_EQ(net.route_hops(a, b), net.route_hops(b, a));
    if (a != b) {
      EXPECT_GE(net.route_hops(a, b), 2u);  // at least host-switch-host
      EXPECT_LE(net.route_hops(a, b), 4u);  // two-level tree bound
    }
  }
}

TEST_P(TopologySweep, LargerMessagesNeverArriveEarlier) {
  const std::uint32_t nodes = GetParam();
  if (nodes < 2) return;
  // On an otherwise idle network, delivery time is monotone in size.
  double prev = 0.0;
  for (const std::uint64_t bytes : {1024ull, 64ull * 1024, 1ull << 20}) {
    sim::ShardedEngine engine(1);
    Network net(engine);
    const auto topo = build_tree(net, tibidabo_tree(nodes));
    engine.configure({}, 1, kInf);
    double t = -1;
    net.send(topo.hosts[0], topo.hosts[nodes - 1], bytes,
             [&] { t = engine.now(); });
    engine.run_all();
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST_P(TopologySweep, LinkStatsConserveBytes) {
  const std::uint32_t nodes = GetParam();
  if (nodes < 2) return;
  sim::ShardedEngine engine(1);
  Network net(engine);
  const auto topo = build_tree(net, tibidabo_tree(nodes));
  engine.configure({}, 1, kInf);
  const std::uint64_t bytes = 100 * 1000;
  int done = 0;
  net.send(topo.hosts[0], topo.hosts[1], bytes, [&] { ++done; });
  engine.run_all();
  // First hop carries every payload byte exactly once (no drops expected
  // for a single flow).
  const auto& s = net.link_stats(topo.hosts[0], topo.leaf_switches[0]);
  EXPECT_EQ(s.bytes, bytes);
  EXPECT_EQ(s.drops, 0u);
}

TEST_P(TopologySweep, ByteConservationUnderLoss) {
  const std::uint32_t nodes = GetParam();
  if (nodes < 2) return;
  sim::ShardedEngine engine(1);
  Network net(engine);
  const auto topo = build_tree(net, tibidabo_tree(nodes));
  engine.configure({}, 1, kInf);

  // Every host link is lossy; retransmission must still deliver every
  // message exactly once, with every payload byte intact.
  const net::TreeParams params = tibidabo_tree(nodes);
  auto leaf_of = [&](std::uint32_t n) {
    return topo.leaf_switches[n / params.switch_ports];
  };
  support::Rng rng(nodes * 13 + 1);
  for (std::uint32_t n = 0; n < nodes; ++n)
    net.set_link_loss(topo.hosts[n], leaf_of(n), 0.1, 1000 + n);

  const int messages = 100;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
  int delivered = 0;
  for (int m = 0; m < messages; ++m) {
    const NodeId src = topo.hosts[rng.index(nodes)];
    const NodeId dst = topo.hosts[rng.index(nodes)];
    const std::uint64_t bytes = rng.uniform_u64(1, 16 * 1024);
    bytes_sent += bytes;
    net.send(src, dst, bytes, [&delivered, &bytes_delivered, bytes] {
      ++delivered;
      bytes_delivered += bytes;
    });
  }
  engine.run_all();
  EXPECT_EQ(delivered, messages);
  EXPECT_EQ(bytes_delivered, bytes_sent);

  // The loss actually bit: at 10% per frame, some injected losses (and a
  // matching or larger number of retransmits) must have occurred.
  std::uint64_t losses = 0;
  std::uint64_t retransmits = 0;
  for (std::uint32_t n = 0; n < nodes; ++n) {
    const NodeId leaf = leaf_of(n);
    losses += net.link_stats(topo.hosts[n], leaf).injected_losses;
    losses += net.link_stats(leaf, topo.hosts[n]).injected_losses;
    retransmits += net.link_stats(topo.hosts[n], leaf).retransmits;
    retransmits += net.link_stats(leaf, topo.hosts[n]).retransmits;
  }
  EXPECT_GT(losses, 0u);
  EXPECT_GE(retransmits, losses);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TopologySweep,
                         ::testing::Values(1u, 2u, 3u, 8u, 48u, 49u, 100u),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace mb::net
