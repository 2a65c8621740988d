#include "net/topology.h"

#include <gtest/gtest.h>

namespace mb::net {
namespace {

TEST(Topology, SmallClusterUsesSingleSwitch) {
  sim::ShardedEngine engine(1);
  Network net(engine);
  const auto topo = build_tree(net, tibidabo_tree(16));
  EXPECT_EQ(topo.hosts.size(), 16u);
  EXPECT_EQ(topo.leaf_switches.size(), 1u);
  // host -> switch -> host: 2 hops.
  EXPECT_EQ(net.route_hops(topo.hosts[0], topo.hosts[15]), 2u);
}

TEST(Topology, LargeClusterBuildsTwoLevels) {
  sim::ShardedEngine engine(1);
  Network net(engine);
  const auto topo = build_tree(net, tibidabo_tree(100));
  EXPECT_EQ(topo.hosts.size(), 100u);
  EXPECT_EQ(topo.leaf_switches.size(), 3u);  // ceil(100/48)
  // Same leaf: 2 hops; across leaves: host->leaf->root->leaf->host.
  EXPECT_EQ(net.route_hops(topo.hosts[0], topo.hosts[1]), 2u);
  EXPECT_EQ(net.route_hops(topo.hosts[0], topo.hosts[99]), 4u);
}

TEST(Topology, ExactlyFullSwitch) {
  sim::ShardedEngine engine(1);
  Network net(engine);
  const auto topo = build_tree(net, tibidabo_tree(48));
  EXPECT_EQ(topo.leaf_switches.size(), 1u);
  EXPECT_EQ(topo.hosts.size(), 48u);
}

TEST(Topology, TibidaboLinksAreOversubscribed) {
  const auto p = tibidabo_tree(100);
  // One GbE uplink serves up to 48 host ports.
  EXPECT_LE(p.uplink.bandwidth_bytes_per_s,
            2.0 * p.host_link.bandwidth_bytes_per_s);
  EXPECT_LT(p.host_link.buffer_bytes, 1e6);  // shallow cheap-switch buffers
}

TEST(Topology, UpgradedTreeIsFaster) {
  const auto stock = tibidabo_tree(100);
  const auto up = upgraded_tree(100);
  EXPECT_GT(up.uplink.bandwidth_bytes_per_s,
            5.0 * stock.uplink.bandwidth_bytes_per_s);
  EXPECT_LT(up.host_link.latency_s, stock.host_link.latency_s);
  EXPECT_GT(up.host_link.buffer_bytes, stock.host_link.buffer_bytes);
}

TEST(Topology, SingleNodeDegenerate) {
  sim::ShardedEngine engine(1);
  Network net(engine);
  const auto topo = build_tree(net, tibidabo_tree(1));
  EXPECT_EQ(topo.hosts.size(), 1u);
}

}  // namespace
}  // namespace mb::net
