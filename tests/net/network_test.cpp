#include "net/network.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "support/check.h"
#include "support/units.h"

namespace mb::net {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

LinkSpec gig() {
  LinkSpec l;
  l.bandwidth_bytes_per_s = support::bits_to_bytes_per_s(1e9);
  l.latency_s = 10e-6;
  return l;
}

struct Fixture {
  Fixture() { engine.configure({}, 1, kInf); }  // the one-shard engine
  sim::ShardedEngine engine{1};
  Network net{engine};
};

TEST(Network, SingleLinkLatencyAndBandwidth) {
  Fixture f;
  const NodeId a = f.net.add_node("a", false);
  const NodeId b = f.net.add_node("b", false);
  f.net.add_link(a, b, gig());
  f.net.finalize_routes();

  double delivered = -1;
  f.net.send(a, b, 1000, [&] { delivered = f.engine.now(); });
  f.engine.run_all();
  // One frame: (1000+38 overhead bytes) / 125e6 B/s + 10us latency.
  EXPECT_NEAR(delivered, 1038.0 / 125e6 + 10e-6, 1e-9);
}

TEST(Network, MultiFrameMessagePipelines) {
  Fixture f;
  const NodeId a = f.net.add_node("a", false);
  const NodeId b = f.net.add_node("b", false);
  f.net.add_link(a, b, gig());
  f.net.finalize_routes();

  double delivered = -1;
  const std::uint64_t bytes = 10 * Network::kMtuBytes;
  f.net.send(a, b, bytes, [&] { delivered = f.engine.now(); });
  f.engine.run_all();
  // Frames serialize on the link: ~10 frame times + one latency.
  const double frame_t = (1500.0 + 38) / 125e6;
  EXPECT_NEAR(delivered, 10 * frame_t + 10e-6, frame_t * 0.2);
}

TEST(Network, TwoHopStoreAndForward) {
  Fixture f;
  const NodeId a = f.net.add_node("a", false);
  const NodeId sw = f.net.add_node("sw", true);
  const NodeId b = f.net.add_node("b", false);
  f.net.add_link(a, sw, gig());
  f.net.add_link(sw, b, gig());
  f.net.finalize_routes();
  EXPECT_EQ(f.net.route_hops(a, b), 2u);

  double delivered = -1;
  f.net.send(a, b, 100, [&] { delivered = f.engine.now(); });
  f.engine.run_all();
  const double frame_t = 138.0 / 125e6;
  EXPECT_NEAR(delivered, 2 * frame_t + 2 * 10e-6, 1e-9);
}

TEST(Network, OutputPortContentionSerializes) {
  // Two senders to one receiver: the receiver's link serializes.
  Fixture f;
  const NodeId s1 = f.net.add_node("s1", false);
  const NodeId s2 = f.net.add_node("s2", false);
  const NodeId sw = f.net.add_node("sw", true);
  const NodeId d = f.net.add_node("d", false);
  for (NodeId n : {s1, s2}) f.net.add_link(n, sw, gig());
  f.net.add_link(sw, d, gig());
  f.net.finalize_routes();

  const std::uint64_t bytes = 100 * Network::kMtuBytes;
  double t1 = -1, t2 = -1;
  f.net.send(s1, d, bytes, [&] { t1 = f.engine.now(); });
  f.net.send(s2, d, bytes, [&] { t2 = f.engine.now(); });
  f.engine.run_all();

  // Compare with a single flow of the same size.
  Fixture g;
  const NodeId a = g.net.add_node("a", false);
  const NodeId gsw = g.net.add_node("sw", true);
  const NodeId b = g.net.add_node("b", false);
  g.net.add_link(a, gsw, gig());
  g.net.add_link(gsw, b, gig());
  g.net.finalize_routes();
  double solo = -1;
  g.net.send(a, b, bytes, [&] { solo = g.engine.now(); });
  g.engine.run_all();

  EXPECT_GT(std::max(t1, t2), 1.8 * solo);
  const auto& stats = f.net.link_stats(sw, d);
  EXPECT_GT(stats.queued_s, 0.0);
}

TEST(Network, BufferOverflowDropsAndRetransmits) {
  Fixture f;
  const NodeId s1 = f.net.add_node("s1", false);
  const NodeId s2 = f.net.add_node("s2", false);
  const NodeId sw = f.net.add_node("sw", true);
  const NodeId d = f.net.add_node("d", false);
  LinkSpec host = gig();
  for (NodeId n : {s1, s2}) f.net.add_link(n, sw, host);
  LinkSpec tiny = gig();
  tiny.buffer_bytes = 8 * 1024;  // overflows quickly
  tiny.retransmit_timeout_s = 0.01;
  f.net.add_link(sw, d, tiny);
  f.net.finalize_routes();

  const std::uint64_t bytes = 200 * Network::kMtuBytes;
  int done = 0;
  f.net.send(s1, d, bytes, [&] { ++done; });
  f.net.send(s2, d, bytes, [&] { ++done; });
  const double end = f.engine.run_all();
  EXPECT_EQ(done, 2);
  EXPECT_GT(f.net.link_stats(sw, d).drops, 0u);
  EXPECT_GT(end, 0.01);  // at least one retransmit timeout elapsed
}

TEST(Network, NoDropsWithDeepBuffers) {
  Fixture f;
  const NodeId s1 = f.net.add_node("s1", false);
  const NodeId sw = f.net.add_node("sw", true);
  const NodeId d = f.net.add_node("d", false);
  f.net.add_link(s1, sw, gig());
  f.net.add_link(sw, d, gig());
  f.net.finalize_routes();
  int done = 0;
  f.net.send(s1, d, 1000 * Network::kMtuBytes, [&] { ++done; });
  f.engine.run_all();
  EXPECT_EQ(done, 1);
  EXPECT_EQ(f.net.link_stats(sw, d).drops, 0u);
}

TEST(Network, LoopbackDeliversImmediately) {
  Fixture f;
  const NodeId a = f.net.add_node("a", false);
  const NodeId b = f.net.add_node("b", false);
  f.net.add_link(a, b, gig());
  f.net.finalize_routes();
  double t = -1;
  f.net.send(a, a, 1 << 20, [&] { t = f.engine.now(); });
  f.engine.run_all();
  EXPECT_DOUBLE_EQ(t, 0.0);
}

TEST(Network, ZeroByteMessageStillOneFrame) {
  Fixture f;
  const NodeId a = f.net.add_node("a", false);
  const NodeId b = f.net.add_node("b", false);
  f.net.add_link(a, b, gig());
  f.net.finalize_routes();
  double t = -1;
  f.net.send(a, b, 0, [&] { t = f.engine.now(); });
  f.engine.run_all();
  EXPECT_GT(t, 0.0);
}

TEST(Network, RejectsMessagesOf2To32FramesBeforeScheduling) {
  // A message counts its frames in 32 bits: at MTU 64 a 2^38-byte send is
  // 2^32 frames, rejected before a single frame (or hook) is queued.
  sim::ShardedEngine engine{1};
  engine.configure({}, 1, kInf);
  Network net{engine, 64};
  const NodeId a = net.add_node("a", false);
  const NodeId b = net.add_node("b", false);
  net.add_link(a, b, gig());
  net.finalize_routes();
  int delivered = 0;
  int failed = 0;
  EXPECT_THROW(net.send(a, b, std::uint64_t{1} << 38, [&] { ++delivered; },
                        [&] { ++failed; }),
               support::Error);
  EXPECT_EQ(engine.stats().pending, 0u);
  EXPECT_EQ(engine.stats().scheduled, 0u);
  EXPECT_EQ(net.in_flight_messages(), 0u);
  // The network is untouched: the next message goes through.
  net.send(a, b, 640, [&] { ++delivered; }, [&] { ++failed; });
  engine.run_all();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(net.in_flight_messages(), 0u);
}

TEST(Network, RetransmitBudgetFitsThirtyOneBits) {
  Fixture f;
  const NodeId a = f.net.add_node("a", false);
  const NodeId b = f.net.add_node("b", false);
  const NodeId c = f.net.add_node("c", false);
  LinkSpec spec = gig();
  spec.max_retransmits = 1u << 31;
  f.net.add_link(a, b, spec);
  spec.max_retransmits = (1u << 31) + 1;
  EXPECT_THROW(f.net.add_link(a, c, spec), support::Error);
}

TEST(Network, Preconditions) {
  Fixture f;
  const NodeId a = f.net.add_node("a", false);
  EXPECT_THROW(f.net.add_link(a, a, gig()), support::Error);
  EXPECT_THROW(f.net.send(a, a, 1, [] {}), support::Error);  // not routed
  const NodeId b = f.net.add_node("b", false);
  f.net.add_link(a, b, gig());
  f.net.finalize_routes();
  EXPECT_THROW(f.net.add_node("late", false), support::Error);
}

}  // namespace
}  // namespace mb::net
