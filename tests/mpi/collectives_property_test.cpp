// Property sweeps over collective schedules: for every collective kind and
// every rank count, the lowered point-to-point schedule must be complete
// (every receive matched by a send) and actually executable end to end.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <tuple>

#include "mpi/runtime.h"
#include "support/check.h"
#include "net/topology.h"

namespace mb::mpi {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

enum class Coll { kBarrier, kBcast, kAllreduce, kAlltoallv, kGather, kScatter, kAllgather, kReduce };

const char* name_of(Coll c) {
  switch (c) {
    case Coll::kBarrier: return "barrier";
    case Coll::kBcast: return "bcast";
    case Coll::kAllreduce: return "allreduce";
    case Coll::kAlltoallv: return "alltoallv";
    case Coll::kGather: return "gather";
    case Coll::kScatter: return "scatter";
    case Coll::kAllgather: return "allgather";
    case Coll::kReduce: return "reduce";
  }
  return "?";
}

Op make(Coll c, std::uint32_t ranks) {
  switch (c) {
    case Coll::kBarrier: return Op::barrier();
    case Coll::kBcast: return Op::bcast(ranks / 2, 16 * 1024);
    case Coll::kAllreduce: return Op::allreduce(64 * 1024);
    case Coll::kAlltoallv:
      return Op::alltoallv(std::vector<std::uint64_t>(ranks, 4096));
    case Coll::kGather: return Op::gather(ranks / 3, 2048);
    case Coll::kScatter: return Op::scatter(ranks - 1, 2048);
    case Coll::kAllgather: return Op::allgather(4096);
    case Coll::kReduce: return Op::reduce(ranks / 2, 8192);
  }
  mb::support::fail("make", "unknown collective");
}

using Case = std::tuple<Coll, std::uint32_t>;

class CollectiveSchedule : public ::testing::TestWithParam<Case> {};

TEST_P(CollectiveSchedule, EverySendHasAMatchingRecv) {
  const auto [coll, ranks] = GetParam();
  const Op op = make(coll, ranks);
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::int32_t>, int>
      balance;
  for (std::uint32_t r = 0; r < ranks; ++r) {
    for (const Op& o : lower_collective(op, r, ranks, 100)) {
      if (o.kind == Op::Kind::kSend) balance[{r, o.peer, o.tag}] += 1;
      if (o.kind == Op::Kind::kRecv) balance[{o.peer, r, o.tag}] -= 1;
    }
  }
  for (const auto& [key, v] : balance) EXPECT_EQ(v, 0);
}

TEST_P(CollectiveSchedule, ExecutesToCompletionOnACluster) {
  const auto [coll, ranks] = GetParam();
  sim::ShardedEngine engine(1);
  net::Network network(engine);
  const auto topo =
      net::build_tree(network, net::tibidabo_tree((ranks + 1) / 2));
  engine.configure({}, 1, kInf);
  std::vector<net::NodeId> hosts;
  for (std::uint32_t r = 0; r < ranks; ++r)
    hosts.push_back(topo.hosts[r / 2]);

  trace::SinkConfig keep_all;
  keep_all.ring_capacity = 0;
  trace::StreamingSink sink(ranks, keep_all);
  Runtime rt(engine, network, hosts, RuntimeConfig{}, &sink);
  Program program(ranks);
  program.append_all(make(coll, ranks));
  const double makespan = rt.run(program);
  EXPECT_GT(makespan, 0.0);
  // Every rank records the collective exactly once.
  trace::Trace trace;
  sink.drain(trace);
  const auto recs = trace.filter(trace::EventKind::kCollective);
  EXPECT_EQ(recs.size(), ranks);
}

TEST_P(CollectiveSchedule, BackToBackInstancesDoNotCrossMatch) {
  const auto [coll, ranks] = GetParam();
  sim::ShardedEngine engine(1);
  net::Network network(engine);
  const auto topo =
      net::build_tree(network, net::tibidabo_tree((ranks + 1) / 2));
  engine.configure({}, 1, kInf);
  std::vector<net::NodeId> hosts;
  for (std::uint32_t r = 0; r < ranks; ++r)
    hosts.push_back(topo.hosts[r / 2]);

  Runtime rt(engine, network, hosts, RuntimeConfig{}, nullptr);
  Program program(ranks);
  program.append_all(make(coll, ranks));
  program.append_all(make(coll, ranks));
  program.append_all(make(coll, ranks));
  EXPECT_NO_THROW(rt.run(program));
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndSizes, CollectiveSchedule,
    ::testing::Combine(::testing::Values(Coll::kBarrier, Coll::kBcast,
                                         Coll::kAllreduce, Coll::kAlltoallv,
                                         Coll::kGather, Coll::kScatter,
                                         Coll::kAllgather, Coll::kReduce),
                       ::testing::Values(2u, 3u, 4u, 5u, 8u, 13u, 16u)),
    [](const auto& info) {
      return std::string(name_of(std::get<0>(info.param))) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace mb::mpi
