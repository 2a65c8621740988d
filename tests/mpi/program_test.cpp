#include "mpi/program.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "support/check.h"

namespace mb::mpi {
namespace {

/// Executes a lowered schedule for all ranks in lockstep to verify the
/// send/recv pattern is complete and deadlock-free under buffered-send
/// semantics: every recv must have a matching send.
void verify_matching(const Op& collective, std::uint32_t ranks) {
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::int32_t>, int>
      balance;  // (src, dst, tag) -> sends minus recvs
  std::size_t recvs = 0;
  for (std::uint32_t r = 0; r < ranks; ++r) {
    for (const Op& op : lower_collective(collective, r, ranks, 1000)) {
      if (op.kind == Op::Kind::kSend)
        balance[{r, op.peer, op.tag}] += 1;
      else if (op.kind == Op::Kind::kRecv) {
        balance[{op.peer, r, op.tag}] -= 1;
        ++recvs;
      }
    }
  }
  for (const auto& [key, v] : balance)
    EXPECT_EQ(v, 0) << "unmatched message (src,dst,tag)";
  EXPECT_GT(recvs, 0u);
}

TEST(LowerCollective, BcastMatchesForVariousSizes) {
  for (std::uint32_t p : {2u, 3u, 4u, 7u, 8u, 16u, 33u}) {
    Op op = Op::bcast(0, 4096);
    verify_matching(op, p);
  }
}

TEST(LowerCollective, BcastNonZeroRoot) {
  for (std::uint32_t root : {1u, 5u}) {
    Op op = Op::bcast(root, 1024);
    verify_matching(op, 8);
  }
}

TEST(LowerCollective, BcastRootOnlySends) {
  Op op = Op::bcast(0, 1024);
  const auto ops = lower_collective(op, 0, 8, 0);
  for (const Op& o : ops) EXPECT_NE(o.kind, Op::Kind::kRecv);
}

TEST(LowerCollective, BcastLeafReceivesOnce) {
  Op op = Op::bcast(0, 1024);
  // Rank 7 of 8 is a leaf in the binomial tree.
  int recvs = 0, sends = 0;
  for (const Op& o : lower_collective(op, 7, 8, 0)) {
    if (o.kind == Op::Kind::kRecv) ++recvs;
    if (o.kind == Op::Kind::kSend) ++sends;
  }
  EXPECT_EQ(recvs, 1);
  EXPECT_EQ(sends, 0);
}

TEST(LowerCollective, BcastDepthIsLogarithmic) {
  // Total send count across ranks is p-1 (each rank receives once).
  Op op = Op::bcast(0, 64);
  const std::uint32_t p = 32;
  int sends = 0;
  for (std::uint32_t r = 0; r < p; ++r)
    for (const Op& o : lower_collective(op, r, p, 0))
      if (o.kind == Op::Kind::kSend) ++sends;
  EXPECT_EQ(sends, static_cast<int>(p) - 1);
}

TEST(LowerCollective, AllreduceMatches) {
  for (std::uint32_t p : {2u, 3u, 5u, 8u}) {
    Op op = Op::allreduce(1 << 20);
    verify_matching(op, p);
  }
}

TEST(LowerCollective, AllreduceRoundCount) {
  // Ring: 2(p-1) send/recv pairs per rank.
  Op op = Op::allreduce(4096);
  const auto ops = lower_collective(op, 0, 8, 0);
  int sends = 0;
  for (const Op& o : ops)
    if (o.kind == Op::Kind::kSend) ++sends;
  EXPECT_EQ(sends, 14);
}

TEST(LowerCollective, AlltoallvMatches) {
  for (std::uint32_t p : {2u, 4u, 9u}) {
    Op op = Op::alltoallv(std::vector<std::uint64_t>(p, 1024));
    verify_matching(op, p);
  }
}

TEST(LowerCollective, AlltoallvPostsAllSendsFirst) {
  // The MPICH shape: all sends precede all recvs (incast source).
  Op op = Op::alltoallv(std::vector<std::uint64_t>(8, 512));
  const auto ops = lower_collective(op, 3, 8, 0);
  bool seen_recv = false;
  for (const Op& o : ops) {
    if (o.kind == Op::Kind::kRecv) seen_recv = true;
    if (o.kind == Op::Kind::kSend) {
      EXPECT_FALSE(seen_recv);
    }
  }
}

TEST(LowerCollective, AlltoallvCountsSizeChecked) {
  Op op = Op::alltoallv(std::vector<std::uint64_t>(4, 1));
  EXPECT_THROW(lower_collective(op, 0, 8, 0), support::Error);
}

TEST(LowerCollective, BarrierMatches) {
  for (std::uint32_t p : {2u, 3u, 8u, 13u}) verify_matching(Op::barrier(), p);
}

TEST(LowerCollective, GroupMarkersWrapSchedule) {
  Op op = Op::bcast(0, 64);
  const auto ops = lower_collective(op, 1, 4, 0);
  ASSERT_GE(ops.size(), 2u);
  EXPECT_EQ(ops.front().kind, Op::Kind::kBeginGroup);
  EXPECT_EQ(ops.back().kind, Op::Kind::kEndGroup);
  EXPECT_EQ(ops.front().label, "bcast");
}

TEST(LowerCollective, NonCollectiveRejected) {
  EXPECT_THROW(lower_collective(Op::compute(1.0), 0, 4, 0), support::Error);
}

TEST(Program, AppendAllBroadcastsOp) {
  Program p(4);
  p.append_all(Op::barrier());
  for (std::uint32_t r = 0; r < 4; ++r) {
    ASSERT_EQ(p.rank(r).size(), 1u);
    EXPECT_EQ(p.rank(r)[0].kind, Op::Kind::kBarrier);
  }
}

TEST(Program, NeedsAtLeastOneRank) {
  EXPECT_THROW(Program{0}, support::Error);
}

TEST(Program, AssigningCountsToACopyLeavesTheOriginal) {
  const Op original = Op::alltoallv({1, 2, 3});
  Op copy = original;
  copy.counts = std::vector<std::uint64_t>{7, 8};
  ASSERT_EQ(original.counts.size(), 3u);
  EXPECT_EQ(original.counts[0], 1u);
  EXPECT_EQ(original.counts[2], 3u);
  ASSERT_EQ(copy.counts.size(), 2u);
  EXPECT_EQ(copy.counts[1], 8u);
  std::uint64_t sum = 0;
  for (const std::uint64_t c : original.counts) sum += c;
  EXPECT_EQ(sum, 6u);
  EXPECT_EQ(Op::compute(1.0).counts.size(), 0u);
}

TEST(Program, FactoriesInternTheirLabels) {
  const Label none;
  EXPECT_EQ(Op::bcast(0, 8).label, "bcast");
  EXPECT_EQ(Op::bcast(0, 8).label, Op::bcast(3, 9).label);
  const std::string& as_string = Op::compute(1.0, "halo").label;
  EXPECT_EQ(as_string, "halo");
  EXPECT_EQ(Op::send(1, 8, 0).label, none);
}

}  // namespace
}  // namespace mb::mpi
