// Pins the lowered point-to-point schedule: the exact op sequence every
// collective lowers to, the cursor that replays it, the tag space of
// collective instances, the op index and tag a run reports for a receive
// that never completes, and the mailbox that matches it all.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "mpi/mailbox.h"
#include "mpi/program.h"
#include "mpi/runtime.h"
#include "net/topology.h"
#include "support/check.h"
#include "support/hash.h"
#include "support/rng.h"

namespace mb::mpi {
namespace {

/// One instance of every collective kind at `ranks` ranks and `root`,
/// with payloads that differ per rank count and per destination.
std::vector<Op> every_kind(std::uint32_t ranks, std::uint32_t root) {
  std::vector<std::uint64_t> counts(ranks);
  for (std::uint32_t d = 0; d < ranks; ++d)
    counts[d] = (d * 7919 + ranks) % 5000;
  return {Op::barrier(),
          Op::bcast(root, 10000 + ranks, "a bcast label past the SSO size"),
          Op::allreduce(100003),
          Op::allreduce(1, "tiny"),
          Op::alltoallv(counts),
          Op::gather(root, 2048 + ranks),
          Op::scatter(root, 4096 + ranks),
          Op::allgather(777 + ranks),
          Op::reduce(root, 8192 + ranks)};
}

void hash_op(support::Hasher& h, const Op& op) {
  h.u64(static_cast<std::uint64_t>(op.kind))
      .f64(op.seconds)
      .u64(op.peer)
      .u64(op.bytes)
      .u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(op.tag)))
      .u64(op.root)
      .u64(op.counts.size());
  for (const std::uint64_t c : op.counts) h.u64(c);
  h.str(op.label);
}

TEST(LoweredSchedule, DigestOfEveryKindRankCountAndRoot) {
  support::Hasher h;
  std::uint64_t ops = 0;
  for (std::uint32_t p = 1; p <= 64; ++p) {
    for (const std::uint32_t root : {0u, p / 2, p - 1}) {
      for (const Op& op : every_kind(p, root)) {
        for (std::uint32_t r = 0; r < p; ++r) {
          for (const Op& low : lower_collective(op, r, p, 65536)) {
            hash_op(h, low);
            ++ops;
          }
        }
      }
    }
  }
  EXPECT_EQ(ops, 3376260u);
  EXPECT_EQ(support::hex64(h.digest()), "e33266884120974f");
}

TEST(LoweredSchedule, CursorReplaysTheConcatenatedLowering) {
  const std::uint32_t ranks = 8;
  Program p(ranks);
  p.append_all(Op::compute(0.5, "setup"));
  for (const Op& op : every_kind(ranks, 3)) p.append_all(op);
  for (std::uint32_t r = 0; r < ranks; ++r) {
    p.rank(r).push_back(Op::send((r + 1) % ranks, 100 + r, 7));
    p.rank(r).push_back(Op::recv((r + ranks - 1) % ranks, 7));
  }
  p.append_all(Op::compute(0.25));
  p.append_all(Op::barrier());

  for (std::uint32_t r = 0; r < ranks; ++r) {
    // What the runtime stored before it lowered on the fly.
    std::vector<std::pair<Op, std::size_t>> want;  // (op, user index)
    std::int32_t tag_base = 65536;
    for (std::size_t i = 0; i < p.rank(r).size(); ++i) {
      const Op& op = p.rank(r)[i];
      if (!is_collective(op.kind)) {
        want.emplace_back(op, i);
        continue;
      }
      for (const Op& low : lower_collective(op, r, ranks, tag_base))
        want.emplace_back(low, i);
      tag_base += 4096;
    }
    Cursor c(p, r);
    for (std::size_t j = 0; j < want.size(); ++j, c.next()) {
      ASSERT_FALSE(c.done()) << "rank " << r << " step " << j;
      const auto& [op, user] = want[j];
      const LoweredOp low = c.op();
      EXPECT_EQ(c.index(), j);
      EXPECT_EQ(c.user_index(), user);
      EXPECT_EQ(low.kind, op.kind) << "rank " << r << " step " << j;
      EXPECT_EQ(low.peer, op.peer) << "rank " << r << " step " << j;
      EXPECT_EQ(low.tag, op.tag) << "rank " << r << " step " << j;
      EXPECT_EQ(low.bytes, op.bytes) << "rank " << r << " step " << j;
      if (op.kind == Op::Kind::kCompute) {
        EXPECT_EQ(c.user_op().seconds, op.seconds);
        EXPECT_EQ(c.user_op().label, op.label);
      }
      if (op.kind == Op::Kind::kBeginGroup || op.kind == Op::Kind::kEndGroup) {
        EXPECT_EQ(c.user_op().label, op.label);
      }
    }
    EXPECT_TRUE(c.done());
  }
}

// Every tag of instance i lies in [base_i, base_i+1), so consecutive
// instances of any kinds never share a (src, dst, tag) key. Above 2,048
// ranks a ring allreduce's 2(p-1) tags outgrow the old fixed 4,096 stride.
class CollectiveTagSpan : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CollectiveTagSpan, FitsTheStrideOnEveryRank) {
  const std::uint32_t ranks = GetParam();
  const std::int32_t base = collective_tag_base(0, ranks);
  const std::int32_t next = collective_tag_base(1, ranks);
  EXPECT_EQ(base, 65536);
  EXPECT_EQ(next - base, ranks > 2048 ? 2 * static_cast<std::int32_t>(ranks)
                                      : 4096);
  for (const Op& op : every_kind(ranks, ranks / 2)) {
    if (op.label == "tiny") continue;  // the same schedule as "allreduce"
    std::int32_t lo = std::numeric_limits<std::int32_t>::max();
    std::int32_t hi = std::numeric_limits<std::int32_t>::min();
    for (std::uint32_t r = 0; r < ranks; ++r) {
      const std::size_t steps = collective_steps(op, r, ranks);
      for (std::size_t k = 0; k < steps; ++k) {
        const std::int32_t tag = collective_step(op, r, ranks, base, k).tag;
        lo = std::min(lo, tag);
        hi = std::max(hi, tag);
      }
    }
    EXPECT_GE(lo, base) << op.label;
    EXPECT_LT(hi, next) << op.label;
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, CollectiveTagSpan,
                         ::testing::Values(2048u, 2050u, 4098u));

TEST(LoweredSchedule, TagBaseRejectsInstancesPastInt32) {
  // 524,272 instances of 4,096 tags end exactly at INT32_MAX.
  EXPECT_EQ(collective_tag_base(524271, 2) + 4095,
            std::numeric_limits<std::int32_t>::max());
  EXPECT_THROW(collective_tag_base(524272, 2), support::Error);
  EXPECT_THROW(collective_tag_base(262008, 4098), support::Error);
  EXPECT_NO_THROW(collective_tag_base(262007, 4098));
}

/// Runs `program` without the up-front verifier, one rank per node.
RunOutcome run_unverified(const Program& program) {
  sim::ShardedEngine engine(1);
  net::Network network(engine);
  const auto topo =
      net::build_tree(network, net::tibidabo_tree(program.ranks()));
  engine.configure({}, 1, std::numeric_limits<double>::infinity());
  std::vector<net::NodeId> hosts(topo.hosts.begin(),
                                 topo.hosts.begin() + program.ranks());
  RuntimeConfig config;
  config.verify = false;
  Runtime rt(engine, network, hosts, config, nullptr);
  return rt.run_outcome(program);
}

TEST(LoweredSchedule, BlockedOpIndexCountsCollectiveMarkers) {
  Program p(4);
  p.append_all(Op::barrier());
  p.rank(0).push_back(Op::recv(1, 3));  // never sent
  const RunOutcome outcome = run_unverified(p);
  ASSERT_FALSE(outcome.completed);
  ASSERT_EQ(outcome.failure.blocked.size(), 1u);
  const BlockedOp& b = outcome.failure.blocked[0];
  EXPECT_EQ(b.rank, 0u);
  EXPECT_EQ(b.peer, 1u);
  EXPECT_EQ(b.tag, 3);
  EXPECT_EQ(b.op_index, 6u);  // begin, 2 rounds of send+recv, end
}

TEST(LoweredSchedule, BlockedCollectiveReportsItsTagAndIndex) {
  // Rank 3 skips the allreduce, so the ring stalls inside it.
  Program p(4);
  p.append_all(Op::bcast(0, 1024));
  for (std::uint32_t r = 0; r < 3; ++r)
    p.rank(r).push_back(Op::allreduce(4096));
  const RunOutcome outcome = run_unverified(p);
  ASSERT_FALSE(outcome.completed);
  // The allreduce is the second instance: tag base (1 << 16) + 4096,
  // plus the ring round each rank stalls in.
  const std::int32_t want_tag[] = {69632, 69633, 69634};
  const std::size_t want_index[] = {6, 7, 10};
  ASSERT_EQ(outcome.failure.blocked.size(), 3u);
  for (std::uint32_t r = 0; r < 3; ++r) {
    const BlockedOp& b = outcome.failure.blocked[r];
    EXPECT_EQ(b.rank, r);
    EXPECT_EQ(b.peer, (r + 3) % 4);
    EXPECT_EQ(b.tag, want_tag[r]) << "rank " << r;
    EXPECT_EQ(b.op_index, want_index[r]) << "rank " << r;
  }
}

/// The support::Error message a run of `program` fails with, or "".
std::string run_error(const Program& program) {
  try {
    run_unverified(program);
  } catch (const support::Error& e) {
    return e.what();
  }
  return "";
}

TEST(LoweredSchedule, RunRejectsMoreCollectivesThanTheTagSpaceHolds) {
  Program p(1);
  p.rank(0).assign(524273, Op::barrier());
  EXPECT_NE(run_error(p).find("at most 524272 collectives"),
            std::string::npos)
      << run_error(p);
  Cursor c(p, 0);
  const auto walk = [&c] {
    while (!c.done()) c.next();
  };
  EXPECT_THROW(walk(), support::Error);
}

TEST(LoweredSchedule, RunRejectsUnlowerableOpsBeforeTheFirstEvent) {
  Program tag(2);
  tag.rank(0).push_back(Op::send(1, 8, 1 << 16));
  tag.rank(1).push_back(Op::recv(0, 1 << 16));
  EXPECT_EQ(run_error(tag), "Runtime::run: user tags must stay below 1<<16");
  Program counts(4);
  counts.append_all(Op::barrier());
  counts.rank(2).push_back(Op::alltoallv({1, 2}));
  EXPECT_EQ(run_error(counts),
            "Runtime::run: rank 2 op 1: lower_collective: alltoallv counts "
            "vector has 2 entries for 4 ranks (need one byte count per "
            "destination)");
}

// With verification off nothing else bounds these ranks: each would index
// the runtime's per-rank tables out of range.
TEST(LoweredSchedule, RunRejectsSendPeerOutsideTheProgram) {
  Program p(4);
  p.rank(1).push_back(Op::compute(0.1));
  p.rank(1).push_back(Op::send(4, 64, 3));
  EXPECT_EQ(run_error(p),
            "Runtime::run: rank 1 op 1: send names rank 4, but the program "
            "has only 4 ranks");
}

TEST(LoweredSchedule, RunRejectsGatherRootOutsideTheProgram) {
  Program p(4);
  p.append_all(Op::gather(9, 64));
  EXPECT_EQ(run_error(p),
            "Runtime::run: rank 0 op 0: lower_collective: gather root 9 is "
            "outside the program's 4 ranks");
}

TEST(LoweredSchedule, RunRejectsScatterRootOutsideTheProgram) {
  Program p(4);
  p.append_all(Op::barrier());
  p.append_all(Op::scatter(4, 64));
  EXPECT_EQ(run_error(p),
            "Runtime::run: rank 0 op 1: lower_collective: scatter root 4 is "
            "outside the program's 4 ranks");
}

// Unchecked, a bcast or reduce root past the program runs as if it were
// a smaller rank (the tree arithmetic wraps) or wedges the tree.
TEST(LoweredSchedule, RunRejectsEveryRootOutsideTheProgram) {
  for (const std::uint32_t root : {6u, 7u}) {
    const Op rooted[] = {Op::bcast(root, 64), Op::reduce(root, 64),
                         Op::gather(root, 64), Op::scatter(root, 64)};
    for (const Op& op : rooted) {
      Program p(6);
      p.append_all(Op::compute(0.1));
      p.append_all(op);
      EXPECT_EQ(run_error(p),
                "Runtime::run: rank 0 op 1: lower_collective: " +
                    std::string(kind_name(op.kind)) + " root " +
                    std::to_string(root) +
                    " is outside the program's 6 ranks");
    }
  }
}

TEST(Mailbox, DrainedKeysDoNotGrowTheTable) {
  Mailbox<std::uint64_t> box;
  std::uint64_t value = 0;
  for (std::uint32_t i = 0; i < 1000000; ++i) {
    box.push(i % 4096, static_cast<std::int32_t>(65536 + i), i);
    ASSERT_TRUE(box.pop(i % 4096, static_cast<std::int32_t>(65536 + i), value));
    ASSERT_EQ(value, i);
  }
  EXPECT_EQ(box.capacity(), 8u);
  EXPECT_FALSE(box.pop(0, 65536, value));
}

TEST(Mailbox, FifoPerKeyAndLeftoversInSourceTagOrder) {
  Mailbox<int> box;
  for (int i = 0; i < 100; ++i)
    box.push(static_cast<std::uint32_t>(i % 3), i % 2 ? -5 : 7, i);
  int value = -1;
  for (const std::int32_t tag : {7, -5}) {
    int last = -1;
    for (int n = 0; n < 10; ++n) {
      ASSERT_TRUE(box.pop(1, tag, value));
      EXPECT_GT(value, last);
      EXPECT_EQ(value % 3, 1);
      last = value;
    }
  }
  EXPECT_FALSE(box.pop(1, 8, value));
  const auto left = box.leftovers();
  ASSERT_EQ(left.size(), 80u);
  for (std::size_t i = 1; i < left.size(); ++i) {
    const auto& [src0, tag0, v0] = left[i - 1];
    const auto& [src1, tag1, v1] = left[i];
    EXPECT_TRUE(std::tie(src0, tag0, v0) < std::tie(src1, tag1, v1));
  }
  EXPECT_EQ(std::get<1>(left.front()), -5);
}

TEST(Mailbox, MatchesAMapOfQueuesUnderRandomPushAndPop) {
  using Key = std::pair<std::uint32_t, std::int32_t>;
  const std::vector<Key> keys = {{0, -7}, {0, 0},     {0, 65536}, {1, -1},
                                 {1, 3},  {2, -7},    {2, 0},     {3, 3},
                                 {5, -1}, {5, 65536}, {7, 0},     {9, -2}};
  Mailbox<std::uint64_t> box;
  std::map<Key, std::deque<std::uint64_t>> ref;
  const auto flatten = [&ref] {
    std::vector<std::tuple<std::uint32_t, std::int32_t, std::uint64_t>> out;
    for (const auto& [k, fifo] : ref)
      for (const std::uint64_t v : fifo) out.emplace_back(k.first, k.second, v);
    return out;
  };
  support::Rng rng(0x6d61696c626f78ull);
  std::size_t pushes_after_a_pop = 0;
  std::size_t pops = 0;
  std::size_t peak = 0;
  // Three phases: mostly pushes (several messages per key, the table
  // grows), mostly pops (drains keys and frees nodes), then balanced
  // traffic whose pushes take freed nodes.
  for (const double push_share : {0.8, 0.25, 0.5}) {
    for (std::uint64_t op = 0; op < 1500; ++op) {
      const Key k = keys[rng.index(keys.size())];
      std::deque<std::uint64_t>& fifo = ref[k];
      if (rng.bernoulli(push_share)) {
        const std::uint64_t value = rng();
        box.push(k.first, k.second, value);
        fifo.push_back(value);
        pushes_after_a_pop += pops > 0;
      } else {
        std::uint64_t value = 0;
        ASSERT_EQ(box.pop(k.first, k.second, value), !fifo.empty())
            << "src " << k.first << " tag " << k.second;
        if (!fifo.empty()) {
          EXPECT_EQ(value, fifo.front());
          fifo.pop_front();
          ++pops;
        }
      }
      std::size_t queued = 0;
      for (const auto& [key, queue] : ref) queued += queue.size();
      peak = std::max(peak, queued);
      ASSERT_EQ(box.leftovers(), flatten()) << "after op " << op;
    }
  }
  EXPECT_GT(box.capacity(), 8u);  // grow() doubled the table
  EXPECT_GT(peak, 3 * keys.size());
  EXPECT_GT(pushes_after_a_pop, 500u);
  EXPECT_GT(pops, 1000u);
  for (const auto& [k, fifo] : ref) {
    for (const std::uint64_t expected : fifo) {
      std::uint64_t value = 0;
      ASSERT_TRUE(box.pop(k.first, k.second, value));
      EXPECT_EQ(value, expected);
    }
  }
  EXPECT_TRUE(box.leftovers().empty());
}

// Keys whose probes start in the last two entries of an 8-entry table,
// plus two that start at entry 0: their runs wrap around the table's end,
// and a removal must shift entries back across it.
TEST(Mailbox, KeysMoveBetweenEntryAndListInRunsThatWrap) {
  using Key = std::pair<std::uint32_t, std::int32_t>;
  std::vector<Key> keys;
  std::size_t at_end = 0;
  std::size_t at_start = 0;
  for (std::uint32_t src = 0; at_end < 6 || at_start < 2; ++src) {
    for (const std::int32_t tag : {-3, 0, 65536}) {
      const std::size_t home = Mailbox<std::uint64_t>::home(src, tag, 8);
      if (home >= 6 && at_end < 6) {
        keys.emplace_back(src, tag);
        ++at_end;
      } else if (home == 0 && at_start < 2) {
        keys.emplace_back(src, tag);
        ++at_start;
      }
    }
  }
  Mailbox<std::uint64_t> box;
  std::map<Key, std::deque<std::uint64_t>> ref;
  const auto flatten = [&ref] {
    std::vector<std::tuple<std::uint32_t, std::int32_t, std::uint64_t>> out;
    for (const auto& [k, fifo] : ref)
      for (const std::uint64_t v : fifo) out.emplace_back(k.first, k.second, v);
    return out;
  };
  const auto live = [&ref] {
    std::size_t n = 0;
    for (const auto& [k, fifo] : ref) n += !fifo.empty();
    return n;
  };
  support::Rng rng(0x77726170ull);
  std::size_t one_to_two = 0;
  std::size_t two_to_one = 0;
  std::size_t one_to_zero = 0;
  std::size_t most_at_end = 0;  // live keys whose probe starts at 6 or 7
  for (std::uint64_t op = 0; op < 20000; ++op) {
    const Key k = keys[rng.index(keys.size())];
    std::deque<std::uint64_t>& fifo = ref[k];
    // At most four live keys, so the table stays at 8 entries, and at
    // most three messages per key, so keys keep crossing 1 <-> 2.
    const bool may_push = fifo.size() < 3 && (!fifo.empty() || live() < 4);
    if (may_push && (fifo.empty() || rng.bernoulli(0.5))) {
      const std::uint64_t value = rng();
      box.push(k.first, k.second, value);
      fifo.push_back(value);
      one_to_two += fifo.size() == 2;
    } else {
      std::uint64_t value = 0;
      ASSERT_EQ(box.pop(k.first, k.second, value), !fifo.empty())
          << "src " << k.first << " tag " << k.second;
      if (!fifo.empty()) {
        EXPECT_EQ(value, fifo.front());
        fifo.pop_front();
        two_to_one += fifo.size() == 1;
        one_to_zero += fifo.empty();
      }
    }
    std::size_t live_at_end = 0;
    for (const auto& [key, queue] : ref)
      live_at_end += !queue.empty() && Mailbox<std::uint64_t>::home(
                                           key.first, key.second, 8) >= 6;
    most_at_end = std::max(most_at_end, live_at_end);
    ASSERT_EQ(box.leftovers(), flatten()) << "after op " << op;
  }
  EXPECT_EQ(box.capacity(), 8u);
  EXPECT_GE(most_at_end, 3u);  // three keys in entries 6 and 7: one wrapped
  EXPECT_GT(one_to_two, 1000u);
  EXPECT_GT(two_to_one, 1000u);
  EXPECT_GT(one_to_zero, 1000u);
  // Freed nodes are reused: never more than four keys of three messages.
  EXPECT_LE(box.nodes(), 12u);
}

TEST(Mailbox, LeftoversKeepArrivalOrderInsideLists) {
  Mailbox<int> box;
  box.push(4, 9, 0);   // stays alone in its entry
  box.push(2, 9, 1);   // a list of three
  box.push(2, 9, 2);
  box.push(2, -9, 3);  // a list that drops back to one message
  box.push(2, -9, 4);
  box.push(2, 9, 5);
  box.push(2, -9, 6);
  box.push(0, 9, 7);   // a list of two
  box.push(0, 9, 8);
  int value = -1;
  ASSERT_TRUE(box.pop(2, -9, value));
  EXPECT_EQ(value, 3);
  ASSERT_TRUE(box.pop(2, -9, value));
  EXPECT_EQ(value, 4);
  const std::vector<std::tuple<std::uint32_t, std::int32_t, int>> want = {
      {0, 9, 7}, {0, 9, 8}, {2, -9, 6}, {2, 9, 1},
      {2, 9, 2}, {2, 9, 5}, {4, 9, 0}};
  EXPECT_EQ(box.leftovers(), want);
}

TEST(Mailbox, AMillionMessagesOnOneKeyDrainInLinearTime) {
  // The verifier's fixpoint pushes a sender's whole stream before its
  // receiver pops; a quadratic pop would take hours here.
  constexpr std::uint64_t kMessages = 1000000;
  Mailbox<std::uint64_t> box;
  for (std::uint64_t i = 0; i < kMessages; ++i) box.push(3, 7, i);
  EXPECT_EQ(box.capacity(), 8u);
  EXPECT_EQ(box.nodes(), kMessages);
  std::uint64_t value = 0;
  for (std::uint64_t i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(box.pop(3, 7, value));
    ASSERT_EQ(value, i);
  }
  EXPECT_FALSE(box.pop(3, 7, value));
  EXPECT_TRUE(box.leftovers().empty());
}

TEST(Mailbox, AnIncastOfSingleMessagesUsesNoListNode) {
  // Fig. 4's alltoallv at 1,024 ranks: one message from each other rank.
  Mailbox<double> box;
  for (std::uint32_t src = 1; src < 1024; ++src)
    box.push(src, 65536, 0.5 * src);
  EXPECT_EQ(box.capacity(), 2048u);
  EXPECT_EQ(box.nodes(), 0u);
  double value = 0;
  for (std::uint32_t src = 1023; src >= 1; --src) {
    ASSERT_TRUE(box.pop(src, 65536, value));
    EXPECT_EQ(value, 0.5 * src);
  }
  EXPECT_TRUE(box.leftovers().empty());
  EXPECT_EQ(box.capacity(), 2048u);
  EXPECT_EQ(box.nodes(), 0u);
}

TEST(Mailbox, SourcesStopBelowTheListBit) {
  Mailbox<std::uint64_t> box;
  constexpr std::uint32_t kLast = (1u << 31) - 2;
  box.push(kLast, -1, 11);
  box.push(5, -1, 12);
  std::uint64_t value = 0;
  EXPECT_FALSE(box.pop(5u | (1u << 31), -1, value));
  for (const std::uint32_t src : {kLast + 1, 1u << 31, ~0u}) {
    try {
      box.push(src, -1, 13);
      ADD_FAILURE() << "source " << src << " was queued";
    } catch (const support::Error& e) {
      EXPECT_EQ(std::string(e.what()),
                "Mailbox::push: source rank " + std::to_string(src) +
                    " is not below 2^31 - 1");
    }
    EXPECT_FALSE(box.pop(src, -1, value));
  }
  ASSERT_TRUE(box.pop(kLast, -1, value));
  EXPECT_EQ(value, 11u);
  ASSERT_TRUE(box.pop(5, -1, value));
  EXPECT_EQ(value, 12u);
}

}  // namespace
}  // namespace mb::mpi
