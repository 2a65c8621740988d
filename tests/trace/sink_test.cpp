#include "trace/sink.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "support/check.h"
#include "support/rng.h"
#include "trace/mb_trace.h"

namespace mb::trace {
namespace {

Record rec(std::uint32_t rank, double t0, double t1, EventKind kind,
           std::string label, std::uint64_t bytes = 0) {
  Record r;
  r.rank = rank;
  r.t0 = t0;
  r.t1 = t1;
  r.kind = kind;
  r.label = std::move(label);
  r.bytes = bytes;
  return r;
}

TEST(EventKindMask, ParsesNamesAndAll) {
  EXPECT_EQ(parse_event_kind_mask("all"), kAllEventKinds);
  const std::uint32_t mask = parse_event_kind_mask("compute,collective");
  EXPECT_TRUE(mask & event_kind_bit(EventKind::kCompute));
  EXPECT_TRUE(mask & event_kind_bit(EventKind::kCollective));
  EXPECT_FALSE(mask & event_kind_bit(EventKind::kSend));
  EXPECT_THROW(parse_event_kind_mask("warp"), support::Error);
  EXPECT_THROW(parse_event_kind_mask(""), support::Error);
}

TEST(SampleRanks, DeterministicAndDistinct) {
  const auto a = sample_ranks(1000, 16, 42);
  const auto b = sample_ranks(1000, 16, 42);
  EXPECT_EQ(a, b);  // same seed, same set — on every platform
  ASSERT_EQ(a.size(), 16u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_EQ(std::adjacent_find(a.begin(), a.end()), a.end());
  for (const std::uint32_t r : a) EXPECT_LT(r, 1000u);

  const auto c = sample_ranks(1000, 16, 43);
  EXPECT_NE(a, c);  // a different seed picks a different set
  // Count >= total degenerates to "all".
  EXPECT_EQ(sample_ranks(4, 10, 1).size(), 4u);
}

TEST(StreamingSink, UnboundedDrainIsRankMajorAndMovesRecords) {
  // The default capture of every run: all ranks, unbounded rings.
  SinkConfig config;
  config.ring_capacity = 0;
  StreamingSink sink(3, config);
  const std::string long_label(64, 'x');  // heap-allocated, not SSO
  for (int i = 0; i < 100; ++i) {
    sink.emit(rec(2, i, i + 1, EventKind::kCompute, "c"));
    sink.emit(rec(0, i, i + 1, EventKind::kSend, long_label, 8));
  }
  sink.emit(rec(1, 0, 1, EventKind::kWait, "w"));
  sink.close();
  EXPECT_EQ(sink.total_emitted(), 201u);
  EXPECT_EQ(sink.total_dropped(), 0u);

  Trace out;
  sink.drain(out);
  ASSERT_EQ(out.size(), 201u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint32_t want = i < 100 ? 0u : (i == 100 ? 1u : 2u);
    EXPECT_EQ(out.records()[i].rank, want) << "record " << i;
  }
  // Oldest-first within a rank, and labels intact after the move.
  EXPECT_EQ(out.records()[0].t0, 0.0);
  EXPECT_EQ(out.records()[99].t0, 99.0);
  EXPECT_EQ(out.records()[99].label, long_label);
  EXPECT_EQ(out.records()[200].t0, 99.0);

  // The records were moved, not copied: the rings are empty, so a second
  // drain adds nothing.
  Trace again;
  sink.drain(again);
  EXPECT_EQ(again.size(), 0u);
}

TEST(StreamingSink, FiltersByRankAndKind) {
  SinkConfig config;
  config.rank_list = {1, 3};
  config.kind_mask = event_kind_bit(EventKind::kCollective);
  StreamingSink sink(4, config);
  EXPECT_TRUE(sink.wants(1, EventKind::kCollective));
  EXPECT_FALSE(sink.wants(1, EventKind::kCompute));  // kind filtered
  EXPECT_FALSE(sink.wants(0, EventKind::kCollective));  // rank filtered
  sink.emit(rec(3, 0, 1, EventKind::kCollective, "alltoallv"));
  sink.close();
  Trace out;
  sink.drain(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.records()[0].rank, 3u);
}

TEST(StreamingSink, RingOverflowDropsOldestAndCounts) {
  SinkConfig config;
  config.ring_capacity = 3;
  StreamingSink sink(1, config);
  for (int i = 0; i < 8; ++i)
    sink.emit(rec(0, i, i + 1, EventKind::kCompute, "c" + std::to_string(i)));
  sink.close();
  EXPECT_EQ(sink.total_emitted(), 8u);
  EXPECT_EQ(sink.total_dropped(), 5u);
  EXPECT_EQ(sink.dropped(0), 5u);
  Trace out;
  sink.drain(out);
  // The *newest* capacity records survive, oldest-first: the tail of a
  // run (where stragglers and faults live) is what the ring keeps.
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.records()[0].label, "c5");
  EXPECT_EQ(out.records()[2].label, "c7");
}

TEST(StreamingSink, DrainIsRankMajorAndStampsProvenance) {
  SinkConfig config;
  config.tool_version = "9.9.9";
  config.seed = 77;
  StreamingSink sink(3, config);
  sink.emit(rec(2, 0, 1, EventKind::kCompute, "z"));
  sink.emit(rec(0, 1, 2, EventKind::kCompute, "a"));
  sink.emit(rec(2, 3, 4, EventKind::kCompute, "z2"));
  sink.close();
  Trace out;
  sink.drain(out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.records()[0].rank, 0u);
  EXPECT_EQ(out.records()[1].label, "z");  // oldest-first within rank 2
  EXPECT_EQ(out.records()[2].label, "z2");
  ASSERT_TRUE(out.has_provenance());
  EXPECT_EQ(out.tool_version(), "9.9.9");
  EXPECT_EQ(out.seed(), 77u);
}

TEST(StreamingSink, RejectsOutOfRangeRankList) {
  SinkConfig config;
  config.rank_list = {0, 9};
  EXPECT_THROW(StreamingSink(4, config), support::Error);
}

TEST(StreamingSink, SpillWritesCanonicalMbTrace) {
  const std::string path = ::testing::TempDir() + "sink_spill.mbt";
  SinkConfig config;
  config.ring_capacity = 2;  // force mid-run chunk flushes
  config.spill_path = path;
  config.tool_version = "1.2.3";
  config.seed = 5;
  {
    StreamingSink sink(2, config);
    for (int i = 0; i < 5; ++i) {
      sink.emit(rec(1, i, i + 1, EventKind::kCompute, "r1-" + std::to_string(i)));
      sink.emit(rec(0, i, i + 1, EventKind::kSend, "r0-" + std::to_string(i), 64));
    }
    sink.close();
    EXPECT_EQ(sink.total_dropped(), 0u);  // spilling never loses records
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  ASSERT_TRUE(is_mb_trace(in));
  const MbTraceFile file = read_mb_trace(in);
  EXPECT_EQ(file.meta.tool_version, "1.2.3");
  EXPECT_EQ(file.meta.seed, 5u);
  EXPECT_EQ(file.meta.total_ranks, 2u);
  ASSERT_EQ(file.trace.size(), 10u);
  // Canonical order: rank-major, emission order within each rank —
  // independent of how emits interleaved across ranks.
  EXPECT_EQ(file.trace.records()[0].rank, 0u);
  EXPECT_EQ(file.trace.records()[0].label, "r0-0");
  EXPECT_EQ(file.trace.records()[5].rank, 1u);
  EXPECT_EQ(file.trace.records()[5].label, "r1-0");
  EXPECT_EQ(file.trace.records()[9].label, "r1-4");
  EXPECT_EQ(file.trace.records()[0].bytes, 64u);
  std::remove(path.c_str());
}

// The spill and write_mb_trace are two writers of one format: for the
// same emissions and meta they must produce the same bytes. Labels are
// shared across ranks but first appear in a different order on each
// rank, so the spill's label table must come out in rank-major
// first-appearance order, as the one-shot writer builds it.
TEST(StreamingSink, SpillByteEqualsWriterOfUnboundedDrain) {
  const std::string path = ::testing::TempDir() + "sink_identity.mbt";
  const std::vector<std::string> pool = {"alltoallv", "compute", "halo",
                                         "allreduce", "x:y"};
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    support::Rng rng(seed);
    const auto ranks = static_cast<std::uint32_t>(2 + rng.index(8));
    SinkConfig config;
    config.seed = 1000 + seed;
    config.tool_version = "9.8.7";
    if (seed % 2 == 1)
      config.sample_count = static_cast<std::uint32_t>(1 + rng.index(ranks));
    std::vector<std::vector<std::string>> order(ranks, pool);
    for (auto& labels : order) std::shuffle(labels.begin(), labels.end(), rng);
    std::vector<Record> emissions;
    std::vector<double> clock(ranks, 0.0);
    const std::size_t count = 10 + rng.index(60);
    for (std::size_t i = 0; i < count; ++i) {
      const auto rank = static_cast<std::uint32_t>(rng.index(ranks));
      // Mostly the rank's next label in its own order, sometimes any.
      const std::size_t pick = rng.bernoulli(0.7)
                                   ? std::min<std::size_t>(i / ranks, 4)
                                   : rng.index(pool.size());
      const double t0 = clock[rank] + rng.uniform(0.0, 1e-3);
      const double t1 = t0 + rng.uniform(0.0, 1e-2);
      clock[rank] = t1;
      emissions.push_back(rec(rank, t0, t1,
                              static_cast<EventKind>(rng.index(6)),
                              order[rank][pick], rng.index(1 << 20)));
    }

    SinkConfig unbounded = config;
    unbounded.ring_capacity = 0;
    StreamingSink memory(ranks, unbounded);
    SinkConfig spilled = config;
    spilled.ring_capacity = static_cast<std::uint32_t>(1 + rng.index(7));
    spilled.spill_path = path;
    {
      StreamingSink sink(ranks, spilled);
      for (const Record& r : emissions) {
        sink.emit(r);
        memory.emit(r);
      }
      sink.close();
    }
    memory.close();
    Trace drained;
    memory.drain(drained);
    MbTraceMeta meta;
    meta.tool_version = config.tool_version;
    meta.seed = config.seed;
    meta.total_ranks = ranks;
    meta.sampled_ranks = memory.sampled_ranks();
    std::ostringstream want(std::ios::binary);
    write_mb_trace(want, drained, meta);

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "seed " << seed;
    std::ostringstream got(std::ios::binary);
    got << in.rdbuf();
    EXPECT_EQ(got.str(), want.str())
        << "seed " << seed << ", " << ranks << " ranks, ring "
        << spilled.ring_capacity;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mb::trace
