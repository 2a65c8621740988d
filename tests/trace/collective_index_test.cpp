// The collective-instance index against a reference classifier.
//
// `reference_report` is the one-label grouping the trace layer used
// before the index existed: a rescan of the whole trace per label,
// records grouped per rank in a std::map. Over seeded traces with uneven
// per-rank counts, absent ranks and interleaved labels, every label's
// report from the index (and from analyze_collectives) must equal the
// reference field by field, with doubles compared bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <string>
#include <vector>

#include "stats/descriptive.h"
#include "support/check.h"
#include "support/rng.h"
#include "trace/trace.h"

namespace mb::trace {
namespace {

CollectiveReport reference_report(const Trace& trace, std::string_view label,
                                  double delay_factor) {
  std::map<std::uint32_t, std::vector<const Record*>> per_rank;
  for (const auto& r : trace.records())
    if (r.kind == EventKind::kCollective && r.label == label)
      per_rank[r.rank].push_back(&r);

  CollectiveReport report;
  if (per_rank.empty()) return report;

  std::size_t instances = 0;
  for (const auto& [rank, recs] : per_rank)
    instances = std::max(instances, recs.size());

  std::vector<double> durations;
  for (std::size_t i = 0; i < instances; ++i) {
    CollectiveInstance inst;
    inst.index = i;
    inst.start = 1e300;
    for (const auto& [rank, recs] : per_rank) {
      if (i >= recs.size()) continue;
      inst.start = std::min(inst.start, recs[i]->t0);
      inst.duration = std::max(inst.duration, recs[i]->duration());
    }
    durations.push_back(inst.duration);
    report.instances.push_back(inst);
  }

  report.median_duration = stats::median(durations);
  const double threshold = delay_factor * report.median_duration;
  for (auto& inst : report.instances) {
    inst.delayed = inst.duration > threshold;
    if (!inst.delayed) continue;
    ++report.delayed_count;
    for (const auto& [rank, recs] : per_rank) {
      if (inst.index < recs.size() &&
          recs[inst.index]->duration() > threshold)
        ++inst.slow_ranks;
    }
    if (inst.slow_ranks > 0 && inst.slow_ranks < per_rank.size())
      report.has_partial_delays = true;
  }
  return report;
}

/// 1-4 labels over 1-40 ranks. Each rank holds its own count of each
/// label (zero for some ranks), records of all ranks interleave at
/// random, a few instances run long on some ranks, and compute and send
/// records reuse the labels so the kind filter is exercised too.
Trace seeded_trace(std::uint64_t seed) {
  support::Rng rng(seed);
  const std::vector<std::string> pool = {"alltoallv", "allreduce", "bcast",
                                         "energy_allreduce", "halo:x"};
  const std::size_t labels = 1 + rng.index(4);
  const auto ranks = static_cast<std::uint32_t>(1 + rng.index(40));
  struct Pending {
    std::vector<Record> recs;
    std::size_t next = 0;
  };
  std::vector<Pending> per_rank(ranks);
  for (std::uint32_t rank = 0; rank < ranks; ++rank) {
    if (ranks > 1 && rng.bernoulli(0.1)) continue;  // absent rank
    std::vector<std::size_t> sequence;
    for (std::size_t l = 0; l < labels; ++l) {
      const std::size_t base = 2 + (seed % 7);
      const std::size_t count =
          rng.bernoulli(0.1) ? 0 : base + rng.index(4);
      sequence.insert(sequence.end(), count, l);
    }
    std::shuffle(sequence.begin(), sequence.end(), rng);
    double t = rng.uniform(0.0, 0.01);
    std::vector<std::size_t> seen(labels, 0);
    for (const std::size_t l : sequence) {
      Record r;
      r.rank = rank;
      r.label = pool[l];
      r.kind = rng.bernoulli(0.1) ? (rng.bernoulli(0.5) ? EventKind::kCompute
                                                        : EventKind::kSend)
                                  : EventKind::kCollective;
      const double base_dur = 0.001 * static_cast<double>(l + 1);
      double dur = base_dur * rng.uniform(0.9, 1.1);
      if ((seen[l] + l) % 5 == 3 && rng.bernoulli(0.6))
        dur *= rng.uniform(1.2, 8.0);
      if (rng.bernoulli(0.02)) dur = base_dur;  // exact ties
      ++seen[l];
      r.t0 = t;
      r.t1 = t + dur;
      t = r.t1 + rng.uniform(0.0, 0.002);
      per_rank[rank].recs.push_back(std::move(r));
    }
  }
  Trace trace;
  while (true) {
    std::vector<std::uint32_t> open;
    for (std::uint32_t rank = 0; rank < ranks; ++rank)
      if (per_rank[rank].next < per_rank[rank].recs.size())
        open.push_back(rank);
    if (open.empty()) break;
    Pending& p = per_rank[open[rng.index(open.size())]];
    trace.add(p.recs[p.next++]);
  }
  return trace;
}

std::vector<std::string> collective_labels(const Trace& trace) {
  std::vector<std::string> labels;
  for (const auto& r : trace.records())
    if (r.kind == EventKind::kCollective) labels.push_back(r.label);
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  return labels;
}

void expect_same(const CollectiveReport& got, const CollectiveReport& want,
                 const std::string& where) {
  ASSERT_EQ(got.instances.size(), want.instances.size()) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.median_duration),
            std::bit_cast<std::uint64_t>(want.median_duration))
      << where;
  EXPECT_EQ(got.delayed_count, want.delayed_count) << where;
  EXPECT_EQ(got.has_partial_delays, want.has_partial_delays) << where;
  for (std::size_t i = 0; i < want.instances.size(); ++i) {
    const CollectiveInstance& g = got.instances[i];
    const CollectiveInstance& w = want.instances[i];
    const std::string at = where + " instance " + std::to_string(i);
    EXPECT_EQ(g.index, w.index) << at;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.start),
              std::bit_cast<std::uint64_t>(w.start))
        << at;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.duration),
              std::bit_cast<std::uint64_t>(w.duration))
        << at;
    EXPECT_EQ(g.delayed, w.delayed) << at;
    EXPECT_EQ(g.slow_ranks, w.slow_ranks) << at;
  }
}

TEST(CollectiveIndex, EveryLabelMatchesTheReferenceClassifier) {
  std::size_t delayed = 0;
  std::size_t partial = 0;
  for (std::uint64_t seed = 0; seed < 240; ++seed) {
    const Trace trace = seeded_trace(seed);
    const double factor = std::vector<double>{1.5, 2.0, 3.0}[seed % 3];
    const auto index = classify_collectives(trace, factor);
    const std::vector<std::string> labels = collective_labels(trace);
    ASSERT_EQ(index.size(), labels.size()) << "seed " << seed;
    auto entry = index.begin();
    for (const std::string& label : labels) {
      const CollectiveReport want = reference_report(trace, label, factor);
      const std::string where =
          "seed " + std::to_string(seed) + " label " + label;
      EXPECT_EQ(entry->first, label) << where;  // ascending label order
      expect_same(entry->second, want, where);
      expect_same(analyze_collectives(trace, label, factor), want, where);
      ++entry;
      delayed += want.delayed_count;
      partial += want.has_partial_delays ? 1 : 0;
    }
  }
  // The generator must reach the classifier's interesting branches.
  EXPECT_GT(delayed, 100u);
  EXPECT_GT(partial, 20u);
}

TEST(CollectiveIndex, MembersAreTheInstancesRecordsInRankOrder) {
  // Rank 1 logs first and has one record fewer; a compute record with
  // the same label is no member.
  Trace t;
  t.add({1, 0.0, 0.1, EventKind::kCollective, "a2a", 0});      // 0
  t.add({0, 0.0, 0.2, EventKind::kCollective, "a2a", 0});      // 1
  t.add({0, 0.3, 0.4, EventKind::kCompute, "a2a", 0});         // 2
  t.add({2, 0.0, 0.1, EventKind::kCollective, "a2a", 0});      // 3
  t.add({0, 0.5, 0.6, EventKind::kCollective, "a2a", 0});      // 4
  t.add({2, 0.5, 0.7, EventKind::kCollective, "a2a", 0});      // 5
  const auto index = classify_collectives(t);
  ASSERT_EQ(index.size(), 1u);
  const CollectiveReport& report = index.at("a2a");
  ASSERT_EQ(report.instances.size(), 2u);
  EXPECT_EQ(report.instances[0].members,
            (std::vector<std::size_t>{1, 0, 3}));
  EXPECT_EQ(report.instances[1].members, (std::vector<std::size_t>{4, 5}));
}

TEST(CollectiveIndex, TheEmptyLabelIsOneMoreLabel) {
  // Two labelled collectives and one unlabelled collective per rank: the
  // unlabelled one is one instance of its own, not all three records.
  Trace t;
  for (std::uint32_t rank = 0; rank < 2; ++rank) {
    t.add({rank, 0.0, 0.1, EventKind::kCollective, "a2a", 0});
    t.add({rank, 0.2, 0.3, EventKind::kCollective, "", 0});
    t.add({rank, 0.4, 0.5, EventKind::kCollective, "a2a", 0});
  }
  const auto index = classify_collectives(t);
  ASSERT_EQ(index.size(), 2u);
  EXPECT_EQ(index.begin()->first, "");
  EXPECT_EQ(index.at("").instances.size(), 1u);
  EXPECT_EQ(index.at("a2a").instances.size(), 2u);
  EXPECT_EQ(analyze_collectives(t, "").instances.size(), 1u);
  EXPECT_TRUE(analyze_collectives(t, "bcast").instances.empty());
}

TEST(CollectiveIndex, RejectsAFactorOfOneOrLess) {
  EXPECT_THROW(classify_collectives(Trace{}, 1.0), support::Error);
}

}  // namespace
}  // namespace mb::trace
