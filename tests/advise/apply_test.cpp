// Guarded apply: the acceptance rule (compare significance AND the
// measured delta inside the predicted bracket), seed pairing across arms,
// and the allreduce rewrite. Arms here are synthetic functions so each
// verdict path is driven deterministically.
#include "advise/apply.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "apps/bigdft.h"
#include "support/check.h"

namespace mb::advise {
namespace {

Recommendation appliable_rec(double lo, double hi) {
  Recommendation r;
  r.id = "remap-ranks:node1";
  r.kind = Kind::kRemapRanks;
  r.metric = "seconds";
  r.predicted_delta_lo = lo;
  r.predicted_delta_hi = hi;
  r.appliable = true;
  return r;
}

ApplyOptions test_options() {
  ApplyOptions options;
  options.campaign.cache = false;  // hermetic: no on-disk cache
  options.reps = 3;
  options.seed = 2013;
  return options;
}

Arm constant_arm(std::string name, double value) {
  return Arm{std::move(name), [value](std::uint64_t) { return value; }};
}

TEST(Apply, AcceptsWhenMeasuredDeltaLandsInsideTheBracket) {
  Recommendation rec = appliable_rec(0.1, 0.3);
  verify_recommendation(rec, "test", constant_arm("baseline", 10.0),
                        constant_arm(rec.id, 8.0), test_options());
  EXPECT_EQ(rec.verdict, Verdict::kAccepted);
  EXPECT_DOUBLE_EQ(rec.measured_baseline, 10.0);
  EXPECT_DOUBLE_EQ(rec.measured_candidate, 8.0);
  EXPECT_DOUBLE_EQ(rec.measured_delta, 0.2);
  // The property the golden fixtures pin: an accepted recommendation's
  // prediction brackets what was actually measured.
  EXPECT_GE(rec.measured_delta, rec.predicted_delta_lo);
  EXPECT_LE(rec.measured_delta, rec.predicted_delta_hi);
}

TEST(Apply, RejectsARealImprovementOutsideTheBracket) {
  // The change helps (60% faster) but the advisor promised 10-30%: the
  // model was wrong, and the verdict must say so rather than take credit.
  Recommendation rec = appliable_rec(0.1, 0.3);
  verify_recommendation(rec, "test", constant_arm("baseline", 10.0),
                        constant_arm(rec.id, 4.0), test_options());
  EXPECT_EQ(rec.verdict, Verdict::kRejected);
  EXPECT_NE(rec.verdict_reason.find("outside the predicted bracket"),
            std::string::npos);
}

TEST(Apply, RejectsADeltaBelowTheNoiseModel) {
  // 0.1% improvement: under the 2% min_rel floor, compare calls it
  // unchanged regardless of variance.
  Recommendation rec = appliable_rec(0.0, 0.3);
  verify_recommendation(rec, "test", constant_arm("baseline", 10.0),
                        constant_arm(rec.id, 9.99), test_options());
  EXPECT_EQ(rec.verdict, Verdict::kRejected);
  EXPECT_NE(rec.verdict_reason.find("noise model"), std::string::npos);
}

TEST(Apply, RejectsARegression) {
  Recommendation rec = appliable_rec(0.0, 0.5);
  verify_recommendation(rec, "test", constant_arm("baseline", 10.0),
                        constant_arm(rec.id, 12.0), test_options());
  EXPECT_EQ(rec.verdict, Verdict::kRejected);
  EXPECT_LT(rec.measured_delta, 0.0);
}

TEST(Apply, NoopForNonAppliableRecommendations) {
  Recommendation rec;
  rec.appliable = false;
  rec.verdict = Verdict::kAdvisory;
  verify_recommendation(rec, "test", constant_arm("baseline", 10.0),
                        constant_arm("candidate", 1.0), test_options());
  EXPECT_EQ(rec.verdict, Verdict::kAdvisory);
  EXPECT_DOUBLE_EQ(rec.measured_baseline, 0.0);
}

TEST(Apply, RepSeedsArePairedAcrossArms) {
  std::vector<std::uint64_t> baseline_seeds, candidate_seeds;
  Recommendation rec = appliable_rec(0.0, 0.9);
  const Arm baseline{"baseline", [&](std::uint64_t s) {
                       baseline_seeds.push_back(s);
                       return 10.0;
                     }};
  const Arm candidate{rec.id, [&](std::uint64_t s) {
                        candidate_seeds.push_back(s);
                        return 8.0;
                      }};
  verify_recommendation(rec, "test", baseline, candidate, test_options());
  ASSERT_EQ(baseline_seeds.size(), 3u);
  EXPECT_EQ(baseline_seeds, candidate_seeds);  // rep i paired
  EXPECT_EQ(std::set<std::uint64_t>(baseline_seeds.begin(),
                                    baseline_seeds.end())
                .size(),
            3u);  // but reps are independent
}

TEST(Apply, VerdictIsDeterministic) {
  Recommendation a = appliable_rec(0.1, 0.3);
  Recommendation b = a;
  const auto options = test_options();
  verify_recommendation(a, "test", constant_arm("baseline", 10.0),
                        constant_arm(a.id, 8.0), options);
  verify_recommendation(b, "test", constant_arm("baseline", 10.0),
                        constant_arm(b.id, 8.0), options);
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_DOUBLE_EQ(a.measured_delta, b.measured_delta);
  EXPECT_EQ(a.verdict_reason, b.verdict_reason);
}

TEST(Apply, RewriteAllreduceSplitsOnlyTheNamedCollective) {
  mpi::Program program(4);
  for (std::uint32_t r = 0; r < 4; ++r) {
    program.append(r, mpi::Op::compute(1.0));
    program.append(r, mpi::Op::allreduce(64, "energy"));
    program.append(r, mpi::Op::allreduce(1 << 20, "density"));
  }
  const mpi::Program rewritten = rewrite_allreduce(program, "energy");
  for (std::uint32_t r = 0; r < 4; ++r) {
    const auto& ops = rewritten.rank(r);
    ASSERT_EQ(ops.size(), 4u);  // compute, reduce, bcast, allreduce
    EXPECT_EQ(ops[0].kind, mpi::Op::Kind::kCompute);
    EXPECT_EQ(ops[1].kind, mpi::Op::Kind::kReduce);
    EXPECT_EQ(ops[1].label, "energy");
    EXPECT_EQ(ops[1].bytes, 64u);
    EXPECT_EQ(ops[1].root, 0u);
    EXPECT_EQ(ops[2].kind, mpi::Op::Kind::kBcast);
    EXPECT_EQ(ops[2].label, "energy");
    EXPECT_EQ(ops[3].kind, mpi::Op::Kind::kAllreduce);
    EXPECT_EQ(ops[3].label, "density");
  }
}

// A Program holds one block of alltoallv counts per op, whichever rank
// or copy reads it: bigdft's transposes at 1024 ranks would otherwise
// hold 1024 copies of a 1024-entry vector per instance.
TEST(Apply, RewriteAllreduceKeepsSharedAlltoallvCounts) {
  apps::BigDftParams params;
  params.ranks = 1024;
  params.iterations = 2;
  const mpi::Program program = apps::bigdft_program(params);
  const mpi::Program copy = program;
  const mpi::Program rewritten =
      rewrite_allreduce(program, "energy_allreduce");
  // Each alltoallv instance's block, as rank 0 of the original reads it.
  std::vector<const std::uint64_t*> blocks;
  for (const mpi::Op& op : program.rank(0)) {
    if (op.kind != mpi::Op::Kind::kAlltoallv) continue;
    ASSERT_EQ(op.counts.size(), 1024u);
    blocks.push_back(&op.counts[0]);
  }
  ASSERT_EQ(blocks.size(), 4u);  // 2 iterations x 2 transposes
  for (const mpi::Program* p : {&program, &copy, &rewritten}) {
    for (std::uint32_t r = 0; r < params.ranks; ++r) {
      std::size_t instance = 0;
      for (const mpi::Op& op : p->rank(r)) {
        if (op.kind != mpi::Op::Kind::kAlltoallv) continue;
        ASSERT_LT(instance, blocks.size());
        ASSERT_EQ(&op.counts[0], blocks[instance++]) << "rank " << r;
      }
      EXPECT_EQ(instance, blocks.size());
    }
  }
}

}  // namespace
}  // namespace mb::advise
