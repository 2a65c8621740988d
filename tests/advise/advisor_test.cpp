// Per-kind fire + silent fixtures for the recommendation rules. Each rule
// gets a synthetic scenario where its evidence is unambiguous (fire) and
// a close variant where one required ingredient is missing (silent) — the
// advisor must never speak without both the measured and the static leg.
#include "advise/advisor.h"

#include <gtest/gtest.h>

#include "arch/platforms.h"
#include "support/check.h"

namespace mb::advise {
namespace {

// A measured 8-rank / 4-node run whose wait concentrates on node 1's
// ranks (2 and 3), matching a fault-plan slowdown of that node.
struct ScenarioFixture {
  obs::Analysis analysis;
  verify::CostReport cost;
  fault::FaultPlan plan;

  ScenarioFixture() {
    analysis.makespan_s = 10.0;
    obs::Straggler s2;
    s2.rank = 2;
    s2.attributed_wait_s = 2.0;
    s2.share = 0.45;
    obs::Straggler s3;
    s3.rank = 3;
    s3.attributed_wait_s = 1.8;
    s3.share = 0.4;
    analysis.stragglers = {s2, s3};

    obs::CollectiveStats stats;
    stats.label = "energy";
    stats.instances = 6;
    stats.median_duration_s = 0.2;
    analysis.collectives = {stats};

    cost.ranks = 8;
    cost.nodes = 4;
    cost.mtu_bytes = 1500;
    cost.makespan_lower_s = 8.0;
    verify::CollectiveCost cc;
    cc.kind = mpi::Op::Kind::kAllreduce;
    cc.label = "energy";
    cc.payload_bytes = 64;  // 64 / (14 rounds * 8 ranks) << mtu
    cost.collectives = {cc};

    fault::NodeSlowdown slow;
    slow.node = 1;
    slow.at_s = 0.0;
    slow.until_s = 5.0;
    slow.factor = 5.0;
    plan.slowdowns = {slow};
  }

  ScenarioFacts facts() const {
    ScenarioFacts f;
    f.analysis = &analysis;
    f.cost = &cost;
    f.plan = &plan;
    f.ranks = 8;
    f.cores_per_node = 2;
    f.measured_makespan_s = 10.0;
    return f;
  }
};

const Recommendation* find_kind(const std::vector<Recommendation>& recs,
                                Kind kind) {
  for (const Recommendation& r : recs)
    if (r.kind == kind) return &r;
  return nullptr;
}

TEST(AdvisorRemap, FiresOnSlowedNodeCarryingTheWait) {
  ScenarioFixture fx;
  const auto recs = advise_scenario(fx.facts());
  const Recommendation* r = find_kind(recs, Kind::kRemapRanks);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->id, "remap-ranks:node1");
  EXPECT_EQ(r->target, "node1");
  EXPECT_DOUBLE_EQ(r->proposed_value, 1.0);
  EXPECT_TRUE(r->appliable);
  EXPECT_GT(r->predicted_delta_lo, 0.0);
  EXPECT_LE(r->predicted_delta_lo, r->predicted_delta_hi);
  EXPECT_LE(r->predicted_delta_hi, 0.9);
  // Evidence: both straggling ranks plus the plan's slowdown window.
  EXPECT_GE(r->evidence.size(), 3u);
  EXPECT_EQ(r->evidence.back().artifact, "mb-fault-plan");
}

TEST(AdvisorRemap, SilentWhenWaitIsBelowTheFloor) {
  ScenarioFixture fx;
  for (obs::Straggler& s : fx.analysis.stragglers)
    s.attributed_wait_s = 0.01;  // 0.2% of makespan < 2% floor
  const auto recs = advise_scenario(fx.facts());
  EXPECT_EQ(find_kind(recs, Kind::kRemapRanks), nullptr);
}

TEST(AdvisorRemap, SilentWithoutAFaultPlan) {
  ScenarioFixture fx;
  ScenarioFacts f = fx.facts();
  f.plan = nullptr;
  EXPECT_EQ(find_kind(advise_scenario(f), Kind::kRemapRanks), nullptr);
}

TEST(AdvisorRemap, SilentWhenTheSlowedNodeCarriesNoWait) {
  ScenarioFixture fx;
  // Move the measured wait to node 0's ranks: the plan and the timeline
  // no longer agree, so the rule must not speak.
  fx.analysis.stragglers[0].rank = 0;
  fx.analysis.stragglers[1].rank = 1;
  const auto recs = advise_scenario(fx.facts());
  EXPECT_EQ(find_kind(recs, Kind::kRemapRanks), nullptr);
}

TEST(AdvisorCollective, FiresOnSubMtuAllreduceSeenInBothViews) {
  ScenarioFixture fx;
  const auto recs = advise_scenario(fx.facts());
  const Recommendation* r = find_kind(recs, Kind::kSwitchCollective);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->id, "switch-collective:energy");
  EXPECT_EQ(r->target, "energy");
  EXPECT_TRUE(r->appliable);
  EXPECT_DOUBLE_EQ(r->predicted_delta_lo, 0.0);
  // 6 instances * 0.2 s * (1 - 6/14 rounds) / 10 s makespan
  EXPECT_NEAR(r->predicted_delta_hi, 0.0686, 0.001);
}

TEST(AdvisorCollective, SilentWhenSegmentsFillTheMtu) {
  ScenarioFixture fx;
  fx.cost.collectives[0].payload_bytes =
      static_cast<std::uint64_t>(1500) * 14 * 8 * 2;
  const auto recs = advise_scenario(fx.facts());
  EXPECT_EQ(find_kind(recs, Kind::kSwitchCollective), nullptr);
}

TEST(AdvisorCollective, SilentBelowTheRankFloor) {
  ScenarioFixture fx;
  fx.cost.ranks = 4;
  const auto recs = advise_scenario(fx.facts());
  EXPECT_EQ(find_kind(recs, Kind::kSwitchCollective), nullptr);
}

TEST(AdvisorCollective, SilentWithoutMeasuredInstances) {
  ScenarioFixture fx;
  fx.analysis.collectives.clear();  // static view alone is not enough
  const auto recs = advise_scenario(fx.facts());
  EXPECT_EQ(find_kind(recs, Kind::kSwitchCollective), nullptr);
}

TEST(AdvisorCheckpoint, FiresWhenIntervalIsFarFromYoungsOptimum) {
  ScenarioFixture fx;
  fault::NodeCrash crash;
  crash.node = 0;
  crash.at_s = 50.0;
  fx.plan.crashes = {crash};
  fx.plan.checkpoint.enabled = true;
  fx.plan.checkpoint.interval_s = 1000.0;
  ScenarioFacts f = fx.facts();
  f.measured_makespan_s = 100.0;
  const auto recs = advise_scenario(f);
  const Recommendation* r = find_kind(recs, Kind::kCheckpointInterval);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->appliable);
  // horizon = makespan_lower 8? no: max(makespan_lower_s=8, last crash 50)
  // = 50, MTBF 50, C = 64 MiB / 100 MB/s = 0.671 s, optimal ~ 8.2 s.
  EXPECT_NEAR(r->proposed_value, 8.2, 0.3);
  EXPECT_GT(r->predicted_delta_hi, 0.0);
}

TEST(AdvisorCheckpoint, SilentInsideTheAcceptanceBand) {
  ScenarioFixture fx;
  fault::NodeCrash crash;
  crash.node = 0;
  crash.at_s = 50.0;
  fx.plan.crashes = {crash};
  fx.plan.checkpoint.enabled = true;
  fx.plan.checkpoint.interval_s = 10.0;  // within 4x of ~8.2 s
  const auto recs = advise_scenario(fx.facts());
  EXPECT_EQ(find_kind(recs, Kind::kCheckpointInterval), nullptr);
}

TEST(AdvisorCheckpoint, SilentWithoutCrashesOrCheckpointing) {
  ScenarioFixture fx;
  fx.plan.checkpoint.enabled = true;  // no crashes -> no MTBF
  EXPECT_EQ(find_kind(advise_scenario(fx.facts()),
                      Kind::kCheckpointInterval),
            nullptr);
  fault::NodeCrash crash;
  fx.plan.crashes = {crash};
  fx.plan.checkpoint.enabled = false;  // crashes but no checkpoint model
  EXPECT_EQ(find_kind(advise_scenario(fx.facts()),
                      Kind::kCheckpointInterval),
            nullptr);
}

TEST(AdvisorSimJobs, AdvisoryAtScaleOnly) {
  ScenarioFixture fx;
  ScenarioFacts f = fx.facts();
  f.ranks = 512;
  f.sim_jobs = 0;
  const auto recs = advise_scenario(f);
  const Recommendation* r = find_kind(recs, Kind::kSimJobs);
  ASSERT_NE(r, nullptr);
  EXPECT_FALSE(r->appliable);
  EXPECT_EQ(r->verdict, Verdict::kAdvisory);
  EXPECT_FALSE(r->verdict_reason.empty());

  f.sim_jobs = 8;  // already sharded
  EXPECT_EQ(find_kind(advise_scenario(f), Kind::kSimJobs), nullptr);
  f.sim_jobs = 0;
  f.ranks = 8;  // too small to matter
  EXPECT_EQ(find_kind(advise_scenario(f), Kind::kSimJobs), nullptr);
}

sim::HierarchicalPoint scalar_bound_placement() {
  sim::HierarchicalPoint p;
  p.name = "magicfilter";
  p.bound_by = "scalar DP";
  p.roofline_fraction = 0.4;
  p.vector_headroom = 2.0;
  return p;
}

TEST(AdvisorKernel, ProposesTheBestVariantWithABracket) {
  const std::vector<KernelSweepPoint> sweep = {
      {1, 100.0}, {4, 60.0}, {8, 80.0}};
  const auto recs =
      advise_kernel(arch::tegra2_node(), "magicfilter", sweep, 1,
                    scalar_bound_placement());
  ASSERT_EQ(recs.size(), 1u);
  const Recommendation& r = recs[0];
  EXPECT_EQ(r.id, "kernel-variant:magicfilter:unroll4");
  EXPECT_EQ(r.kind, Kind::kKernelVariant);
  EXPECT_DOUBLE_EQ(r.proposed_value, 4.0);
  // gain 40%: bracket [0.5 * gain, 1.5 * gain]
  EXPECT_DOUBLE_EQ(r.predicted_delta_lo, 0.2);
  EXPECT_DOUBLE_EQ(r.predicted_delta_hi, 0.6);
  EXPECT_TRUE(r.appliable);
  ASSERT_EQ(r.evidence.size(), 2u);
  EXPECT_EQ(r.evidence[1].artifact, "mb-roofline");
  // The placement reported vector headroom > 1.5: the evidence must
  // mention the vectorization hint.
  EXPECT_NE(r.evidence[1].detail.find("headroom"), std::string::npos);
}

TEST(AdvisorKernel, SilentWhenCurrentIsBestOrGainTiny) {
  const sim::HierarchicalPoint placement = scalar_bound_placement();
  EXPECT_TRUE(advise_kernel(arch::tegra2_node(), "k",
                            {{1, 60.0}, {4, 100.0}}, 1, placement)
                  .empty());
  EXPECT_TRUE(advise_kernel(arch::tegra2_node(), "k",
                            {{1, 100.0}, {4, 99.5}}, 1, placement)
                  .empty());
}

TEST(AdvisorKernel, RequiresTheCurrentVariantInTheSweep) {
  EXPECT_THROW(advise_kernel(arch::tegra2_node(), "k", {{4, 60.0}}, 1,
                             scalar_bound_placement()),
               support::Error);
}

}  // namespace
}  // namespace mb::advise
