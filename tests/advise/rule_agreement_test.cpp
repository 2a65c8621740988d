// The advisor's switch-collective and checkpoint-interval rules must speak
// exactly when the static PERF006 and PERF004 findings do: both read one
// condition (verify/perf_rules.h). A seeded grid of cost reports and
// fault plans straddling the MTU and the ×4 band around Young's optimum
// keeps the two views from drifting apart.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <string>

#include "advise/advisor.h"
#include "support/rng.h"
#include "verify/perf_rules.h"
#include "verify/rules.h"

namespace mb::advise {
namespace {

constexpr int kCases = 400;

/// A cost report of `ranks` ranks whose collectives' ring segments land
/// just below, at or above the MTU (or far below it), with a mix of
/// kinds and some repeated labels.
verify::CostReport random_cost(support::Rng& rng) {
  verify::CostReport cost;
  cost.ranks = static_cast<std::uint32_t>(rng.uniform_u64(8, 64));
  cost.mtu_bytes = rng.bernoulli(0.5) ? 1500 : 9000;
  cost.per_rank.resize(cost.ranks);
  cost.makespan_lower_s = rng.uniform(1.0, 100.0);
  const std::uint64_t per_segment = 2ull * (cost.ranks - 1) * cost.ranks;
  const std::uint64_t n = rng.uniform_u64(1, 6);
  for (std::uint64_t i = 0; i < n; ++i) {
    verify::CollectiveCost cc;
    cc.kind = rng.bernoulli(0.8) ? mpi::Op::Kind::kAllreduce
                                 : mpi::Op::Kind::kBcast;
    cc.op_index = static_cast<std::size_t>(i);
    cc.label = "c" + std::to_string(rng.uniform_u64(0, 3));
    const std::uint64_t segment =
        rng.bernoulli(0.2) ? rng.uniform_u64(0, 8)
                           : cost.mtu_bytes - 2 + rng.uniform_u64(0, 4);
    cc.payload_bytes = segment * per_segment +
                       rng.uniform_u64(0, per_segment - 1);
    cost.collectives.push_back(cc);
  }
  return cost;
}

/// A measured timeline that saw some of the labels the cost report names.
obs::Analysis random_analysis(support::Rng& rng) {
  obs::Analysis analysis;
  for (int l = 0; l < 4; ++l) {
    if (rng.bernoulli(0.25)) continue;
    obs::CollectiveStats stats;
    stats.label = "c" + std::to_string(l);
    stats.instances = static_cast<std::size_t>(rng.uniform_u64(0, 5));
    stats.median_duration_s = rng.uniform(0.01, 1.0);
    analysis.collectives.push_back(stats);
  }
  return analysis;
}

/// 1-3 crashes, checkpointing mostly on, an interval log-uniform in
/// [0.01, 1000] s and a checkpoint cost from 1 MiB to 1 GiB of state.
fault::FaultPlan random_plan(support::Rng& rng) {
  fault::FaultPlan plan;
  const std::uint64_t crashes = rng.uniform_u64(1, 3);
  for (std::uint64_t i = 0; i < crashes; ++i)
    plan.crashes.push_back(
        {static_cast<std::uint32_t>(i), rng.uniform(0.0, 200.0)});
  plan.checkpoint.enabled = rng.bernoulli(0.9);
  plan.checkpoint.interval_s = std::pow(10.0, rng.uniform(-2.0, 3.0));
  plan.checkpoint.state_bytes_per_rank =
      std::pow(2.0, rng.uniform(20.0, 30.0));
  return plan;
}

std::set<std::string> recommended_collectives(
    const std::vector<Recommendation>& recs) {
  std::set<std::string> labels;
  for (const Recommendation& r : recs)
    if (r.kind == Kind::kSwitchCollective) labels.insert(r.target);
  return labels;
}

const Recommendation* checkpoint_recommendation(
    const std::vector<Recommendation>& recs) {
  for (const Recommendation& r : recs)
    if (r.kind == Kind::kCheckpointInterval) return &r;
  return nullptr;
}

TEST(RuleAgreement, SwitchCollectiveFiresOnExactlyTheMeasuredPerf006Labels) {
  support::Rng rng(2013);
  std::size_t fired = 0;
  std::size_t flagged = 0;
  for (int i = 0; i < kCases; ++i) {
    const verify::CostReport cost = random_cost(rng);
    const obs::Analysis analysis = random_analysis(rng);
    verify::CostDescriptor descriptor;  // the one analyze_cost read
    descriptor.mtu_bytes = cost.mtu_bytes;
    const verify::Report perf =
        verify::perf_pass(mpi::Program(cost.ranks), descriptor, cost);

    std::set<std::string> measured;
    for (const obs::CollectiveStats& s : analysis.collectives)
      if (s.instances > 0) measured.insert(s.label);
    std::set<std::string> expected;
    for (const verify::Diagnostic& d : perf.findings()) {
      if (d.rule != verify::kRulePerfCollectiveAlgorithm) continue;
      ++flagged;
      const std::string& label = cost.collectives[d.location.op_index].label;
      if (measured.count(label) != 0) expected.insert(label);
    }

    ScenarioFacts facts;
    facts.analysis = &analysis;
    facts.cost = &cost;
    facts.perf = &perf;
    facts.ranks = cost.ranks;
    facts.measured_makespan_s = 50.0;
    const std::set<std::string> got =
        recommended_collectives(advise_scenario(facts));
    EXPECT_EQ(got, expected) << "case " << i << ": " << cost.ranks
                             << " ranks, mtu " << cost.mtu_bytes;
    fired += got.size();
  }
  // The grid exercises both answers.
  EXPECT_GT(fired, 0u);
  EXPECT_GT(flagged, fired);
}

TEST(RuleAgreement, CheckpointIntervalFiresExactlyWhenPerf004FlagsTheInterval) {
  support::Rng rng(2014);
  std::size_t fired = 0;
  for (int i = 0; i < kCases; ++i) {
    verify::CostReport cost;
    cost.ranks = 8;
    cost.per_rank.resize(cost.ranks);
    cost.makespan_lower_s = rng.uniform(1.0, 100.0);
    const fault::FaultPlan plan = random_plan(rng);
    const verify::Report perf = verify::perf_pass(
        mpi::Program(cost.ranks), verify::CostDescriptor{}, cost, &plan);

    bool flags_interval = false;
    for (const verify::Diagnostic& d : perf.findings())
      flags_interval |= d.rule == verify::kRulePerfCheckpointInterval &&
                        d.location.config_key == "checkpoint.interval_s";

    ScenarioFacts facts;
    facts.cost = &cost;
    facts.perf = &perf;
    facts.plan = &plan;
    facts.ranks = cost.ranks;
    facts.measured_makespan_s = 50.0;
    const std::vector<Recommendation> recs = advise_scenario(facts);
    const Recommendation* r = checkpoint_recommendation(recs);
    ASSERT_EQ(r != nullptr, flags_interval) << "case " << i;
    if (r == nullptr) continue;
    ++fired;
    const auto fit = verify::checkpoint_fit(plan, cost.makespan_lower_s);
    ASSERT_TRUE(fit.has_value());
    // Bit-equal: both read the one optimum.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r->proposed_value),
              std::bit_cast<std::uint64_t>(fit->optimal_s))
        << "case " << i;
  }
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, static_cast<std::size_t>(kCases));
}

}  // namespace
}  // namespace mb::advise
