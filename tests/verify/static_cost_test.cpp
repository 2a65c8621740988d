// Unit tests for the pass-3 abstract cost interpreter plus the seeded
// PERF fixture corpus: one deliberately slow program and one clean
// program per PERF rule, asserting the rule fires exactly where the
// fixture is broken and stays quiet where it is not.
#include "verify/static_cost.h"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "fault/plan.h"
#include "net/topology.h"
#include "support/check.h"
#include "support/json.h"
#include "verify/mpi_verify.h"
#include "verify/perf_rules.h"
#include "verify/rules.h"

namespace mb::verify {
namespace {

using mpi::Op;
using mpi::Program;

/// Descriptor for a small Tibidabo-like cluster sized to the program
/// (2 ranks per node, ranks must be even).
CostDescriptor tibidabo_descriptor(std::uint32_t ranks) {
  CostDescriptor d;
  d.tree = net::tibidabo_tree(ranks / 2);
  return d;
}

// ---------------------------------------------------------------------------
// Exact traffic accounting.

TEST(StaticCost, CountsP2pBytesExactly) {
  Program p(4);
  p.rank(0).push_back(Op::send(2, 1000, 1));  // cross-node (nodes 0 -> 1)
  p.rank(2).push_back(Op::recv(0, 1));
  p.rank(0).push_back(Op::send(1, 500, 2));  // intra-node (both on node 0)
  p.rank(1).push_back(Op::recv(0, 2));
  const CostReport r = analyze_cost(p, tibidabo_descriptor(4));

  EXPECT_EQ(r.ranks, 4u);
  EXPECT_EQ(r.nodes, 2u);
  EXPECT_EQ(r.per_rank[0].bytes_sent, 1500u);
  EXPECT_EQ(r.per_rank[0].messages_sent, 2u);
  EXPECT_EQ(r.per_rank[1].bytes_received, 500u);
  EXPECT_EQ(r.per_rank[2].bytes_received, 1000u);
  EXPECT_EQ(r.total_bytes, 1500u);
  EXPECT_EQ(r.total_messages, 2u);
  EXPECT_EQ(r.intra_messages, 1u);
  EXPECT_EQ(r.net_messages, 1u);
  // 1000 payload bytes in 1500-byte frames: one frame.
  EXPECT_EQ(r.total_frames, 1u);
}

TEST(StaticCost, CollectiveTrafficMatchesTheLowering) {
  // Ring allreduce moves 2*(p-1) chunks of bytes/p per rank.
  const std::uint32_t ranks = 4;
  const std::uint64_t bytes = 4000;
  Program p(ranks);
  for (std::uint32_t r = 0; r < ranks; ++r)
    p.rank(r).push_back(Op::allreduce(bytes));
  const CostReport r = analyze_cost(p, tibidabo_descriptor(ranks));

  const std::uint64_t per_rank = 2 * (ranks - 1) * (bytes / ranks);
  for (std::uint32_t i = 0; i < ranks; ++i) {
    EXPECT_EQ(r.per_rank[i].bytes_sent, per_rank) << "rank " << i;
    EXPECT_EQ(r.per_rank[i].bytes_received, per_rank) << "rank " << i;
  }
  ASSERT_EQ(r.collectives.size(), 1u);
  EXPECT_EQ(r.collectives[0].kind, Op::Kind::kAllreduce);
  EXPECT_EQ(r.collectives[0].payload_bytes, per_rank * ranks);
}

TEST(StaticCost, BoundsAreOrderedAndPositive) {
  Program p(8);
  for (std::uint32_t r = 0; r < 8; ++r) {
    p.rank(r).push_back(Op::compute(0.01));
    p.rank(r).push_back(Op::allreduce(64 << 10));
  }
  const CostReport r = analyze_cost(p, tibidabo_descriptor(8));
  EXPECT_GT(r.makespan_lower_s, 0.0);
  EXPECT_GE(r.makespan_serialized_s, r.makespan_lower_s);
  EXPECT_GE(r.makespan_upper_s, r.makespan_serialized_s);
  EXPECT_NEAR(r.makespan_upper_s,
              r.makespan_serialized_s + r.retransmit_allowance_s, 1e-9);
  // The serialized sum contains every rank's compute.
  EXPECT_GE(r.makespan_serialized_s, r.total_compute_s);
}

TEST(StaticCost, LowerBoundSeesComputeCriticalPath) {
  Program p(2);
  p.rank(0).push_back(Op::compute(2.0));
  p.rank(1).push_back(Op::compute(0.5));
  const CostReport r = analyze_cost(p, tibidabo_descriptor(2));
  EXPECT_NEAR(r.makespan_lower_s, 2.0, 1e-9);
  EXPECT_NEAR(r.per_rank[1].finish_lower_s, 0.5, 1e-9);
}

TEST(StaticCost, ThrowsOnRankTreeMismatch) {
  Program p(4);
  CostDescriptor d;
  d.tree = net::tibidabo_tree(8);  // 16 slots for a 4-rank program
  EXPECT_THROW(analyze_cost(p, d), support::Error);
}

// An unverified program's short counts vector is an error, never a read
// past its end.
TEST(StaticCost, ThrowsOnShortAlltoallvCounts) {
  Program p(4);
  for (std::uint32_t r = 0; r < 4; ++r)
    p.rank(r).push_back(Op::alltoallv({1, 2}));
  EXPECT_THROW(analyze_cost(p, tibidabo_descriptor(4)), support::Error);
}

TEST(StaticCost, JsonDocumentIsSchemaValid) {
  Program p(4);
  for (std::uint32_t r = 0; r < 4; ++r)
    p.rank(r).push_back(Op::allreduce(1 << 20));
  const CostDescriptor d = tibidabo_descriptor(4);
  const CostReport cost = analyze_cost(p, d);
  const Report perf = perf_pass(p, d, cost);

  const auto doc =
      support::parse_json(static_analysis_to_json(cost, "unit", 7, perf));
  EXPECT_EQ(doc.at("schema").as_string(), "mb-static-analysis");
  EXPECT_EQ(doc.at("schema_version").as_number(), 1.0);
  EXPECT_EQ(doc.at("tool").as_string(), "mb_verify");
  EXPECT_FALSE(doc.at("tool_version").as_string().empty());
  EXPECT_EQ(doc.at("source").as_string(), "unit");
  EXPECT_EQ(doc.at("seed").as_number(), 7.0);
  EXPECT_EQ(doc.at("ranks").as_number(), 4.0);
  EXPECT_GT(doc.at("totals").at("payload_bytes").as_number(), 0.0);
  EXPECT_GE(doc.at("bounds").at("makespan_upper_s").as_number(),
            doc.at("bounds").at("makespan_lower_s").as_number());
  EXPECT_EQ(doc.at("per_rank").at("bytes_sent").as_array().size(), 4u);
  EXPECT_EQ(doc.at("per_rank").at("finish_lower_s").as_array().size(), 4u);
  EXPECT_GE(doc.at("link_classes").as_array().size(), 1u);
  EXPECT_EQ(doc.at("collectives").as_array().size(), 1u);
  ASSERT_NE(doc.find("findings"), nullptr);
  ASSERT_NE(doc.find("counts"), nullptr);
}

// ---------------------------------------------------------------------------
// PERF fixture corpus: one broken + one clean program per rule.

/// Runs the full static pipeline (verify gate, cost walk, PERF pass) the
/// way `mbctl analyze-static` does and returns the PERF findings.
Report perf_findings(const Program& p, const CostDescriptor& d,
                     const fault::FaultPlan* plan = nullptr) {
  const Report verdict = verify_program(p);
  EXPECT_FALSE(verdict.has_errors()) << render_diagnostics(verdict);
  return perf_pass(p, d, analyze_cost(p, d), plan);
}

TEST(PerfRules, Perf001FiresOnOneOverloadedSender) {
  // Rank 0 ships 8 MiB while everyone else moves a token: ratio and
  // absolute excess both clear the thresholds.
  Program p(8);
  p.rank(0).push_back(Op::send(4, 8 << 20, 1));
  p.rank(4).push_back(Op::recv(0, 1));
  for (std::uint32_t r = 1; r < 4; ++r) {
    p.rank(r).push_back(Op::send(r + 4, 1024, 2));
    p.rank(r + 4).push_back(Op::recv(r, 2));
  }
  const Report report = perf_findings(p, tibidabo_descriptor(8));
  EXPECT_TRUE(report.has_rule(kRulePerfImbalance))
      << render_diagnostics(report);
}

TEST(PerfRules, Perf001QuietOnBalancedTraffic) {
  Program p(8);
  for (std::uint32_t r = 0; r < 4; ++r) {
    p.rank(r).push_back(Op::send(r + 4, 2 << 20, 1));
    p.rank(r + 4).push_back(Op::recv(r, 1));
  }
  const Report report = perf_findings(p, tibidabo_descriptor(8));
  EXPECT_FALSE(report.has_rule(kRulePerfImbalance))
      << render_diagnostics(report);
}

TEST(PerfRules, Perf002FiresOnBigAlltoallOnCheapSwitches) {
  // 16 ranks x 256 KiB pair payload: each destination drains ~4 MiB
  // through a 128 KiB switch buffer at once.
  Program p(16);
  for (std::uint32_t r = 0; r < 16; ++r)
    p.rank(r).push_back(
        Op::alltoallv(std::vector<std::uint64_t>(16, 256 << 10)));
  const Report report = perf_findings(p, tibidabo_descriptor(16));
  EXPECT_TRUE(report.has_rule(kRulePerfIncast))
      << render_diagnostics(report);
}

TEST(PerfRules, Perf002QuietWhenTheBurstFitsTheBuffer) {
  Program p(16);
  for (std::uint32_t r = 0; r < 16; ++r)
    p.rank(r).push_back(
        Op::alltoallv(std::vector<std::uint64_t>(16, 512)));
  const Report report = perf_findings(p, tibidabo_descriptor(16));
  EXPECT_FALSE(report.has_rule(kRulePerfIncast))
      << render_diagnostics(report);
}

TEST(PerfRules, Perf003FiresOnAStructurallyLateSender) {
  // Rank 1 computes 5 s before sending; rank 0 posts its receive
  // immediately and can only wait.
  Program p(2);
  p.rank(0).push_back(Op::recv(1, 1));
  p.rank(1).push_back(Op::compute(5.0));
  p.rank(1).push_back(Op::send(0, 1024, 1));
  const Report report = perf_findings(p, tibidabo_descriptor(2));
  EXPECT_TRUE(report.has_rule(kRulePerfLateSender))
      << render_diagnostics(report);
}

TEST(PerfRules, Perf003QuietWhenComputeIsBalanced) {
  Program p(2);
  p.rank(0).push_back(Op::compute(5.0));
  p.rank(0).push_back(Op::recv(1, 1));
  p.rank(1).push_back(Op::compute(5.0));
  p.rank(1).push_back(Op::send(0, 1024, 1));
  const Report report = perf_findings(p, tibidabo_descriptor(2));
  EXPECT_FALSE(report.has_rule(kRulePerfLateSender))
      << render_diagnostics(report);
}

TEST(PerfRules, Perf004FiresWhenCrashesButNoCheckpointing) {
  Program p(2);
  p.rank(0).push_back(Op::compute(10.0));
  p.rank(1).push_back(Op::compute(10.0));
  fault::FaultPlan plan;
  plan.crashes.push_back({0, 5.0});
  plan.checkpoint.enabled = false;
  const Report report = perf_findings(p, tibidabo_descriptor(2), &plan);
  EXPECT_TRUE(report.has_rule(kRulePerfCheckpointInterval))
      << render_diagnostics(report);
}

TEST(PerfRules, Perf004FiresOnAnIntervalFarFromYoungsOptimum) {
  Program p(2);
  p.rank(0).push_back(Op::compute(100.0));
  p.rank(1).push_back(Op::compute(100.0));
  fault::FaultPlan plan;
  plan.crashes.push_back({0, 50.0});
  plan.checkpoint.enabled = true;
  // MTBF 100 s, C = 64 MiB / 100 MB/s ~ 0.67 s, optimum ~ 11.6 s.
  plan.checkpoint.interval_s = 1000.0;
  const Report report = perf_findings(p, tibidabo_descriptor(2), &plan);
  EXPECT_TRUE(report.has_rule(kRulePerfCheckpointInterval))
      << render_diagnostics(report);
}

TEST(PerfRules, Perf004QuietNearTheOptimum) {
  Program p(2);
  p.rank(0).push_back(Op::compute(100.0));
  p.rank(1).push_back(Op::compute(100.0));
  fault::FaultPlan plan;
  plan.crashes.push_back({0, 50.0});
  plan.checkpoint.enabled = true;
  const double mtbf = 100.0;
  const double cost_s = plan.checkpoint.state_bytes_per_rank /
                        plan.checkpoint.write_bandwidth_bytes_per_s;
  plan.checkpoint.interval_s = std::sqrt(2.0 * mtbf * cost_s);
  const Report report = perf_findings(p, tibidabo_descriptor(2), &plan);
  EXPECT_FALSE(report.has_rule(kRulePerfCheckpointInterval))
      << render_diagnostics(report);
}

TEST(PerfRules, Perf004QuietWithoutAFaultPlan) {
  Program p(2);
  p.rank(0).push_back(Op::compute(1.0));
  p.rank(1).push_back(Op::compute(1.0));
  const Report report = perf_findings(p, tibidabo_descriptor(2));
  EXPECT_FALSE(report.has_rule(kRulePerfCheckpointInterval))
      << render_diagnostics(report);
}

/// Descriptor with two leaf switches: 8 nodes on 4-port switches.
CostDescriptor two_leaf_descriptor() {
  CostDescriptor d;
  d.tree = net::tibidabo_tree(8);
  d.tree.switch_ports = 4;
  return d;
}

TEST(PerfRules, Perf005FiresOnAStrideMappingAcrossTheRoot) {
  // Pairwise exchange with the partner 8 ranks away: degree 1, and every
  // byte crosses the root switch. Renumbering would localize all of it.
  Program p(16);
  for (std::uint32_t r = 0; r < 8; ++r) {
    const std::uint32_t partner = r + 8;
    p.rank(r).push_back(Op::send(partner, 1 << 20, 1));
    p.rank(r).push_back(Op::recv(partner, 2));
    p.rank(partner).push_back(Op::recv(r, 1));
    p.rank(partner).push_back(Op::send(r, 1 << 20, 2));
  }
  const Report report = perf_findings(p, two_leaf_descriptor());
  EXPECT_TRUE(report.has_rule(kRulePerfCrossSwitchMapping))
      << render_diagnostics(report);
}

TEST(PerfRules, Perf005QuietOnAContiguousMapping) {
  // Same exchange volume, partner next door: everything stays inside a
  // leaf subtree.
  Program p(16);
  for (std::uint32_t r = 0; r < 16; r += 2) {
    const std::uint32_t partner = r + 1;
    p.rank(r).push_back(Op::send(partner, 1 << 20, 1));
    p.rank(r).push_back(Op::recv(partner, 2));
    p.rank(partner).push_back(Op::recv(r, 1));
    p.rank(partner).push_back(Op::send(r, 1 << 20, 2));
  }
  const Report report = perf_findings(p, two_leaf_descriptor());
  EXPECT_FALSE(report.has_rule(kRulePerfCrossSwitchMapping))
      << render_diagnostics(report);
}

TEST(PerfRules, Perf006FiresOnATinyRingAllreduce) {
  Program p(16);
  for (std::uint32_t r = 0; r < 16; ++r)
    p.rank(r).push_back(Op::allreduce(64, "energy"));
  const Report report = perf_findings(p, tibidabo_descriptor(16));
  EXPECT_TRUE(report.has_rule(kRulePerfCollectiveAlgorithm))
      << render_diagnostics(report);
}

TEST(PerfRules, Perf006QuietOnABandwidthBoundAllreduce) {
  Program p(16);
  for (std::uint32_t r = 0; r < 16; ++r)
    p.rank(r).push_back(Op::allreduce(16 << 20, "gradients"));
  const Report report = perf_findings(p, tibidabo_descriptor(16));
  EXPECT_FALSE(report.has_rule(kRulePerfCollectiveAlgorithm))
      << render_diagnostics(report);
}

}  // namespace
}  // namespace mb::verify
