// Unit tests for the pass-3 abstract cost interpreter plus the seeded
// PERF fixture corpus: one deliberately slow program and one clean
// program per PERF rule, asserting the rule fires exactly where the
// fixture is broken and stays quiet where it is not.
#include "verify/static_cost.h"

#include <cmath>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "apps/scenario.h"
#include "fault/plan.h"
#include "gen/generator.h"
#include "net/topology.h"
#include "support/check.h"
#include "support/hash.h"
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

// A program analyze_cost cannot bound fails loudly, naming why. Neither
// is verified first; verify_program would reject both.
TEST(StaticCost, ThrowsWhenTheAbstractExecutionStalls) {
  Program p(2);  // both ranks receive first: a two-rank wait-for cycle
  p.rank(0).push_back(Op::recv(1, 2));
  p.rank(0).push_back(Op::send(1, 1024, 1));
  p.rank(1).push_back(Op::recv(0, 1));
  p.rank(1).push_back(Op::send(0, 1024, 3));
  try {
    analyze_cost(p, tibidabo_descriptor(2));
    ADD_FAILURE() << "a deadlocked program was bounded";
  } catch (const support::Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "abstract execution stalled (rank 0 blocked)"),
              std::string::npos)
        << e.what();
  }
}

TEST(StaticCost, ThrowsWhenARankIssuesMoreOrFewerCollectives) {
  for (const bool more : {true, false}) {
    Program p(4);
    p.append_all(Op::allreduce(4000));
    p.append_all(Op::bcast(0, 1000));
    if (more)
      p.rank(1).push_back(Op::barrier());
    else
      p.rank(1).pop_back();
    try {
      analyze_cost(p, tibidabo_descriptor(4));
      ADD_FAILURE() << "rank 1 with one collective "
                    << (more ? "more" : "fewer") << " was bounded";
    } catch (const support::Error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "collective sequence differs across ranks"),
                std::string::npos)
          << e.what();
    }
  }
}

// Totals are exact or refused: a sum past 2^64 - 1 throws, naming where,
// instead of wrapping. Same-node messages have no frame limit, so only
// the sums stop these two.
TEST(StaticCost, ThrowsWhenABytesTotalPasses64Bits) {
  Program p(2);
  for (const std::int32_t tag : {1, 2}) {
    p.rank(0).push_back(Op::send(1, std::uint64_t{1} << 63, tag));
    p.rank(1).push_back(Op::recv(0, tag));
  }
  try {
    const CostReport r = analyze_cost(p, tibidabo_descriptor(2));
    ADD_FAILURE() << "2^64 bytes reported as " << r.total_bytes;
  } catch (const support::Error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 0 op 1: payload bytes pass "
                                         "2^64 - 1"),
              std::string::npos)
        << e.what();
  }
}

// The network sends a message of at most 2^32 - 1 frames; the static pass
// refuses the first one past that, as the DES would, before counting it.
TEST(StaticCost, RefusesANetworkMessageOf2To32Frames) {
  const std::uint64_t limit = (std::uint64_t{1} << 32) - 1;
  for (const std::uint64_t bytes : {limit * 1500, limit * 1500 + 1}) {
    Program p(4);
    p.rank(0).push_back(Op::send(2, bytes, 1));  // node 0 -> node 1
    p.rank(2).push_back(Op::recv(0, 1));
    if (bytes == limit * 1500) {
      EXPECT_EQ(analyze_cost(p, tibidabo_descriptor(4)).total_frames, limit);
      continue;
    }
    try {
      analyze_cost(p, tibidabo_descriptor(4));
      ADD_FAILURE() << "a message of 2^32 frames was bounded";
    } catch (const support::Error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "rank 0 op 0: a message of " + std::to_string(bytes) +
                    " bytes to rank 2 is 2^32 or more frames at mtu 1500"),
                std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Pinned reports: a digest of every CostReport field for real programs, so
// a rewrite of the walks that moves any count, burst or bound bit fails.

/// Every field of `r`; doubles by their IEEE bit patterns.
std::uint64_t cost_digest(const CostReport& r) {
  support::Hasher h;
  h.u64(r.ranks).u64(r.nodes).u64(r.leaves).u64(r.mtu_bytes);
  h.u64(r.per_rank.size());
  for (const RankCost& rc : r.per_rank)
    h.u64(rc.bytes_sent)
        .u64(rc.bytes_received)
        .u64(rc.messages_sent)
        .u64(rc.messages_received)
        .f64(rc.compute_s)
        .f64(rc.finish_lower_s)
        .f64(rc.wait_p2p_lower_s)
        .u64(rc.worst_wait_op)
        .f64(rc.worst_wait_s);
  h.u64(r.total_bytes)
      .u64(r.total_messages)
      .u64(r.intra_messages)
      .u64(r.net_messages)
      .u64(r.total_frames)
      .f64(r.total_compute_s);
  h.f64(r.makespan_lower_s)
      .f64(r.makespan_upper_s)
      .f64(r.makespan_serialized_s)
      .f64(r.retransmit_allowance_s)
      .u64(r.no_drop_certified);
  h.u64(r.link_classes.size());
  for (const LinkClassCost& lc : r.link_classes)
    h.str(lc.name)
        .u64(lc.links)
        .u64(lc.messages)
        .u64(lc.wire_bytes)
        .u64(lc.max_link_wire_bytes)
        .u64(lc.max_inflight_est)
        .f64(lc.buffer_bytes)
        .u64(lc.congested_links)
        .u64(lc.no_drop_certified);
  h.u64(r.collectives.size());
  for (const CollectiveCost& cc : r.collectives)
    h.u64(static_cast<std::uint64_t>(cc.kind))
        .u64(cc.op_index)
        .str(cc.label)
        .u64(cc.payload_bytes)
        .u64(cc.worst_host_down)
        .u64(cc.worst_uplink);
  h.u64(r.max_rank_bytes).f64(r.mean_rank_bytes);
  return h.digest();
}

CostDescriptor tree_descriptor(std::uint32_t ranks, bool upgraded,
                               std::uint32_t mtu_bytes) {
  CostDescriptor d;
  d.tree = upgraded ? net::upgraded_tree(ranks / 2)
                    : net::tibidabo_tree(ranks / 2);
  d.mtu_bytes = mtu_bytes;
  return d;
}

TEST(StaticCost, AppReportsArePinned) {
  struct Case {
    const char* name;
    apps::AppParams params;
    bool upgraded;
    std::uint32_t mtu_bytes;
    const char* digest;
  };
  const Case cases[] = {
      // mbctl analyze-static fig4 at its default seed: one leaf, then two.
      {"fig4/36", apps::scenario("fig4", 36, 1).params, false, 1500,
       "87d6138816fff45c"},
      {"fig4/128", apps::scenario("fig4", 128, 1).params, false, 1500,
       "6628ed853aa38516"},
      // perfbench's static program.
      {"bigdft/192", apps::BigDftParams{.ranks = 192, .seed = 2013}, false,
       1500, "23f103e08333d247"},
      {"hpl/64", apps::HplParams{.ranks = 64, .n = 2048, .block = 128}, true,
       9000, "bd4c47eff8c09c81"},
      {"specfem/256", apps::SpecfemParams{.ranks = 256}, false, 1500,
       "5753054e95c66a7d"},
  };
  for (const Case& c : cases) {
    const Program p = apps::build_program(c.params);
    const CostReport r =
        analyze_cost(p, tree_descriptor(p.ranks(), c.upgraded, c.mtu_bytes));
    EXPECT_EQ(support::hex64(cost_digest(r)), c.digest) << c.name;
  }
}

TEST(StaticCost, GeneratedReportsArePinned) {
  // Five seeds per pattern and tree, from one leaf to two (128 ranks).
  const std::uint32_t kRanks[] = {4, 8, 16, 64, 128};
  const struct {
    gen::Pattern pattern;
    const char* tibidabo;
    const char* upgraded;
  } cases[] = {
      {gen::Pattern::kHalo, "0095374d494837cc", "8b7f107186680dcf"},
      {gen::Pattern::kAllToAll, "7c394bd92675c8e4", "33192c30ff342153"},
      {gen::Pattern::kPipeline, "d3d87582f4edab13", "5744565b711a8b3f"},
      {gen::Pattern::kMasterWorker, "965da7c9bde5e3ea", "a0f76672d2958f58"},
      {gen::Pattern::kMixed, "a9dd69be369be486", "c570e3f3b0ce53f2"},
  };
  for (const auto& c : cases) {
    for (const bool upgraded : {false, true}) {
      support::Hasher h;
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        gen::GenParams params;
        params.pattern = c.pattern;
        params.ranks = kRanks[seed - 1];
        params.collective_prob = 0.8;
        const gen::GeneratedProgram g = gen::generate(seed, params);
        ASSERT_FALSE(g.has_defect());
        h.u64(cost_digest(analyze_cost(
            g.program, tree_descriptor(params.ranks, upgraded, 1500))));
      }
      EXPECT_EQ(support::hex64(h.digest()),
                upgraded ? c.upgraded : c.tibidabo)
          << gen::pattern_name(c.pattern)
          << (upgraded ? " on the upgraded tree" : " on the tibidabo tree");
    }
  }
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
