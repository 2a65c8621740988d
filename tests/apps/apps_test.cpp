#include <gtest/gtest.h>

#include "apps/bigdft.h"
#include "apps/hpl.h"
#include "apps/scenario.h"
#include "apps/specfem.h"
#include "stats/scaling.h"
#include "support/check.h"

namespace mb::apps {
namespace {

// Strong-scaling sweep helper: time per rank count (ranks = 2 * nodes).
template <typename RunFn>
std::vector<stats::ScalingPoint> scale(const std::vector<int>& cores,
                                       RunFn run) {
  std::vector<double> times;
  for (int c : cores) times.push_back(run(static_cast<std::uint32_t>(c)));
  return stats::strong_scaling(cores, times);
}

// Small, fast instances for unit tests; the bench uses paper-sized ones.

double makespan(const Scenario& s) {
  return run_on_cluster(cluster_for(s), build_program(s.params)).makespan_s;
}

double bigdft_time(std::uint32_t cores) {
  Scenario s = scenario("fig3/bigdft", cores, 1);
  std::get<BigDftParams>(s.params).iterations = 3;  // the figure runs 5
  return makespan(s);
}

double specfem_time(std::uint32_t cores) {
  SpecfemParams p;
  p.ranks = cores;
  p.steps = 4;
  p.compute_s_per_step = 6.0;
  const auto cluster = tibidabo_cluster(std::max(1u, cores / 2));
  return run_specfem(cluster, p).makespan_s;
}

double hpl_time(std::uint32_t cores) {
  return makespan(scenario("fig3/hpl", cores, 1));
}

TEST(BigDft, ProgramShape) {
  BigDftParams p;
  p.ranks = 4;
  p.iterations = 2;
  const auto prog = bigdft_program(p);
  EXPECT_EQ(prog.ranks(), 4u);
  // Axis-by-axis structure: one compute slice before each transpose.
  int computes = 0, a2a = 0;
  for (const auto& op : prog.rank(0)) {
    if (op.kind == mpi::Op::Kind::kCompute) ++computes;
    if (op.kind == mpi::Op::Kind::kAlltoallv) ++a2a;
  }
  EXPECT_EQ(a2a, 4);  // 2 transposes x 2 iterations
  EXPECT_EQ(computes, 4);
}

TEST(BigDft, RunsAndTraces) {
  BigDftParams p;
  p.ranks = 8;
  p.iterations = 2;
  const auto result = run_bigdft(tibidabo_cluster(4), p);
  EXPECT_GT(result.makespan_s, 0.0);
  const auto recs =
      result.trace.filter(trace::EventKind::kCollective, "alltoallv");
  EXPECT_EQ(recs.size(), 8u * 2 * 2);  // ranks x transposes x iterations
}

TEST(BigDft, EfficiencyCollapsesAtScale) {
  // Fig. 3c: "BigDFT's case is more troubling as its efficiency drops
  // rapidly."
  const auto series = scale({2, 8, 16, 36}, bigdft_time);
  EXPECT_LT(stats::final_efficiency(series), 0.65);
}

TEST(BigDft, NetworkDropsAppearAtScale) {
  BigDftParams p;
  p.ranks = 36;
  p.iterations = 3;
  p.compute_s_per_iter = 2.0;
  const auto result = run_bigdft(tibidabo_cluster(18), p);
  EXPECT_GT(result.network_drops, 0u);
}

TEST(Specfem, MemoryConstraintEnforced) {
  SpecfemParams p;
  p.ranks = 2;  // one node cannot hold the instance
  EXPECT_THROW(specfem_program(p), support::Error);
  EXPECT_EQ(p.min_ranks(), 4u);  // 1.5 GB instance on 1 GB nodes -> 2 nodes
}

TEST(Specfem, ScalesNearlyIdeally) {
  // Fig. 3b: ~90% efficiency versus the 4-core baseline.
  const auto series = scale({4, 16, 64, 192}, specfem_time);
  EXPECT_GT(stats::final_efficiency(series), 0.80);
}

TEST(Specfem, BetterThanBigDftAtSameScale) {
  const auto spec = scale({4, 36}, specfem_time);
  const auto big = scale({4, 36}, bigdft_time);
  EXPECT_GT(stats::final_efficiency(spec),
            stats::final_efficiency(big) + 0.15);
}

TEST(Hpl, ProgramComputesAllPanels) {
  HplParams p;
  p.ranks = 4;
  p.n = 512;
  p.block = 128;
  const auto prog = hpl_program(p);
  int updates = 0;
  for (const auto& op : prog.rank(0))
    if (op.kind == mpi::Op::Kind::kCompute && op.label == "trailing_update")
      ++updates;
  EXPECT_EQ(updates, 4);  // n / block panels
}

TEST(Hpl, EfficiencyNear80PercentAt100Cores) {
  // Fig. 3a: "close to 80% efficiency for 100 nodes" (cores in our axis).
  const auto series = scale({2, 8, 32, 100}, hpl_time);
  const double eff = stats::final_efficiency(series);
  EXPECT_GT(eff, 0.65);
  EXPECT_LT(eff, 0.97);
}

TEST(Hpl, SpeedupLinearAfter32Cores) {
  // Fig. 3a: "the speedup curve is linear after 32 nodes".
  const auto series = scale({2, 8, 32, 48, 64, 80, 100}, hpl_time);
  EXPECT_TRUE(stats::tail_is_linear(series, 32));
}

TEST(Hpl, GflopsComputation) {
  HplParams p;
  p.n = 1024;
  EXPECT_NEAR(hpl_gflops(p, 1.0), 2.0 * 1024.0 * 1024 * 1024 / 3.0 / 1e9,
              1e-9);
  EXPECT_THROW(hpl_gflops(p, 0.0), support::Error);
}

TEST(Cluster, UpgradedNetworkHelpsBigDft) {
  // Sec. IV: "this problem is to be fixed by upgrading the Ethernet
  // switches used on Tibidabo."
  BigDftParams p;
  p.ranks = 36;
  p.iterations = 3;
  const double stock = run_bigdft(tibidabo_cluster(18), p).makespan_s;
  const double upgraded = run_bigdft(upgraded_cluster(18), p).makespan_s;
  EXPECT_LT(upgraded, 0.8 * stock);
}

TEST(Cluster, RankCountMustMatchNodes) {
  BigDftParams p;
  p.ranks = 6;
  EXPECT_THROW(run_bigdft(tibidabo_cluster(2), p), support::Error);
}

TEST(Cluster, RanksOnNodeFollowsNodeMajorPackingByDefault) {
  ClusterConfig config = tibidabo_cluster(4);
  EXPECT_EQ(ranks_on_node(config, 0),
            (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(ranks_on_node(config, 3),
            (std::vector<std::uint32_t>{6, 7}));
}

TEST(Cluster, RankMapOverridesPlacementAndLeavesSparesEmpty) {
  ClusterConfig config = tibidabo_cluster(4);
  // Swap nodes 1 and 3 (the advisor's remap move in miniature).
  config.rank_map = {0, 0, 3, 3, 2, 2, 1, 1};
  EXPECT_EQ(ranks_on_node(config, 3),
            (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(ranks_on_node(config, 1),
            (std::vector<std::uint32_t>{6, 7}));
}

TEST(Cluster, RankMapIsValidatedAgainstTheCluster) {
  BigDftParams p;
  p.ranks = 8;
  p.iterations = 1;
  {
    ClusterConfig config = tibidabo_cluster(4);
    config.rank_map = {0, 0, 1};  // wrong cardinality
    EXPECT_THROW(run_bigdft(config, p), support::Error);
  }
  {
    ClusterConfig config = tibidabo_cluster(4);
    config.rank_map = {0, 0, 1, 1, 2, 2, 9, 3};  // node outside cluster
    EXPECT_THROW(run_bigdft(config, p), support::Error);
  }
  {
    ClusterConfig config = tibidabo_cluster(4);
    config.rank_map = {0, 0, 0, 1, 2, 2, 3, 3};  // node 0 oversubscribed
    EXPECT_THROW(run_bigdft(config, p), support::Error);
  }
}

TEST(Cluster, RemappedPlacementStillRunsToCompletion) {
  BigDftParams p;
  p.ranks = 8;
  p.iterations = 2;
  ClusterConfig config = tibidabo_cluster(5);  // node 4 starts spare
  config.rank_map = {0, 0, 4, 4, 2, 2, 3, 3};  // node 1 vacated
  const auto remapped = run_bigdft(config, p);
  EXPECT_GT(remapped.makespan_s, 0.0);
  // Identical topology modulo which node hosts ranks 2,3: makespan
  // matches the default packing on the same 5-node cluster.
  ClusterConfig packed = tibidabo_cluster(5);
  packed.rank_map = {0, 0, 1, 1, 2, 2, 3, 3};
  EXPECT_NEAR(run_bigdft(packed, p).makespan_s, remapped.makespan_s,
              0.2 * remapped.makespan_s);
}

}  // namespace
}  // namespace mb::apps
