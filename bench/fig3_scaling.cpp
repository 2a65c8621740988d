// Reproduces Figure 3: strong scaling of LINPACK, SPECFEM3D and BigDFT on
// the Tibidabo cluster. Expected shapes:
//   3a LINPACK   — ~80% efficiency at ~100 cores, linear tail after 32
//   3b SPECFEM3D — ~90% efficiency (vs the 4-core baseline: the instance
//                  does not fit one node)
//   3c BigDFT    — efficiency collapses by 36 cores (Ethernet alltoallv)
//
// A second set of tables extrapolates the ladders to 1k/4k/16k simulated
// ranks — beyond the physical Tibidabo — exercising the sharded
// conservative-lookahead engine (sim_jobs > 0, byte-identical to serial)
// at the scales the CI scaling-gate budgets. Pass --at-scale to run them
// (minutes of wall clock); the default run keeps the paper's figure fast.
#include <algorithm>
#include <cstring>
#include <iostream>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/scenario.h"
#include "stats/scaling.h"
#include "support/table.h"

namespace {

using mb::stats::ScalingPoint;
using mb::support::fmt_fixed;

void print_series(const std::string& title,
                  const std::vector<ScalingPoint>& series) {
  std::cout << title << '\n';
  mb::support::Table table({"Cores", "Time (s)", "Speedup", "Efficiency"});
  for (const auto& p : series) {
    table.add_row({std::to_string(p.cores), fmt_fixed(p.time_s, 3),
                   fmt_fixed(p.speedup, 1), fmt_fixed(p.efficiency, 2)});
  }
  std::cout << table << '\n';
}

/// Strong scaling of the named run `name` (src/apps/scenario.h) over
/// `cores`. With `sim_jobs` > 0 the runs shard the engine and skip
/// re-verifying the generator-built programs, as the scaling suite does.
std::vector<ScalingPoint> sweep(std::string_view name,
                                const std::vector<int>& cores,
                                std::uint64_t seed = 1,
                                std::uint32_t sim_jobs = 0) {
  std::vector<double> times;
  for (const int c : cores) {
    const auto s =
        mb::apps::scenario(name, static_cast<std::uint32_t>(c), seed);
    auto cluster = mb::apps::cluster_for(s);
    if (sim_jobs > 0) {
      cluster.mpi.verify = false;
      cluster.sim_jobs = sim_jobs;
    }
    times.push_back(
        mb::apps::run_on_cluster(cluster, mb::apps::build_program(s.params))
            .makespan_s);
  }
  return mb::stats::strong_scaling(cores, times);
}

// ---------------------------------------------------------------------------
// "Fig. 3 at scale": the same applications at 1k-16k simulated ranks on
// the sharded engine, with the scaling suite's communication-dense
// scenarios (`mbctl bench-suite --suite scaling`), which keep DES event
// throughput, not the compute model, as the measured quantity.

void run_at_scale() {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::uint32_t jobs = std::min(8u, hw == 0 ? 1u : hw);
  std::cout << "=== Fig. 3 at scale: 1k-16k simulated ranks, sharded "
               "engine (sim-jobs "
            << jobs << ") ===\n\n";
  print_series("--- HPL at scale ---",
               sweep("scaling/hpl", {1024, 4096, 16384}, 2013, jobs));
  print_series("--- SPECFEM3D at scale ---",
               sweep("scaling/specfem", {1024, 4096, 16384}, 2013, jobs));
  // BigDFT's alltoallv is O(ranks^2) messages; 1024 is already the
  // congestion-collapse regime the paper's Fig. 3c extrapolates to.
  print_series("--- BigDFT at scale ---",
               sweep("scaling/bigdft", {256, 1024}, 2013, jobs));
}

}  // namespace

int main(int argc, char** argv) {
  bool at_scale = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--at-scale") == 0) at_scale = true;

  std::cout << "=== Figure 3: strong scaling on Tibidabo "
               "(Tegra2 nodes, 1GbE tree) ===\n\n";

  const auto hpl = sweep("fig3/hpl", {2, 4, 8, 16, 32, 48, 64, 80, 96});
  print_series("--- Fig. 3a: LINPACK (HPL) ---", hpl);
  std::cout << "Tail linear after 32 cores: "
            << (mb::stats::tail_is_linear(hpl, 32) ? "yes" : "no")
            << " (paper: yes)\n\n";

  const auto spec = sweep("fig3/specfem", {4, 8, 16, 32, 64, 128, 192});
  print_series("--- Fig. 3b: SPECFEM3D (baseline = 4 cores; the instance "
               "needs 2 nodes) ---",
               spec);
  std::cout << "Final efficiency: "
            << fmt_fixed(mb::stats::final_efficiency(spec), 2)
            << " (paper: ~0.90)\n\n";

  const auto big = sweep("fig3/bigdft", {2, 4, 8, 16, 24, 36});
  print_series("--- Fig. 3c: BigDFT ---", big);
  std::cout << "Final efficiency: "
            << fmt_fixed(mb::stats::final_efficiency(big), 2)
            << " (paper: drops rapidly; well below the others)\n";

  if (at_scale) {
    std::cout << '\n';
    run_at_scale();
  }
  return 0;
}
