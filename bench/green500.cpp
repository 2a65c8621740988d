// Green500-style submission for the simulated Tibidabo (ties the
// introduction's efficiency arithmetic to the cluster experiments):
// run HPL at memory-filling N on the full cluster, report GFLOPS and
// GFLOPS/W, and put them next to the 2012 state of the art and the 20 MW
// exaflop requirement the paper opens with.
#include <iostream>

#include "apps/hpl.h"
#include "apps/scenario.h"
#include "gpu/hybrid.h"
#include "power/cluster_energy.h"
#include "power/top500.h"
#include "support/table.h"

namespace {

using mb::support::fmt_fixed;

}  // namespace

int main() {
  std::cout << "=== Green500-style numbers for the simulated clusters "
               "===\n\n";

  // --- Tibidabo: 48 Tegra2 nodes = 96 cores, stock GbE tree. ---
  const auto fig3 = mb::apps::scenario("fig3/hpl", 96, 1);
  const auto& hpl = std::get<mb::apps::HplParams>(fig3.params);
  const auto run = mb::apps::run_hpl(mb::apps::cluster_for(fig3), hpl);
  const double gflops = mb::apps::hpl_gflops(hpl, run.makespan_s);

  // Tegra2 boards draw more than Snowballs (SoC + NIC + DRAM at speed).
  mb::power::ClusterPower tibidabo;
  tibidabo.nodes = 48;
  tibidabo.node_w = 8.5;
  tibidabo.switches = 1;
  tibidabo.switch_w = 60.0;
  const double watts = mb::power::cluster_watts(tibidabo);

  mb::support::Table table({"System", "HPL GFLOPS", "Power (W)",
                            "GFLOPS/W"});
  table.add_row({"Tibidabo (96x Cortex-A9, simulated HPL)",
                 fmt_fixed(gflops, 1), fmt_fixed(watts, 0),
                 fmt_fixed(gflops / watts, 3)});

  // --- The projected Exynos5 cluster (peak-based, paper Sec. VI-A). ---
  const auto node = mb::gpu::exynos5_node();
  const auto hybrid = mb::gpu::hybrid_sp_throughput(node);
  // DP for HPL: CPU-only peak (the Mali handles SP codes); assume the
  // same 0.85 parallel efficiency as the simulated Tibidabo run.
  const double exynos_dp = node.cpu.peak_dp_gflops() * 0.85 * 48;
  const double exynos_w = 48 * node.power_w() + 25.0;  // EEE switch
  table.add_row({"48x Exynos5 nodes (projected, DP HPL)",
                 fmt_fixed(exynos_dp, 1), fmt_fixed(exynos_w, 0),
                 fmt_fixed(exynos_dp / exynos_w, 3)});
  table.add_row({"same, SP workloads incl. Mali-T604",
                 fmt_fixed(hybrid.total_gflops * 48 * 0.85, 1),
                 fmt_fixed(exynos_w, 0),
                 fmt_fixed(hybrid.total_gflops * 48 * 0.85 / exynos_w, 3)});
  std::cout << table << '\n';

  mb::power::ExascaleRequirement req;
  std::cout << "2012 Green500 leader: ~2 GFLOPS/W; exaflop @ 20 MW needs "
            << req.required_efficiency() << " GFLOPS/W.\n"
            << "Tibidabo itself is far from competitive (the paper never "
               "claims otherwise);\nthe Exynos5 projection is the paper's "
               "case that the embedded path closes in.\n";
  return 0;
}
