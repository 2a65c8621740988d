// Ablation for the closing remark of Sec. IV: does the node-level energy
// advantage survive at cluster scale? BigDFT's energy-to-solution on an
// ARM cluster (stock network / upgraded network / energy-saving Ethernet)
// against a single Xeon server doing the same work.
#include <iostream>

#include "apps/scenario.h"
#include "arch/platforms.h"
#include "power/cluster_energy.h"
#include "support/table.h"

namespace {

using mb::support::fmt_fixed;

}  // namespace

int main() {
  std::cout << "=== Sec. IV ablation: cluster-level energy to solution "
               "(BigDFT, 36 ARM cores) ===\n\n";

  const auto params = std::get<mb::apps::BigDftParams>(
      mb::apps::scenario("fig3/bigdft", 36, 1).params);

  const double stock =
      mb::apps::run_bigdft(mb::apps::tibidabo_cluster(18), params)
          .makespan_s;
  const double upgraded =
      mb::apps::run_bigdft(mb::apps::upgraded_cluster(18), params)
          .makespan_s;

  // The same work on one Xeon server: sequential compute is
  // iterations x compute_s_per_iter on an ARM core; the per-core speed
  // ratio for this DP-convolution workload is the Table II BigDFT ratio
  // scaled by the core counts (22.7 x 2/4 ~ 11.4).
  const double seq = params.iterations * params.compute_s_per_iter;
  const double per_core_ratio = 11.4;
  const auto xeon = mb::arch::xeon_x5550();
  const double xeon_makespan = seq / (xeon.cores * per_core_ratio);
  const double xeon_energy = xeon.power_w * xeon_makespan;

  const auto arm_stock = mb::power::arm_cluster_power(18);
  const auto arm_eee = mb::power::arm_cluster_power_eee(18);

  mb::support::Table table(
      {"Configuration", "Makespan (s)", "Power (W)", "Energy (J)",
       "vs Xeon"});
  auto row = [&](const std::string& name, const mb::power::ClusterPower& p,
                 double makespan) {
    const double e = mb::power::cluster_energy_j(p, makespan);
    table.add_row({name, fmt_fixed(makespan, 2),
                   fmt_fixed(mb::power::cluster_watts(p), 1),
                   fmt_fixed(e, 1), fmt_fixed(e / xeon_energy, 2)});
  };
  row("ARM cluster, stock GbE switches", arm_stock, stock);
  row("ARM cluster, upgraded switches", arm_stock, upgraded);
  row("ARM cluster, upgraded + EEE switches", arm_eee, upgraded);
  table.add_row({"1x Xeon X5550 server (same work)",
                 fmt_fixed(xeon_makespan, 2), fmt_fixed(xeon.power_w, 1),
                 fmt_fixed(xeon_energy, 1), "1.00"});
  std::cout << table;

  std::cout
      << "\nPaper Sec. IV: 'the node power efficiency is likely to be "
         "counterbalanced by\nthe network inefficiency' — the stock-network "
         "row loses the Table II advantage;\nthe upgraded, energy-saving "
         "network (chosen for the final prototype) restores\nmost of it. "
         "Switch power and parallel efficiency both matter.\n";
  return 0;
}
