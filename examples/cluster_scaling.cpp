// Scale the BigDFT application model across a simulated Tibidabo cluster,
// stock vs upgraded interconnect, and print speedup/efficiency tables —
// the Sec. IV experiment as a user of the library would run it.
#include <iostream>
#include <vector>

#include "apps/scenario.h"
#include "stats/scaling.h"
#include "support/table.h"

namespace {

using mb::support::fmt_fixed;

std::vector<mb::stats::ScalingPoint> sweep(bool upgraded) {
  const std::vector<int> cores{2, 4, 8, 16, 24, 36};
  std::vector<double> times;
  for (const int c : cores) {
    // The paper's Fig. 3c run (src/apps/scenario.h) at c ranks.
    const auto s =
        mb::apps::scenario("fig3/bigdft", static_cast<std::uint32_t>(c), 1);
    const auto cluster = upgraded
                             ? mb::apps::upgraded_cluster(std::max(1, c / 2))
                             : mb::apps::cluster_for(s);
    times.push_back(
        mb::apps::run_on_cluster(cluster, mb::apps::build_program(s.params))
            .makespan_s);
  }
  return mb::stats::strong_scaling(cores, times);
}

void print(const char* title,
           const std::vector<mb::stats::ScalingPoint>& series) {
  std::cout << title << '\n';
  mb::support::Table table({"Cores", "Time (s)", "Speedup", "Efficiency"});
  for (const auto& p : series)
    table.add_row({std::to_string(p.cores), fmt_fixed(p.time_s, 2),
                   fmt_fixed(p.speedup, 1), fmt_fixed(p.efficiency, 2)});
  std::cout << table << '\n';
}

}  // namespace

int main() {
  std::cout << "=== BigDFT strong scaling on Tibidabo ===\n\n";
  const auto stock = sweep(/*upgraded=*/false);
  print("--- stock interconnect (1GbE, shallow switch buffers) ---", stock);

  const auto upgraded = sweep(/*upgraded=*/true);
  print("--- upgraded interconnect (deep buffers, 10GbE uplinks) ---",
        upgraded);

  std::cout << "efficiency at 36 cores: stock "
            << fmt_fixed(mb::stats::final_efficiency(stock), 2)
            << " vs upgraded "
            << fmt_fixed(mb::stats::final_efficiency(upgraded), 2)
            << "\n(the upgrade the paper announces for Tibidabo)\n";
  return 0;
}
