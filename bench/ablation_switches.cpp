// Ablation for Sec. IV: "This problem is to be fixed by upgrading the
// Ethernet switches used on Tibidabo." BigDFT at 36 cores on the stock
// interconnect vs the upgraded one (deep buffers, 10GbE uplinks, lower
// latency).
#include <iostream>

#include "apps/scenario.h"
#include "support/table.h"

namespace {

using mb::support::fmt_fixed;

struct Outcome {
  double makespan = 0.0;
  std::uint64_t drops = 0;
  std::size_t delayed = 0;
  double median_ms = 0.0;
};

Outcome run(const mb::apps::ClusterConfig& cluster) {
  // The congestion-bound Fig. 3c instance, run for 10 iterations.
  auto p = std::get<mb::apps::BigDftParams>(
      mb::apps::scenario("fig3/bigdft", 36, 1).params);
  p.iterations = 10;
  const auto r = mb::apps::run_bigdft(cluster, p);
  const auto report = mb::trace::analyze_collectives(r.trace, "alltoallv");
  return {r.makespan_s, r.network_drops, report.delayed_count,
          report.median_duration * 1e3};
}

}  // namespace

int main() {
  std::cout << "=== Ablation: Tibidabo switch upgrade (BigDFT, 36 cores, "
               "10 iterations) ===\n\n";
  const Outcome stock = run(mb::apps::tibidabo_cluster(18));
  const Outcome upgraded = run(mb::apps::upgraded_cluster(18));

  mb::support::Table table({"Interconnect", "Makespan (s)", "Drops",
                            "Delayed alltoallv", "Median a2a (ms)"});
  table.add_row({"stock 1GbE, shallow buffers",
                 fmt_fixed(stock.makespan, 2), std::to_string(stock.drops),
                 std::to_string(stock.delayed),
                 fmt_fixed(stock.median_ms, 2)});
  table.add_row({"upgraded (deep buffers, 10GbE uplinks)",
                 fmt_fixed(upgraded.makespan, 2),
                 std::to_string(upgraded.drops),
                 std::to_string(upgraded.delayed),
                 fmt_fixed(upgraded.median_ms, 2)});
  std::cout << table;
  std::cout << "\nSpeedup from the upgrade: "
            << fmt_fixed(stock.makespan / upgraded.makespan, 2) << "x\n";
  return 0;
}
