// Reproduces Figure 4: profiling of BigDFT on Tibidabo using 36 cores.
// The paper instruments the code and finds that the all_to_all_v
// collectives are "sometimes delayed" — in some instances all ranks are
// slow, in others only part of them. We run the BigDFT model, analyze the
// trace exactly as Paraver would be used, and print the classification
// plus a trace excerpt.
#include <iostream>
#include <sstream>

#include "apps/scenario.h"
#include "trace/gantt.h"
#include "support/table.h"

int main() {
  using mb::support::fmt_fixed;

  std::cout << "=== Figure 4: BigDFT on Tibidabo, 36 cores ===\n\n";
  const auto fig4 = mb::apps::scenario("fig4", 36, 1);
  const auto result = mb::apps::run_on_cluster(
      mb::apps::cluster_for(fig4), mb::apps::build_program(fig4.params));

  const auto report =
      mb::trace::analyze_collectives(result.trace, "alltoallv");
  std::cout << "alltoallv instances: " << report.instances.size() << '\n';
  std::cout << "median duration:     "
            << fmt_fixed(report.median_duration * 1e3, 2) << " ms\n";
  std::cout << "delayed (>2x med.):  " << report.delayed_count << '\n';
  std::cout << "partial delays seen: "
            << (report.has_partial_delays ? "yes" : "no")
            << "  (paper: some instances delay all ranks, others only "
               "part of them)\n";
  std::cout << "network drops:       " << result.network_drops
            << " (switch buffer overflows -> TCP-style retransmits)\n\n";

  mb::support::Table table({"Instance", "Start (s)", "Duration (ms)",
                            "Classification", "Slow ranks"});
  for (const auto& inst : report.instances) {
    table.add_row({std::to_string(inst.index), fmt_fixed(inst.start, 3),
                   fmt_fixed(inst.duration * 1e3, 2),
                   inst.delayed ? "DELAYED" : "normal",
                   inst.delayed ? std::to_string(inst.slow_ranks) : "-"});
  }
  std::cout << table << '\n';

  // A Gantt view of the first second — the Fig. 4 timeline, in ASCII.
  mb::trace::GanttOptions gopt;
  gopt.width = 100;
  gopt.max_ranks = 12;
  gopt.t1 = 1.0;
  std::cout << "--- timeline (first 12 ranks, first second) ---\n"
            << mb::trace::render_gantt(result.trace, gopt) << '\n';

  // A Paraver-like excerpt (first records of rank 0).
  std::ostringstream paraver;
  result.trace.write_paraver(paraver);
  std::istringstream lines(paraver.str());
  std::string line;
  int shown = 0;
  std::cout << "--- Paraver-like trace excerpt ---\n";
  while (std::getline(lines, line) && shown < 12) {
    if (line.rfind("0:", 0) == 0 || line[0] == '#') {
      std::cout << line << '\n';
      ++shown;
    }
  }
  return 0;
}
