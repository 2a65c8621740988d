// Recommendation rules: measured + static evidence in, ranked advice out.
//
// Each rule cross-references two independent views of the same run — the
// measured timeline (mb-analysis) and the contention-free static bounds
// (mb-static-analysis / PERF findings) — before it speaks. A straggler
// that only the timeline shows could be scheduling noise; one the fault
// plan also names is a slowed node worth migrating away from. The
// predicted improvement is always a bracket [lo, hi]: the advisor commits
// to a falsifiable claim that guarded apply (apply.h) can check, not a
// point estimate nobody can hold it to.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "advise/advice.h"
#include "arch/platform.h"
#include "fault/plan.h"
#include "obs/analysis.h"
#include "sim/roofline.h"
#include "verify/diagnostics.h"
#include "verify/static_cost.h"

namespace mb::advise {

/// Everything the scenario rules may consult. Pointers are optional —
/// a rule that is missing its inputs stays silent rather than guessing.
struct ScenarioFacts {
  const obs::Analysis* analysis = nullptr;    ///< measured timeline
  const verify::CostReport* cost = nullptr;   ///< static bounds
  const verify::Report* perf = nullptr;       ///< PERF findings
  const fault::FaultPlan* plan = nullptr;     ///< injected faults
  std::uint32_t ranks = 0;
  std::uint32_t cores_per_node = 2;
  /// Measured end-to-end time of the run the evidence came from
  /// (time-to-solution under faults, makespan otherwise).
  double measured_makespan_s = 0.0;
  std::uint32_t sim_jobs = 0;  ///< --sim-jobs the run used
};

/// Runs the scenario rules (remap-ranks, switch-collective,
/// checkpoint-interval, sim-jobs) and returns every recommendation that
/// fired, unranked. Rules assume the measured run used the default
/// node-major placement (rank r on node r / cores_per_node).
/// switch-collective and checkpoint-interval fire exactly when the static
/// PERF006 and PERF004 conditions hold (verify/perf_rules.h) and the
/// measured leg is present too.
std::vector<Recommendation> advise_scenario(const ScenarioFacts& facts);

/// One sampled point of a kernel-variant sweep.
struct KernelSweepPoint {
  std::uint32_t unroll = 1;
  double cycles_per_output = 0.0;  ///< median over the sweep's reps
};

/// Kernel-variant rule: proposes the best unroll from `sweep` when it
/// beats `current_unroll` by at least 2% cycles per output, citing the
/// hierarchical-roofline placement (what bounds the kernel, and how much
/// vector headroom is left) as evidence. `sweep` must contain a point
/// with unroll == current_unroll.
std::vector<Recommendation> advise_kernel(
    const arch::Platform& platform, std::string_view kernel,
    const std::vector<KernelSweepPoint>& sweep, std::uint32_t current_unroll,
    const sim::HierarchicalPoint& placement);

}  // namespace mb::advise
