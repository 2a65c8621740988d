// PERF001-PERF006: performance smells derived from the static cost facts.
//
// Where the MPI pass proves a program *wrong* (deadlock, unmatched sends),
// this pass flags programs that are *slow on this tree* — the paper's
// findings turned into rules. Every rule keys on CostReport facts, so the
// pass costs nothing beyond the analyze_cost walk that produced them:
//
//   PERF001  payload imbalance: one rank moves far more bytes than the
//            mean (the load-balancing failure SPECFEM3D avoids).
//   PERF002  incast: an all-to-all occurrence bursts more bytes into one
//            switch port than its buffer holds — the Fig. 4 delayed
//            collectives on the cheap 128 KB switches.
//   PERF003  late sender: a rank's lower-bound schedule already spends a
//            large fraction of the run blocked in p2p receives.
//   PERF004  checkpoint interval far from Young's optimum sqrt(2*MTBF*C)
//            for the fault plan's crash rate.
//   PERF005  ring/pipeline neighbour traffic crossing the root switch:
//            a contiguous rank mapping would keep it inside one leaf.
//   PERF006  collective algorithm vs message size: the ring allreduce is
//            bandwidth-optimal but latency-bound for tiny payloads.
//
// Each threshold is a constant next to the one rule that reads it. PERF004
// and PERF006 also decide the advisor's checkpoint-interval and
// switch-collective recommendations (advise/advisor.h), so their
// conditions are public functions that both the pass and the advisor call.
#pragma once

#include <cstdint>
#include <optional>

#include "fault/plan.h"
#include "verify/diagnostics.h"
#include "verify/static_cost.h"

namespace mb::verify {

/// Runs the PERF pass over a program and its cost report. `plan` is
/// optional (PERF004 needs a fault plan to reason about; pass nullptr
/// when the scenario has none). Tallies are published to obs::metrics()
/// under pass="perf".
Report perf_pass(const mpi::Program& program,
                 const CostDescriptor& descriptor, const CostReport& cost,
                 const fault::FaultPlan* plan = nullptr);

/// PERF006's condition: the per-round segment a ring allreduce sends,
/// payload_bytes / max(1, 2(p-1) * p) for p = cost.ranks, when `cc` is an
/// allreduce over at least 8 ranks whose segment is below cost.mtu_bytes.
/// nullopt when the rule does not apply; 0 B is a real (tiny) segment.
std::optional<std::uint64_t> sub_mtu_ring_segment(const CostReport& cost,
                                                  const CollectiveCost& cc);

/// Which side of PERF004's acceptance band (4x either way around Young's
/// optimum) the plan's checkpoint interval falls on.
enum class IntervalFit { kInside, kTooLong, kTooShort };

/// PERF004's inputs and verdict for a plan that crashes and checkpoints.
struct CheckpointFit {
  double horizon_s = 0.0;  ///< max(lower-bound makespan, last crash)
  double mtbf_s = 0.0;     ///< horizon over the number of crashes
  double cost_s = 0.0;     ///< C: one checkpoint write
  double optimal_s = 0.0;  ///< Young's optimum sqrt(2 * MTBF * C)
  IntervalFit side = IntervalFit::kInside;
};

/// PERF004's condition. nullopt when the plan has no crashes, does not
/// checkpoint, or yields a horizon or checkpoint cost that is not
/// positive (there is no optimum to compare against).
std::optional<CheckpointFit> checkpoint_fit(const fault::FaultPlan& plan,
                                            double makespan_lower_s);

}  // namespace mb::verify
