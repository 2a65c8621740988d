#include "advise/advisor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <set>
#include <string>

#include "support/check.h"
#include "verify/perf_rules.h"
#include "verify/rules.h"

namespace mb::advise {
namespace {

std::string fmt2(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

std::string join_ranks(const std::vector<std::uint32_t>& ranks) {
  std::string s;
  for (std::uint32_t r : ranks) {
    if (!s.empty()) s += ",";
    s += std::to_string(r);
  }
  return s;
}

/// Ranks living on `node` under the default node-major placement the
/// measured run used.
std::vector<std::uint32_t> node_major_ranks(const ScenarioFacts& facts,
                                            std::uint32_t node) {
  std::vector<std::uint32_t> ranks;
  for (std::uint32_t c = 0; c < facts.cores_per_node; ++c) {
    const std::uint32_t r = node * facts.cores_per_node + c;
    if (r < facts.ranks) ranks.push_back(r);
  }
  return ranks;
}

/// remap-ranks: a fault-plan slowdown names a node; the measured timeline
/// confirms that node's ranks are where the run's wait concentrates.
/// Migrating those ranks to a spare node dodges the slowdown entirely,
/// once the node's attributed wait reaches this fraction of the makespan.
constexpr double kRemapWaitFloor = 0.02;

void rule_remap_ranks(const ScenarioFacts& facts,
                      std::vector<Recommendation>& out) {
  if (facts.analysis == nullptr || facts.plan == nullptr) return;
  const double makespan = facts.measured_makespan_s;
  if (makespan <= 0.0) return;

  for (std::size_t si = 0; si < facts.plan->slowdowns.size(); ++si) {
    const fault::NodeSlowdown& s = facts.plan->slowdowns[si];
    const std::vector<std::uint32_t> victims =
        node_major_ranks(facts, s.node);
    if (victims.empty()) continue;

    double node_wait = 0.0;
    std::vector<Evidence> evidence;
    for (std::size_t i = 0; i < facts.analysis->stragglers.size(); ++i) {
      const obs::Straggler& st = facts.analysis->stragglers[i];
      if (std::find(victims.begin(), victims.end(), st.rank) ==
          victims.end())
        continue;
      node_wait += st.attributed_wait_s;
      evidence.push_back(
          {"mb-analysis", "/stragglers/" + std::to_string(i),
           "rank " + std::to_string(st.rank) + " holds " +
               fmt2(st.attributed_wait_s) + " s of attributed wait (" +
               fmt2(100.0 * st.share) + "% of the run's total)"});
    }
    if (node_wait / makespan < kRemapWaitFloor) continue;

    // Physical model of the claim: a factor-f slowdown over `overlap`
    // wall seconds costs at most (1 - 1/f) * overlap of makespan, so
    // removing it recovers some fraction of that. The attributed wait is
    // a *sum over ranks* — concurrent waiters double-count wall time —
    // so it sizes the ceiling (divided across the node's ranks), never
    // the floor.
    const double overlap =
        std::max(0.0, std::min(s.until_s, makespan) - s.at_s);
    const double factor = std::max(1.0, s.factor);
    const double slowdown_cost = (1.0 - 1.0 / factor) * overlap;
    const double mean_wait =
        node_wait / static_cast<double>(victims.size());
    const double lo =
        std::min(0.75, 0.25 * slowdown_cost / makespan);
    double hi = (slowdown_cost + mean_wait) / makespan;
    hi = std::min(0.9, std::max(hi, lo));

    evidence.push_back(
        {"mb-fault-plan", "/slowdowns/" + std::to_string(si),
         "node " + std::to_string(s.node) + " runs " + fmt2(factor) +
             "x slower in [" + fmt2(s.at_s) + ", " + fmt2(s.until_s) +
             ") s"});

    Recommendation r;
    r.id = "remap-ranks:node" + std::to_string(s.node);
    r.kind = Kind::kRemapRanks;
    r.target = "node" + std::to_string(s.node);
    r.title = "migrate ranks " + join_ranks(victims) + " off slowed node " +
              std::to_string(s.node) + " to a spare node";
    r.action =
        "extend the cluster by one spare node and pin node " +
        std::to_string(s.node) +
        "'s ranks onto it via an explicit rank_map; the slowdown window "
        "then degrades a node that carries no ranks";
    r.metric = "time_to_solution_s";
    r.baseline_value = makespan;
    r.proposed_value = static_cast<double>(s.node);
    r.predicted_delta_lo = lo;
    r.predicted_delta_hi = hi;
    r.evidence = std::move(evidence);
    r.appliable = true;
    out.push_back(std::move(r));
  }
}

/// switch-collective: PERF006's condition on the static bounds — a ring
/// allreduce whose per-round segment is sub-MTU pays 2(p-1)
/// latency-bound rounds where a binomial reduce+bcast pays
/// 2*ceil(log2 p). The measured time in that collective sizes the claim.
void rule_switch_collective(const ScenarioFacts& facts,
                            std::vector<Recommendation>& out) {
  if (facts.cost == nullptr || facts.analysis == nullptr) return;
  const double makespan = facts.measured_makespan_s;
  if (makespan <= 0.0) return;
  const std::uint32_t p = facts.cost->ranks;

  std::set<std::string> seen;
  for (std::size_t ci = 0; ci < facts.cost->collectives.size(); ++ci) {
    const verify::CollectiveCost& cc = facts.cost->collectives[ci];
    const std::optional<std::uint64_t> chunk =
        verify::sub_mtu_ring_segment(*facts.cost, cc);
    if (!chunk) continue;
    const std::uint64_t rounds = 2ull * (p - 1);
    const std::string label =
        cc.label.empty() ? std::string("allreduce") : cc.label;
    if (!seen.insert(label).second) continue;

    const obs::CollectiveStats* stats = nullptr;
    std::size_t stats_index = 0;
    for (std::size_t k = 0; k < facts.analysis->collectives.size(); ++k) {
      if (facts.analysis->collectives[k].label == label) {
        stats = &facts.analysis->collectives[k];
        stats_index = k;
        break;
      }
    }
    if (stats == nullptr || stats->instances == 0) continue;

    const double ring_rounds = static_cast<double>(rounds);
    const double binom_rounds =
        2.0 * std::ceil(std::log2(static_cast<double>(p)));
    const double total_s =
        stats->median_duration_s * static_cast<double>(stats->instances);
    const double saved =
        total_s * std::max(0.0, 1.0 - binom_rounds / ring_rounds);

    Recommendation r;
    r.id = "switch-collective:" + label;
    r.kind = Kind::kSwitchCollective;
    r.target = label;
    r.title = "replace ring allreduce '" + label +
              "' with a binomial reduce + bcast";
    r.action = "the payload's per-round segment is " +
               std::to_string(*chunk) + " B (< mtu " +
               std::to_string(facts.cost->mtu_bytes) +
               "): rewrite the allreduce as a reduce to rank 0 followed "
               "by a bcast, cutting " +
               fmt2(ring_rounds) + " latency-bound rounds to " +
               fmt2(binom_rounds);
    r.metric = "time_to_solution_s";
    r.baseline_value = makespan;
    r.predicted_delta_lo = 0.0;
    r.predicted_delta_hi = std::min(0.9, saved / makespan);
    r.evidence.push_back(
        {"mb-static-analysis", "/collectives/" + std::to_string(ci),
         "sub-MTU ring segments: " + std::to_string(*chunk) + " B over " +
             std::to_string(rounds) + " rounds at " + std::to_string(p) +
             " ranks"});
    r.evidence.push_back(
        {"mb-analysis", "/collectives/" + std::to_string(stats_index),
         "measured " + std::to_string(stats->instances) + " instance(s), " +
             fmt2(total_s) + " s total in '" + label + "'"});
    if (facts.perf != nullptr &&
        facts.perf->has_rule(verify::kRulePerfCollectiveAlgorithm)) {
      r.evidence.push_back(
          {"mb-diagnostics",
           "/findings/" + std::string(verify::kRulePerfCollectiveAlgorithm),
           "the static perf pass flags this collective as "
           "latency-bound at this message size"});
    }
    r.appliable = true;
    out.push_back(std::move(r));
  }
}

/// checkpoint-interval: PERF004's condition — the interval is far from
/// Young's first-order optimum for the fault plan's crash rate. The
/// predicted bracket is the overhead-fraction difference
/// h(current) - h(optimal) with h(T) = C/T + T/(2*MTBF).
void rule_checkpoint_interval(const ScenarioFacts& facts,
                              std::vector<Recommendation>& out) {
  if (facts.plan == nullptr || facts.cost == nullptr) return;
  const std::optional<verify::CheckpointFit> fit =
      verify::checkpoint_fit(*facts.plan, facts.cost->makespan_lower_s);
  if (!fit || fit->side == verify::IntervalFit::kInside) return;
  const double optimal = fit->optimal_s;
  const double interval = facts.plan->checkpoint.interval_s;

  const auto overhead = [&](double t) {
    return fit->cost_s / t + t / (2.0 * fit->mtbf_s);
  };
  const double hi = std::min(
      0.9, std::max(0.0, overhead(interval) - overhead(optimal)));

  Recommendation r;
  r.id = "checkpoint-interval";
  r.kind = Kind::kCheckpointInterval;
  r.target = "checkpoint.interval_s";
  r.title = std::string("move the checkpoint interval from ") +
            fmt2(interval) + " s to Young's optimum " + fmt2(optimal) +
            " s";
  r.action =
      fit->side == verify::IntervalFit::kTooLong
          ? "the interval is " + fmt2(interval / optimal) +
                "x the optimum: expected lost work per crash dwarfs the "
                "checkpoint cost; set interval_s near " + fmt2(optimal)
          : "the interval is " + fmt2(optimal / interval) +
                "x below the optimum: checkpoint overhead dominates "
                "between crashes; set interval_s near " + fmt2(optimal);
  r.metric = "time_to_solution_s";
  r.baseline_value = facts.measured_makespan_s;
  r.proposed_value = optimal;
  r.predicted_delta_lo = 0.0;
  r.predicted_delta_hi = hi;
  r.evidence.push_back(
      {"mb-fault-plan", "/checkpoint",
       "interval " + fmt2(interval) + " s vs sqrt(2*MTBF*C) = " +
           fmt2(optimal) + " s (MTBF " + fmt2(fit->mtbf_s) +
           " s, checkpoint cost " + fmt2(fit->cost_s) + " s)"});
  if (facts.perf != nullptr &&
      facts.perf->has_rule(verify::kRulePerfCheckpointInterval)) {
    r.evidence.push_back(
        {"mb-diagnostics",
         "/findings/" + std::string(verify::kRulePerfCheckpointInterval),
         "the static perf pass flags the interval as outside the "
         "acceptance band around Young's optimum"});
  }
  r.appliable = true;
  out.push_back(std::move(r));
}

/// sim-jobs: purely advisory — at large rank counts the serial DES is
/// the experimenter's bottleneck, not the simulated application. The
/// rank count from which sharding is advised:
constexpr std::uint32_t kSimJobsRankFloor = 256;

void rule_sim_jobs(const ScenarioFacts& facts,
                   std::vector<Recommendation>& out) {
  if (facts.ranks < kSimJobsRankFloor) return;
  if (facts.sim_jobs > 1) return;

  Recommendation r;
  r.id = "sim-jobs";
  r.kind = Kind::kSimJobs;
  r.target = "--sim-jobs";
  r.title = "shard the simulator: " + std::to_string(facts.ranks) +
            " ranks on a serial event queue";
  r.action =
      "re-run with --sim-jobs 8; each leaf subtree becomes one shard "
      "and the engine overlaps them under a conservative lookahead "
      "(changes simulator wall-clock only, never simulated time)";
  r.metric = "sim_wall_s";
  r.baseline_value = 0.0;
  r.proposed_value = 8.0;
  r.predicted_delta_lo = 0.0;
  r.predicted_delta_hi = 1.0 - 1.0 / 8.0;  // parallel-efficiency ceiling
  r.evidence.push_back(
      {"mb-analysis", "/ranks",
       std::to_string(facts.ranks) +
           " simulated ranks exceed the serial-queue comfort zone of " +
           std::to_string(kSimJobsRankFloor)});
  r.appliable = false;
  r.verdict = Verdict::kAdvisory;
  r.verdict_reason =
      "advisory: affects simulator wall-clock, not simulated time — "
      "nothing for guarded apply to confirm";
  out.push_back(std::move(r));
}

}  // namespace

std::vector<Recommendation> advise_scenario(const ScenarioFacts& facts) {
  std::vector<Recommendation> out;
  rule_remap_ranks(facts, out);
  rule_switch_collective(facts, out);
  rule_checkpoint_interval(facts, out);
  rule_sim_jobs(facts, out);
  return out;
}

/// Minimum relative cycles-per-output gain before a kernel variant
/// switch is worth recommending.
constexpr double kKernelMinGain = 0.02;

std::vector<Recommendation> advise_kernel(
    const arch::Platform& platform, std::string_view kernel,
    const std::vector<KernelSweepPoint>& sweep, std::uint32_t current_unroll,
    const sim::HierarchicalPoint& placement) {
  support::check(!sweep.empty(), "advise_kernel", "empty variant sweep");
  const KernelSweepPoint* current = nullptr;
  const KernelSweepPoint* best = nullptr;
  for (const KernelSweepPoint& p : sweep) {
    if (p.unroll == current_unroll) current = &p;
    if (best == nullptr || p.cycles_per_output < best->cycles_per_output ||
        (p.cycles_per_output == best->cycles_per_output &&
         p.unroll < best->unroll))
      best = &p;
  }
  support::check(current != nullptr, "advise_kernel",
                 "sweep lacks the current unroll factor");

  std::vector<Recommendation> out;
  if (current->cycles_per_output <= 0.0) return out;
  const double gain =
      (current->cycles_per_output - best->cycles_per_output) /
      current->cycles_per_output;
  if (best->unroll == current_unroll || gain < kKernelMinGain)
    return out;

  Recommendation r;
  r.id = std::string("kernel-variant:") + std::string(kernel) + ":unroll" +
         std::to_string(best->unroll);
  r.kind = Kind::kKernelVariant;
  r.target = std::string(kernel);
  r.title = std::string("switch ") + std::string(kernel) + " on " +
            platform.name + " from unroll " +
            std::to_string(current_unroll) + " to unroll " +
            std::to_string(best->unroll);
  r.action = "re-run the kernel with --unroll " +
             std::to_string(best->unroll) + ": " +
             fmt2(best->cycles_per_output) + " cycles/output vs " +
             fmt2(current->cycles_per_output) + " at the current variant";
  r.metric = "cycles_per_output";
  r.baseline_value = current->cycles_per_output;
  r.proposed_value = static_cast<double>(best->unroll);
  r.predicted_delta_lo = 0.5 * gain;
  r.predicted_delta_hi = std::min(0.95, 1.5 * gain);
  r.evidence.push_back(
      {"mb-bench-report", "/records/" + std::string(kernel),
       "variant sweep over " + std::to_string(sweep.size()) +
           " unroll factors; best " + std::to_string(best->unroll) +
           " at " + fmt2(best->cycles_per_output) + " cycles/output"});
  std::string reading = std::string(kernel) + " is " + placement.bound_by +
                        "-bound at " +
                        fmt2(100.0 * placement.roofline_fraction) +
                        "% of the attainable roof";
  if (placement.vector_headroom > 1.5) {
    reading += "; a vectorized variant has " +
               fmt2(placement.vector_headroom) + "x headroom on " +
               platform.name;
  }
  r.evidence.push_back({"mb-roofline", "/hierarchy/" + placement.name,
                        std::move(reading)});
  r.appliable = true;
  out.push_back(std::move(r));
  return out;
}

}  // namespace mb::advise
