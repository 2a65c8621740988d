#include "verify/perf_rules.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "verify/rules.h"

namespace mb::verify {
namespace {

using mpi::Op;
using mpi::Program;

std::string fmt2(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

std::string fmt_kib(double bytes) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.0f KiB", bytes / 1024.0);
  return buf;
}

/// PERF001: per-rank payload imbalance. Fires when max/mean per-rank
/// sent bytes exceeds the ratio and the absolute excess also clears the
/// floor (tiny programs stay quiet).
constexpr double kImbalanceRatio = 4.0;
constexpr std::uint64_t kImbalanceFloorBytes = 1u << 20;

void check_imbalance(const CostReport& cost, Report& report) {
  if (cost.ranks < 2 || cost.mean_rank_bytes <= 0.0) return;
  std::uint32_t worst = 0;
  for (std::uint32_t r = 1; r < cost.ranks; ++r)
    if (cost.per_rank[r].bytes_sent > cost.per_rank[worst].bytes_sent)
      worst = r;
  const double max_bytes =
      static_cast<double>(cost.per_rank[worst].bytes_sent);
  const double ratio = max_bytes / cost.mean_rank_bytes;
  if (ratio <= kImbalanceRatio) return;
  if (max_bytes - cost.mean_rank_bytes <
      static_cast<double>(kImbalanceFloorBytes))
    return;
  report.add(kRulePerfImbalance, Location::program(worst, 0),
             "rank " + std::to_string(worst) + " sends " +
                 fmt_kib(max_bytes) + ", " + fmt2(ratio) +
                 "x the per-rank mean of " + fmt_kib(cost.mean_rank_bytes),
             "spread the payload across ranks; one overloaded sender "
             "serializes the whole exchange on its host link");
}

/// PERF002: an all-to-all style occurrence whose burst into one switch
/// port exceeds the buffer — the Fig. 4 incast. The burst-to-buffer
/// ratio that counts as congestion-prone:
constexpr double kIncastRatio = 1.0;

void check_incast(const CostReport& cost, const CostDescriptor& d,
                  Report& report) {
  double host_buffer = 0.0, uplink_buffer = 0.0;
  for (const LinkClassCost& lc : cost.link_classes) {
    if (lc.name == "host-down") host_buffer = lc.buffer_bytes;
    if (lc.name == "uplink-up" || lc.name == "uplink-down")
      uplink_buffer = lc.buffer_bytes;
  }
  for (const CollectiveCost& cc : cost.collectives) {
    if (cc.kind != Op::Kind::kAlltoallv && cc.kind != Op::Kind::kAllgather)
      continue;
    const double down = static_cast<double>(cc.worst_host_down);
    const double up = static_cast<double>(cc.worst_uplink);
    const bool down_hot =
        host_buffer > 0.0 && down > kIncastRatio * host_buffer;
    const bool up_hot =
        uplink_buffer > 0.0 && up > kIncastRatio * uplink_buffer;
    if (!down_hot && !up_hot) continue;
    const std::string where =
        down_hot ? "a host downlink (" + fmt_kib(down) + " burst vs " +
                       fmt_kib(host_buffer) + " buffer)"
                 : "an uplink (" + fmt_kib(up) + " burst vs " +
                       fmt_kib(uplink_buffer) + " buffer)";
    report.add(
        kRulePerfIncast, Location::program(0, cc.op_index),
        "'" +
            (cc.label.empty() ? std::string("collective") : cc.label) +
            "' bursts past " + where +
            " on this tree: frames will drop and retransmit (mtu " +
            std::to_string(d.mtu_bytes) + ")",
        "use deeper-buffered switches (upgraded tree), shrink the "
        "exchange, or stagger the senders (pairwise exchange)");
  }
}

/// PERF003: late-sender — already under contention-free assumptions a
/// rank spends most of its time blocked in p2p receives. Fires above this
/// fraction of the lower-bound makespan, and above an absolute floor.
constexpr double kLateSenderFraction = 0.3;
constexpr double kLateSenderFloorS = 1e-3;

void check_late_sender(const CostReport& cost, Report& report) {
  if (cost.makespan_lower_s <= 0.0) return;
  std::uint32_t worst = 0;
  for (std::uint32_t r = 1; r < cost.ranks; ++r)
    if (cost.per_rank[r].wait_p2p_lower_s >
        cost.per_rank[worst].wait_p2p_lower_s)
      worst = r;
  const RankCost& rc = cost.per_rank[worst];
  if (rc.wait_p2p_lower_s < kLateSenderFloorS) return;
  const double fraction = rc.wait_p2p_lower_s / cost.makespan_lower_s;
  if (fraction <= kLateSenderFraction) return;
  report.add(kRulePerfLateSender,
             Location::program(worst, rc.worst_wait_op),
             "rank " + std::to_string(worst) + " is blocked in receives "
             "for " + fmt2(100.0 * fraction) +
             "% of the lower-bound makespan (" + fmt2(rc.wait_p2p_lower_s) +
             " s of " + fmt2(cost.makespan_lower_s) +
             " s) even with a contention-free network",
             "the matching senders are structurally late: rebalance the "
             "compute preceding their sends or post the sends earlier");
}

/// PERF004: checkpoint interval vs the fault plan's crash rate (Young's
/// first-order optimum: interval* = sqrt(2 * MTBF * checkpoint_cost)).
void check_checkpoint(const CostReport& cost, const fault::FaultPlan* plan,
                      Report& report) {
  if (plan == nullptr || plan->crashes.empty()) return;
  if (!plan->checkpoint.enabled) {
    report.add(kRulePerfCheckpointInterval,
               Location::config("checkpoint.enabled"),
               "the fault plan crashes " +
                   std::to_string(plan->crashes.size()) +
                   " node(s) but checkpointing is disabled: every crash "
                   "loses the whole run so far",
               "enable coordinated checkpointing or drop the crashes "
               "from the plan");
    return;
  }
  const std::optional<CheckpointFit> fit =
      checkpoint_fit(*plan, cost.makespan_lower_s);
  if (!fit || fit->side == IntervalFit::kInside) return;
  const double interval = plan->checkpoint.interval_s;
  const std::string mtbf = " s for MTBF " + fmt2(fit->mtbf_s) + " s: ";
  report.add(kRulePerfCheckpointInterval,
             Location::config("checkpoint.interval_s"),
             fit->side == IntervalFit::kTooLong
                 ? "checkpoint interval " + fmt2(interval) + " s is " +
                       fmt2(interval / fit->optimal_s) +
                       "x Young's optimum " + fmt2(fit->optimal_s) + mtbf +
                       "expected lost work per crash dwarfs the "
                       "checkpoint cost"
                 : "checkpoint interval " + fmt2(interval) +
                       " s is far below Young's optimum " +
                       fmt2(fit->optimal_s) + mtbf +
                       "checkpoint overhead dominates between crashes",
             "set the interval near sqrt(2 * MTBF * checkpoint_cost) = " +
                 fmt2(fit->optimal_s) + " s");
}

/// PERF005: ring/pipeline-shaped p2p traffic where a large byte fraction
/// crosses the root switch — renumbering ranks would keep neighbours
/// inside one leaf subtree. The neighbour degree that still counts as
/// ring/pipeline-like, and the cross-root byte fraction that trips it:
constexpr std::uint32_t kMappingMaxDegree = 2;
constexpr double kMappingCrossFraction = 0.25;

void check_mapping(const Program& program, const CostDescriptor& d,
                   const CostReport& cost, Report& report) {
  if (cost.leaves < 2) return;
  const std::uint32_t ranks = program.ranks();
  const std::uint32_t per_leaf = d.cores_per_node * d.tree.switch_ports;
  std::uint64_t total = 0, cross = 0;
  std::uint32_t max_degree = 0;
  for (std::uint32_t r = 0; r < ranks; ++r) {
    std::set<std::uint32_t> peers;
    for (const Op& op : program.rank(r)) {
      if (op.kind != Op::Kind::kSend && op.kind != Op::Kind::kRecv)
        continue;
      if (op.peer >= ranks) return;  // structurally broken; not our call
      peers.insert(op.peer);
      if (op.kind != Op::Kind::kSend) continue;
      total += op.bytes;
      if (r / per_leaf != op.peer / per_leaf) cross += op.bytes;
    }
    max_degree =
        std::max(max_degree, static_cast<std::uint32_t>(peers.size()));
  }
  if (total == 0 || max_degree > kMappingMaxDegree) return;
  const double fraction =
      static_cast<double>(cross) / static_cast<double>(total);
  if (fraction <= kMappingCrossFraction) return;
  report.add(
      kRulePerfCrossSwitchMapping, Location::config("rank_mapping"),
      "the point-to-point pattern is neighbour-shaped (degree <= " +
          std::to_string(max_degree) + ") yet " +
          fmt2(100.0 * fraction) +
          "% of its bytes cross the root switch on this " +
          std::to_string(cost.leaves) + "-leaf tree",
      "renumber ranks so communicating neighbours land in the same leaf "
      "subtree (contiguous blocks of " + std::to_string(per_leaf) +
          " ranks per leaf)");
}

/// PERF006: collective algorithm mismatched to the message size (see
/// sub_mtu_ring_segment).
void check_collective_algorithm(const CostReport& cost, Report& report) {
  for (const CollectiveCost& cc : cost.collectives) {
    const std::optional<std::uint64_t> chunk = sub_mtu_ring_segment(cost, cc);
    if (!chunk) continue;
    const std::uint64_t rounds = 2ull * (cost.ranks - 1);
    report.add(
        kRulePerfCollectiveAlgorithm, Location::program(0, cc.op_index),
        "'" + (cc.label.empty() ? std::string("allreduce") : cc.label) +
            "' ring-allreduces " + std::to_string(*chunk) +
            " B segments over " + std::to_string(rounds) +
            " rounds: at this size the collective is pure latency",
        "a recursive-doubling/binomial allreduce needs only 2*log2(" +
            std::to_string(cost.ranks) + ") latency-bound rounds for "
            "sub-MTU payloads");
  }
}

}  // namespace

Report perf_pass(const mpi::Program& program,
                 const CostDescriptor& descriptor, const CostReport& cost,
                 const fault::FaultPlan* plan) {
  Report report;
  check_imbalance(cost, report);
  check_incast(cost, descriptor, report);
  check_late_sender(cost, report);
  check_checkpoint(cost, plan, report);
  check_mapping(program, descriptor, cost, report);
  check_collective_algorithm(cost, report);
  publish_diagnostics(report, "perf");
  return report;
}

/// The ring allreduce moves 2(p-1) rounds of bytes/p — bandwidth-optimal,
/// but pure latency when the segment is smaller than one frame. Below
/// this many ranks the round count is too small to matter.
constexpr std::uint32_t kAllreduceMinRanks = 8;

std::optional<std::uint64_t> sub_mtu_ring_segment(const CostReport& cost,
                                                  const CollectiveCost& cc) {
  if (cc.kind != Op::Kind::kAllreduce) return std::nullopt;
  if (cost.ranks < kAllreduceMinRanks) return std::nullopt;
  // payload_bytes sums the lowered sends over every rank: p ranks each
  // send 2(p-1) segments of bytes/p, so one segment is the total over
  // p * 2(p-1).
  const std::uint64_t rounds = 2ull * (cost.ranks - 1);
  const std::uint64_t chunk =
      cc.payload_bytes / std::max<std::uint64_t>(1, rounds * cost.ranks);
  if (chunk >= cost.mtu_bytes) return std::nullopt;
  return chunk;
}

/// The acceptance band: an interval more than this factor off Young's
/// optimum, either way, is flagged.
constexpr double kCheckpointBand = 4.0;

std::optional<CheckpointFit> checkpoint_fit(const fault::FaultPlan& plan,
                                            double makespan_lower_s) {
  if (plan.crashes.empty() || !plan.checkpoint.enabled) return std::nullopt;
  double last_crash = 0.0;
  for (const auto& c : plan.crashes) last_crash = std::max(last_crash, c.at_s);
  CheckpointFit f;
  f.horizon_s = std::max(makespan_lower_s, last_crash);
  if (f.horizon_s <= 0.0) return std::nullopt;
  f.mtbf_s = f.horizon_s / static_cast<double>(plan.crashes.size());
  f.cost_s = plan.checkpoint.cost_s();
  if (f.cost_s <= 0.0) return std::nullopt;
  f.optimal_s = std::sqrt(2.0 * f.mtbf_s * f.cost_s);
  const double interval = plan.checkpoint.interval_s;
  if (interval > kCheckpointBand * f.optimal_s)
    f.side = IntervalFit::kTooLong;
  else if (interval * kCheckpointBand < f.optimal_s)
    f.side = IntervalFit::kTooShort;
  return f;
}

}  // namespace mb::verify
