#include "verify/rules.h"

namespace mb::verify {

const std::vector<RuleInfo>& all_rules() {
  static const std::vector<RuleInfo> kRules = {
      {kRuleUnmatchedSend, "mpi", Severity::kError,
       "send posted but no rank ever receives the message"},
      {kRuleOrphanedRecv, "mpi", Severity::kError,
       "receive blocks on a (peer, tag) no remaining send will satisfy"},
      {kRuleDeadlockCycle, "mpi", Severity::kError,
       "wait-for-graph cycle: ranks block on each other forever"},
      {kRuleCollectiveMismatch, "mpi", Severity::kError,
       "collective sequence differs across ranks (kind/root/bytes/count)"},
      {kRuleSelfSend, "mpi", Severity::kWarn,
       "rank sends a point-to-point message to itself"},
      {kRulePeerOutOfRange, "mpi", Severity::kError,
       "send/recv peer is not a valid rank"},
      {kRuleRootOutOfRange, "mpi", Severity::kError,
       "collective root is not a valid rank"},
      {kRuleAlltoallvCounts, "mpi", Severity::kError,
       "alltoallv counts vector length differs from the rank count"},
      {kRuleBadComputeSeconds, "mpi", Severity::kError,
       "compute op has negative or non-finite seconds"},
      {kRuleTagOutOfRange, "mpi", Severity::kError,
       "user tag collides with the reserved collective tag space"},
      {kRuleCacheLinePow2, "lint", Severity::kError,
       "cache line size is zero, not a power of two or under 4 bytes"},
      {kRuleCacheInversion, "lint", Severity::kWarn,
       "cache level is larger than the level above it (capacity inversion)"},
      {kRuleCacheGeometry, "lint", Severity::kError,
       "cache size or ways are zero or do not divide into a power-of-two "
       "set count"},
      {kRuleFreqBounds, "lint", Severity::kWarn,
       "core frequency outside the plausible range for modelled machines "
       "(an error when the core count or frequency is not positive)"},
      {kRulePowerBounds, "lint", Severity::kWarn,
       "platform power outside the plausible range (nameplate accounting; "
       "an error when not positive)"},
      {kRuleMemConfig, "lint", Severity::kError,
       "memory system has non-positive bandwidth/latency/capacity or bad "
       "page size"},
      {kRuleModelField, "lint", Severity::kError,
       "another field the machine model refuses: name, issue width, miss "
       "overlap, MSHRs, branch and FP-dependency parameters, reciprocal "
       "throughputs, TLB geometry or an empty cache list"},
      {kRuleLinkBandwidth, "lint", Severity::kError,
       "network link bandwidth is zero or negative"},
      {kRuleLinkLatency, "lint", Severity::kError,
       "network link latency is negative or not finite"},
      {kRuleSwitchBuffer, "lint", Severity::kError,
       "switch buffer or retransmit timeout is not positive, or the retry "
       "budget passes 2^31"},
      {kRuleTreeShape, "lint", Severity::kError,
       "tree topology has zero nodes or fewer than two ports per switch"},
      {kRuleRankCount, "lint", Severity::kError,
       "rank count is zero or not a multiple of cores per node"},
      {kRuleFaultUnknownNode, "lint", Severity::kError,
       "fault plan targets a node the cluster does not have"},
      {kRuleFaultOverlappingWindows, "lint", Severity::kError,
       "link-down windows for the same node overlap"},
      {kRuleFaultCheckpointConfig, "lint", Severity::kError,
       "checkpoint interval, state size, bandwidth or overhead is not "
       "positive"},
      {kRuleFaultBadValue, "lint", Severity::kError,
       "fault event has a bad value (negative time, empty window, factor "
       "< 1, probability outside [0,1))"},
      {kRuleFaultHighLoss, "lint", Severity::kWarn,
       "frame-loss probability above 0.5 — the link barely functions"},
      {kRulePerfImbalance, "perf", Severity::kWarn,
       "per-rank payload imbalance: one rank moves far more bytes than "
       "the mean"},
      {kRulePerfIncast, "perf", Severity::kWarn,
       "all-to-all burst exceeds a switch buffer on this tree (incast)"},
      {kRulePerfLateSender, "perf", Severity::kWarn,
       "late-sender pattern: a rank spends most of its time blocked in "
       "point-to-point receives"},
      {kRulePerfCheckpointInterval, "perf", Severity::kWarn,
       "checkpoint interval inconsistent with the fault plan's MTBF"},
      {kRulePerfCrossSwitchMapping, "perf", Severity::kWarn,
       "neighbour communication crosses the root switch: a contiguous "
       "rank mapping would keep it inside one leaf"},
      {kRulePerfCollectiveAlgorithm, "perf", Severity::kWarn,
       "collective algorithm mismatched to the message size"},
  };
  return kRules;
}

const RuleInfo* find_rule(std::string_view id) {
  for (const RuleInfo& rule : all_rules())
    if (rule.id == id) return &rule;
  return nullptr;
}

}  // namespace mb::verify
