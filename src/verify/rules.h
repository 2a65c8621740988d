// The rule registry: every diagnostic the verifier or linter can emit.
//
// Rule ids are stable API: once published they are never renumbered or
// reused, only retired (the id stays reserved). Tools and CI key on them,
// so renaming a rule means adding a new id. The registry carries each
// rule's pass, default severity and a one-line summary; the README's
// rule-id table and the tests' coverage sweep are both driven from here.
#pragma once

#include <string_view>
#include <vector>

#include "verify/diagnostics.h"

namespace mb::verify {

struct RuleInfo {
  std::string_view id;        ///< "MPI001", "PLT002", ...
  std::string_view pass;      ///< "mpi" (program verifier) or "lint"
  Severity severity;          ///< default severity (passes may escalate)
  std::string_view summary;   ///< one-line description
};

/// All registered rules, ordered by id.
const std::vector<RuleInfo>& all_rules();

/// Looks a rule up by id; nullptr when unknown.
const RuleInfo* find_rule(std::string_view id);

// --- Pass 1: MPI program verifier ----------------------------------------
inline constexpr std::string_view kRuleUnmatchedSend = "MPI001";
inline constexpr std::string_view kRuleOrphanedRecv = "MPI002";
inline constexpr std::string_view kRuleDeadlockCycle = "MPI003";
inline constexpr std::string_view kRuleCollectiveMismatch = "MPI004";
inline constexpr std::string_view kRuleSelfSend = "MPI005";
inline constexpr std::string_view kRulePeerOutOfRange = "MPI006";
inline constexpr std::string_view kRuleRootOutOfRange = "MPI007";
inline constexpr std::string_view kRuleAlltoallvCounts = "MPI008";
inline constexpr std::string_view kRuleBadComputeSeconds = "MPI009";
inline constexpr std::string_view kRuleTagOutOfRange = "MPI010";

// --- Pass 2: platform / model linter --------------------------------------
inline constexpr std::string_view kRuleCacheLinePow2 = "PLT001";
inline constexpr std::string_view kRuleCacheInversion = "PLT002";
inline constexpr std::string_view kRuleCacheGeometry = "PLT003";
inline constexpr std::string_view kRuleFreqBounds = "PLT004";
inline constexpr std::string_view kRulePowerBounds = "PLT005";
inline constexpr std::string_view kRuleMemConfig = "PLT006";
inline constexpr std::string_view kRuleModelField = "PLT007";
inline constexpr std::string_view kRuleLinkBandwidth = "NET001";
inline constexpr std::string_view kRuleLinkLatency = "NET002";
inline constexpr std::string_view kRuleSwitchBuffer = "NET003";
inline constexpr std::string_view kRuleTreeShape = "NET004";
inline constexpr std::string_view kRuleRankCount = "CFG001";
inline constexpr std::string_view kRuleFaultUnknownNode = "FLT001";
inline constexpr std::string_view kRuleFaultOverlappingWindows = "FLT002";
inline constexpr std::string_view kRuleFaultCheckpointConfig = "FLT003";
inline constexpr std::string_view kRuleFaultBadValue = "FLT004";
inline constexpr std::string_view kRuleFaultHighLoss = "FLT005";

// --- Pass 3: static performance analyzer (verify/perf_rules.h) ------------
inline constexpr std::string_view kRulePerfImbalance = "PERF001";
inline constexpr std::string_view kRulePerfIncast = "PERF002";
inline constexpr std::string_view kRulePerfLateSender = "PERF003";
inline constexpr std::string_view kRulePerfCheckpointInterval = "PERF004";
inline constexpr std::string_view kRulePerfCrossSwitchMapping = "PERF005";
inline constexpr std::string_view kRulePerfCollectiveAlgorithm = "PERF006";

}  // namespace mb::verify
