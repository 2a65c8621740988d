// Versioned performance recommendations (mb-advice v1).
//
// The advisor closes the loop the paper leaves open: its analyses name a
// culprit (a straggling node, a latency-bound collective, a mis-tuned
// checkpoint interval) but leave the "so what do I change" step to the
// reader. A Recommendation captures that step as data — a stable id, the
// concrete action, a predicted improvement *bracket* rather than a point
// estimate, and pointers back to the evidence artifacts that justify it.
// Guarded apply (apply.h) later records whether the measurement confirmed
// the prediction, so an mb-advice document is an auditable record of what
// was claimed, what was tried and what actually happened.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/version.h"

namespace mb::advise {

/// What category of change a recommendation proposes. Stable names (see
/// kind_name) are part of the mb-advice schema.
enum class Kind {
  kRemapRanks,          ///< migrate a degraded node's ranks elsewhere
  kSwitchCollective,    ///< ring allreduce -> binomial reduce+bcast
  kCheckpointInterval,  ///< move the interval toward Young's optimum
  kKernelVariant,       ///< different unroll / element-width variant
  kSimJobs,             ///< advisory: shard the simulator itself
};

std::string_view kind_name(Kind k);
Kind parse_kind(std::string_view name);

/// Lifecycle of a recommendation through guarded apply.
enum class Verdict {
  kPending,   ///< emitted, not yet tried
  kAccepted,  ///< re-measured; compare confirmed the predicted bracket
  kRejected,  ///< re-measured; prediction did not survive the noise model
  kAdvisory,  ///< not mechanically appliable (human follow-up)
};

std::string_view verdict_name(Verdict v);
Verdict parse_verdict(std::string_view name);

/// A pointer into the artifact that justifies a recommendation — which
/// document (by schema name), where in it, and the one-line reading.
struct Evidence {
  std::string artifact;  ///< producing schema, e.g. "mb-analysis"
  std::string pointer;   ///< location within it, e.g. "/stragglers/0"
  std::string detail;    ///< human-readable reading of that evidence
};

struct Recommendation {
  /// Stable within a scenario, e.g. "remap-ranks:node2" — reruns of the
  /// same advisor over the same inputs produce the same ids, so verdicts
  /// can be diffed across runs.
  std::string id;
  Kind kind = Kind::kRemapRanks;
  std::string title;   ///< one line, e.g. "migrate ranks 4,5 off node 2"
  std::string action;  ///< what --apply (or the user) would change
  std::string target;  ///< the knob/node/label acted on, e.g. "node2"
  /// Metric predicted to improve and its measured baseline value.
  std::string metric = "time_to_solution_s";
  double baseline_value = 0.0;
  /// Generic numeric parameter of the proposed change (new checkpoint
  /// interval in seconds, unroll factor, node index to vacate, ...).
  double proposed_value = 0.0;
  /// Predicted fractional improvement bracket [lo, hi] of `metric`
  /// (0.25 = 25% faster). Guarded apply accepts only when the measured
  /// delta lands inside this bracket AND compare calls it significant.
  double predicted_delta_lo = 0.0;
  double predicted_delta_hi = 0.0;
  std::vector<Evidence> evidence;
  /// Whether apply.h knows how to re-run this configuration mechanically.
  bool appliable = false;

  Verdict verdict = Verdict::kPending;
  // Filled by guarded apply (zero / empty until then).
  double measured_baseline = 0.0;
  double measured_candidate = 0.0;
  double measured_delta = 0.0;  ///< fractional improvement, sign as above
  std::string verdict_reason;
};

struct AdviceReport {
  std::string tool = "mbctl";
  std::string tool_version{support::version()};  ///< producing build
  std::string scenario;      ///< e.g. "chaos:bigdft"
  std::uint64_t seed = 0;
  bool applied = false;  ///< true once guarded apply filled verdicts
  std::vector<Recommendation> recommendations;  ///< ranked, see below
};

/// Sorts recommendations by predicted_delta_hi descending (biggest
/// promised win first), id ascending on ties — deterministic ranking.
void rank_recommendations(AdviceReport& report);

/// Deterministic serialization (stable key order, json_number doubles).
std::string to_json(const AdviceReport& report);

/// Inverse of to_json(). Throws support::Error on malformed documents or
/// schema mismatch.
AdviceReport advice_from_json(std::string_view text);

/// Human-readable rendering for the CLI.
std::string render_advice(const AdviceReport& report);

/// Publishes advise.recommendations{kind=...} / advise.accepted /
/// advise.rejected counters to the global registry. Call from the thread
/// that owns the registry (it is single-threaded by design).
void publish_advice_metrics(const AdviceReport& report);

}  // namespace mb::advise
