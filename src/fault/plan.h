// Fault scenario description ("chaos plan").
//
// A FaultPlan is a declarative, seeded schedule of things going wrong on
// the simulated cluster: nodes crashing (fail-stop), nodes entering the
// Fig. 5 two-state degraded mode (slowdown windows), links going down and
// coming back, and per-link Bernoulli frame loss. Plans are plain data —
// buildable programmatically or parsed from JSON — so the same scenario
// replays byte-identically across runs and machines (given the same seed).
//
// The plan layer deliberately links only against support: it is linted by
// verify (FLT00x rules) and executed by fault/chaos.h, and neither wants
// the other as a dependency.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mb::fault {

/// Fail-stop crash of a whole node (all ranks on it die, its host link
/// goes down) at a point in simulated time.
struct NodeCrash {
  std::uint32_t node = 0;
  double at_s = 0.0;
};

/// Degraded-mode window: compute on the node runs `factor` times slower
/// between at_s and until_s (Fig. 5 two-state model at cluster scope).
struct NodeSlowdown {
  std::uint32_t node = 0;
  double at_s = 0.0;
  double until_s = 0.0;
  double factor = 5.0;
};

/// The node's host link is down (frames dropped, retransmits fire) during
/// [at_s, until_s). Windows for the same node must not overlap.
struct LinkDownWindow {
  std::uint32_t node = 0;
  double at_s = 0.0;
  double until_s = 0.0;
};

/// Bernoulli frame loss on the node's host link for the whole run.
struct FrameLoss {
  std::uint32_t node = 0;
  double probability = 0.0;  ///< per-frame, in [0, 1)
};

/// Coordinated checkpoint/restart cost model. When enabled, the
/// application checkpoints every `interval_s` of useful progress; after a
/// crash the run restarts from the last checkpoint, paying the restart
/// overhead plus re-reading the state, and re-executes the lost work.
struct CheckpointConfig {
  bool enabled = false;
  double interval_s = 30.0;
  double state_bytes_per_rank = 64.0 * 1024 * 1024;
  double write_bandwidth_bytes_per_s = 100e6;
  double read_bandwidth_bytes_per_s = 150e6;
  double restart_overhead_s = 1.0;  ///< relaunch / rejoin cost per restart

  /// Seconds to write one checkpoint: C in Young's optimum.
  double cost_s() const {
    return state_bytes_per_rank / write_bandwidth_bytes_per_s;
  }
};

struct FaultPlan {
  std::uint64_t seed = 1;  ///< drives frame-loss RNG streams
  std::vector<NodeCrash> crashes;
  std::vector<NodeSlowdown> slowdowns;
  std::vector<LinkDownWindow> link_downs;
  std::vector<FrameLoss> losses;
  CheckpointConfig checkpoint;

  bool empty() const {
    return crashes.empty() && slowdowns.empty() && link_downs.empty() &&
           losses.empty();
  }
};

/// Serializes a plan to a pretty-printed JSON document (stable key order,
/// round-trip double formatting — re-serializing a parse is
/// byte-identical).
std::string to_json(const FaultPlan& plan);

/// Parses a plan document. Requires the mb-fault-plan schema marker and a
/// supported version; unknown nodes / bad values are left to the FLT00x
/// lint rules (verify/fault_lint.h), which know the cluster size. Throws
/// support::Error on structurally malformed documents.
FaultPlan plan_from_json(std::string_view text);

}  // namespace mb::fault
