// mb-repro bundles: single-artifact record/replay for fuzz discrepancies.
//
// When the differential harness (gen/differential.h) finds a disagreement
// between two views of the same program — verifier vs DES, static bounds
// vs measured makespan, serial vs sharded engine, or two chaos runs — the
// anomaly must survive the process that found it. A bundle captures
// everything needed to re-execute the exact run: the (seed, params) pair
// the generator consumes, the platform (tree, node count, sharded worker
// count), the fault plan if chaos was in play, the producing tool version
// and the expected digests of every arm. `mbctl replay <bundle.json>`
// re-runs the arms byte-identically and re-checks each digest.
//
// Serialization is exact: 64-bit seeds and digests travel as strings
// (decimal / 16-digit hex) because JSON numbers are doubles, and the
// serial makespan travels as its IEEE-754 bit pattern.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "fault/plan.h"
#include "gen/generator.h"
#include "support/version.h"

namespace mb::gen {

/// The platform half of a recorded run; mirrors what mbctl fuzz resolved
/// from --tree/--sim-jobs at capture time.
struct ReproPlatform {
  std::string tree = "tibidabo";  ///< "tibidabo" | "upgraded"
  std::uint32_t nodes = 0;
  std::uint32_t cores_per_node = 2;
  std::uint32_t sim_jobs = 2;  ///< sharded-arm workers at capture (0 = arm off)
};

/// Expected digests per differential arm. `has_*` false means the arm was
/// not run at capture (e.g. sharded/static arms are skipped for programs
/// the verifier rejects) and replay skips it too.
struct ReproExpected {
  std::uint64_t verifier_digest = 0;
  std::uint64_t verifier_errors = 0;
  std::uint64_t des_digest = 0;
  bool des_completed = false;
  std::uint64_t makespan_bits = 0;  ///< IEEE-754 bits of the serial makespan
  bool has_sharded = false;
  std::uint64_t sharded_digest = 0;
  bool has_static = false;
  std::uint64_t static_digest = 0;
  bool has_chaos = false;
  std::uint64_t chaos_digest = 0;
};

struct ReproBundle {
  std::string tool_version{support::version()};  ///< producing build
  std::uint64_t seed = 0;    ///< campaign base seed (MB_SEED / --seed)
  std::uint64_t gen_seed = 0;  ///< generator seed of this program
  GenParams params;
  ReproPlatform platform;
  bool has_fault_plan = false;
  fault::FaultPlan fault_plan;  ///< chaos-arm overlay, when recorded
  std::string oracle;           ///< failed oracle name; "none" = known-good
  std::string note;             ///< human summary of the discrepancy
  ReproExpected expected;
};

/// Serializes a bundle (pretty JSON, stable key order). Round-trips
/// byte-identically through bundle_from_json.
std::string to_json(const ReproBundle& bundle);

/// Parses a bundle document; requires the mb-repro schema marker and a
/// supported version. Throws support::Error on malformed input.
ReproBundle bundle_from_json(std::string_view text);

}  // namespace mb::gen
