// Pass 2: platform / model linter.
//
// The machine and network models judge their own validity:
// arch::Platform::violations() and net::TreeParams::violations() list
// every field the model refuses, and validate(), parse_platform and
// build_tree throw the first. The linter reports that same list, one
// error per violation under a rule id picked by the field, so a model
// lints clean exactly when the simulator accepts it. Its only checks of
// its own are plausibility warnings on values the model accepts (a
// 1 MHz core, a 2500 W node, a cache level smaller than the one below
// it), plus the rank-count rule that mbctl's scenario commands share
// (CFG001). Unlike validate(), the linter collects every finding into a
// Report so one run surfaces the full state of a model.
//
// Locations are config keys ("snowball.caches[0].line_bytes") rather than
// (rank, op) pairs. Each lint_* call publishes its severity tallies to
// obs::metrics() under pass="lint"; merging reports afterwards does not
// double-count.
#pragma once

#include <cstdint>
#include <string_view>

#include "arch/platform.h"
#include "net/topology.h"
#include "verify/diagnostics.h"

namespace mb::verify {

/// Lints a machine model; findings carry PLT001..PLT007.
Report lint_platform(const arch::Platform& platform);

/// Lints a tree-interconnect parameter set; findings carry NET001..NET004.
/// `name` prefixes the config keys ("tibidabo", "upgraded", ...).
Report lint_tree(const net::TreeParams& params, std::string_view name);

/// Checks a requested rank count against a node's core count (CFG001):
/// ranks must be positive and a multiple of cores_per_node so whole
/// boards are occupied. `context` names the setting ("--ranks", ...).
Report lint_rank_count(std::uint64_t ranks, std::uint32_t cores_per_node,
                       std::string_view context);

}  // namespace mb::verify
