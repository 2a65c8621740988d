// The mb-profile JSON document: spans + metrics + build identity.
//
// What `mbctl --profile out.json` writes and `mbctl obs-report` reads: a
// self-contained, versioned snapshot of one command's execution — the span
// hierarchy from the profiler, the metrics-registry snapshot, and the tool
// version that produced it.
//
// Schema (version 1), informally:
//   {
//     "schema": "mb-profile", "schema_version": 1,
//     "tool": "mbctl", "tool_version": "1.0.0", "command": "fig4",
//     "total_wall_s": X,
//     "spans": [{"name":, "calls":, "total_s":, "counters": {k: delta},
//                "children": [...]}, ...],
//     "metrics": [...]  // see obs/metrics.h write_metrics_json()
//   }
#pragma once

#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "obs/profiler.h"

namespace mb::obs {

struct Profile {
  std::string tool;
  std::string tool_version;
  std::string command;  ///< the command line that produced this profile
  double total_wall_s = 0.0;  ///< sum of top-level span times
  SpanNode spans;  ///< virtual root; children are the top-level spans
  std::vector<MetricSample> metrics;
};

/// Captures the current state of `p` and `r` into a document.
Profile capture_profile(const Profiler& p, const Registry& r,
                        std::string_view tool, std::string_view command);

std::string to_json(const Profile& profile);
Profile profile_from_json(std::string_view text);
Profile profile_from_json(const support::JsonValue& doc);

/// Human-readable report: span summary, phase coverage (how much of the
/// total wall time the top level's children explain) and a metrics table.
/// `options` caps the span section's rows per level (--top).
std::string render_profile(const Profile& profile,
                           const SpanRenderOptions& options = {});

}  // namespace mb::obs
