// ASCII Gantt rendering of cluster traces — the poor man's Paraver view
// (paper Fig. 4 is exactly such a timeline with delayed collectives
// circled). One row per rank, one column per time bucket, a letter per
// dominant activity.
#pragma once

#include <string>

#include "trace/trace.h"

namespace mb::trace {

struct GanttOptions {
  std::size_t width = 100;      ///< columns (time buckets)
  std::uint32_t max_ranks = 40; ///< rows; traces with more ranks are cut
  double t0 = 0.0;              ///< window start (seconds)
  double t1 = 0.0;              ///< window end; 0 = end of trace
};

/// Renders the trace as one timeline row per rank:
///   '#' compute   'a' collective (alltoallv etc.)   's'/'r' point-to-point
///   'A' collective record of an instance classify_collectives() calls
///       delayed at factor 2 (every rank of it, the short ones too)
///   'F' fault     '.' idle
std::string render_gantt(const Trace& trace, const GanttOptions& options);

}  // namespace mb::trace
