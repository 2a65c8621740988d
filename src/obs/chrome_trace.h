// Chrome trace-event export (chrome://tracing / Perfetto).
//
// The third observability pillar: the Paraver-like text dump is grep-able
// but not explorable; the Chrome trace-event JSON format gives the same
// cluster timeline an interactive viewer for free. One track (tid) per
// rank, complete ("ph":"X") events in microseconds, and alltoallv-style
// delayed collective instances — the paper's Fig. 4 finding — flagged in
// the event args so they can be searched and highlighted in the UI.
//
// Optionally appends the profiler's span hierarchy as a second process
// track. Aggregated spans have no absolute timestamps, so they are laid
// out sequentially inside their parent — a flame-graph rendering of where
// the tool itself spent its time.
#pragma once

#include <iosfwd>

#include "obs/profiler.h"
#include "trace/trace.h"

namespace mb::obs {

struct ChromeTraceOptions {
  /// A collective instance is flagged delayed when its duration exceeds
  /// `delay_factor` x the median for its label
  /// (trace::classify_collectives).
  double delay_factor = 2.0;
  /// When non-null, the profiler hierarchy is appended as its own
  /// process track ("profiler (aggregated)").
  const SpanNode* spans = nullptr;
};

/// Writes the complete document: {"traceEvents": [...], ...}. The output
/// parses with support::parse_json and loads in chrome://tracing. It
/// streams to `os` a few thousand events at a time, so memory does not
/// grow with the document.
void write_chrome_trace(std::ostream& os, const trace::Trace& trace,
                        const ChromeTraceOptions& options = {});

}  // namespace mb::obs
