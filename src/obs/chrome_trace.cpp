#include "obs/chrome_trace.h"

#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/check.h"
#include "support/version.h"

namespace mb::obs {

using support::JsonWriter;

namespace {

constexpr int kClusterPid = 0;
constexpr int kProfilerPid = 1;
/// Events between two flushes of the writer: about half a megabyte of
/// text, so the document streams out and is never held whole.
constexpr std::size_t kFlushEvents = 2048;

void write_thread_name(JsonWriter& w, int pid, std::uint32_t tid,
                       const std::string& name) {
  w.begin_object();
  w.field("ph", "M");
  w.field("name", "thread_name");
  w.field("pid", pid);
  w.field("tid", tid);
  w.key("args").begin_object();
  w.field("name", name);
  w.end_object();
  w.end_object();
}

void write_process_name(JsonWriter& w, int pid, const std::string& name) {
  w.begin_object();
  w.field("ph", "M");
  w.field("name", "process_name");
  w.field("pid", pid);
  w.key("args").begin_object();
  w.field("name", name);
  w.end_object();
  w.end_object();
}

/// Lays the aggregated span tree out sequentially: each span occupies
/// [cursor, cursor + total_s] inside its parent.
double write_span_events(JsonWriter& w, const SpanNode& node,
                         double cursor_us) {
  for (const auto& c : node.children) {
    w.begin_object();
    w.field("ph", "X");
    w.field("name", c.name);
    w.field("cat", "span");
    w.field("pid", kProfilerPid);
    w.field("tid", 0);
    w.field("ts", cursor_us);
    w.field("dur", c.total_s * 1e6);
    w.key("args").begin_object();
    w.field("calls", c.calls);
    for (const auto& [key, delta] : c.counter_deltas) w.field(key, delta);
    w.end_object();
    w.end_object();
    write_span_events(w, c, cursor_us);
    cursor_us += c.total_s * 1e6;
  }
  return cursor_us;
}

}  // namespace

void write_chrome_trace(std::ostream& os, const trace::Trace& trace,
                        const ChromeTraceOptions& options) {
  // Each collective record's Fig. 4 instance, from the one index.
  struct Instance {
    const trace::CollectiveReport* report = nullptr;
    const trace::CollectiveInstance* instance = nullptr;
  };
  const auto collectives =
      trace::classify_collectives(trace, options.delay_factor);
  std::vector<Instance> instance_of(trace.size());
  for (const auto& [label, report] : collectives)
    for (const trace::CollectiveInstance& inst : report.instances)
      for (const std::size_t k : inst.members)
        instance_of[k] = {&report, &inst};
  const std::uint32_t ranks = trace.ranks();

  JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();

  write_process_name(w, kClusterPid, "cluster");
  for (std::uint32_t r = 0; r < ranks; ++r) {
    write_thread_name(w, kClusterPid, r, "rank " + std::to_string(r));
    if ((r + 1) % kFlushEvents == 0) w.flush_to(os);
  }

  for (std::size_t k = 0; k < trace.size(); ++k) {
    if (k % kFlushEvents == 0) w.flush_to(os);
    const trace::Record& rec = trace.records()[k];
    if (rec.kind == trace::EventKind::kFault) {
      // Injected faults are global instant markers, not rank work: the
      // viewer draws them as vertical lines across every track.
      w.begin_object();
      w.field("ph", "i");
      w.field("name", rec.label);
      w.field("cat", "fault");
      w.field("pid", kClusterPid);
      w.field("tid", rec.rank);
      w.field("ts", rec.t0 * 1e6);
      w.field("s", "g");
      w.field("cname", "terrible");
      w.end_object();
      continue;
    }
    w.begin_object();
    w.field("ph", "X");
    w.field("name", rec.label.empty() ? trace::event_kind_name(rec.kind)
                                      : std::string_view(rec.label));
    w.field("cat", trace::event_kind_name(rec.kind));
    w.field("pid", kClusterPid);
    w.field("tid", rec.rank);
    w.field("ts", rec.t0 * 1e6);
    w.field("dur", rec.duration() * 1e6);
    w.key("args").begin_object();
    if (rec.bytes > 0) w.field("bytes", rec.bytes);
    if (rec.kind == trace::EventKind::kCollective) {
      const auto [report, inst] = instance_of[k];
      w.field("instance", static_cast<std::uint64_t>(inst->index));
      w.field("delayed", inst->delayed);
      if (inst->delayed) {
        // Was this rank itself slow, or just held back by slower peers?
        w.field("rank_slow",
                rec.duration() >
                    options.delay_factor * report->median_duration);
        // The viewer colors by cname; flagged instances stand out.
        w.end_object();
        w.field("cname", "terrible");
        w.end_object();
        continue;
      }
    }
    w.end_object();
    w.end_object();
  }

  if (options.spans != nullptr && !options.spans->children.empty()) {
    write_process_name(w, kProfilerPid, "profiler (aggregated)");
    write_thread_name(w, kProfilerPid, 0, "spans");
    write_span_events(w, *options.spans, 0.0);
  }

  w.end_array();
  w.field("displayTimeUnit", "ms");
  w.key("otherData").begin_object();
  w.field("tool", "montblanc");
  // A trace carrying provenance knows which binary and seed produced it
  // (possibly a different build than the one exporting); fall back to
  // this binary's version otherwise.
  w.field("tool_version", trace.has_provenance()
                              ? trace.tool_version()
                              : std::string(support::version()));
  if (trace.has_provenance()) w.field("seed", trace.seed());
  w.end_object();
  w.end_object();
  os << std::move(w).str();
}

}  // namespace mb::obs
