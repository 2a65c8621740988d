// Scoped-span wall-clock profiler.
//
// The second observability pillar: RAII spans form a call hierarchy with
// per-span wall time, call counts and the deltas of every registry counter
// that moved while the span was open — the paper's Paraver workflow
// ("where did the time go, and what was the hardware doing meanwhile")
// applied to this toolkit's own execution. Disabled by default; a disabled
// span construction is a single bool test, so instrumentation can stay in
// hot paths permanently.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "support/json.h"

namespace mb::obs {

/// One node of the span hierarchy. Sibling order is first-entry order;
/// re-entering a (parent, name) pair aggregates into the existing node.
struct SpanNode {
  std::string name;
  std::uint64_t calls = 0;
  double total_s = 0.0;  ///< wall time, summed over calls
  std::vector<SpanNode> children;
  /// Registry-counter movement while this span was open (aggregated over
  /// calls, series key -> delta; zero-delta counters are omitted).
  std::vector<std::pair<std::string, double>> counter_deltas;

  /// Time not attributed to any child.
  double self_s() const;
  /// Depth-first lookup of a direct child by name; nullptr when absent.
  const SpanNode* child(std::string_view name) const;
};

class Profiler {
 public:
  /// `registry` provides counter-delta attribution; may be null (no
  /// deltas). The global profiler() uses the global metrics() registry.
  explicit Profiler(Registry* registry = nullptr) : registry_(registry) {}

  /// Enabling resets previously collected spans and adopts the calling
  /// thread as the profiler's owner. Must not be toggled while spans are
  /// open.
  ///
  /// Like the metrics registry, the profiler is single-threaded by
  /// design; enter/exit from any other thread (e.g. a campaign worker
  /// running an instrumented Harness) are silently ignored rather than
  /// racing on the span stack — the campaign publishes aggregate
  /// campaign.* counters from the owner thread instead.
  void set_enabled(bool on);
  bool enabled() const { return enabled_; }

  /// Drops all collected spans (keeps the enabled flag).
  void reset();

  /// Replaces the wall-clock source (seconds, monotone) — tests inject a
  /// fake clock for exact time assertions. Null restores the real clock.
  void set_clock(std::function<double()> now_s);

  /// Explicit span boundaries; prefer ScopedSpan. enter/exit must nest.
  void enter(std::string_view name);
  void exit();

  std::size_t open_depth() const { return stack_.size(); }

  /// The virtual root containing all top-level spans. Only meaningful
  /// when no spans are open.
  const SpanNode& root() const { return root_; }

 private:
  struct Frame {
    SpanNode* node;
    double t_enter;
    std::vector<double> counter_snapshot;
  };

  double now() const;

  Registry* registry_;
  bool enabled_ = false;
  std::thread::id owner_ = std::this_thread::get_id();
  std::function<double()> clock_;
  SpanNode root_{"(root)", 0, 0.0, {}, {}};
  std::vector<Frame> stack_;
};

/// RAII span guard: enters on construction (when the profiler is enabled),
/// exits on destruction — including during exception unwinding, so a
/// throwing workload leaves a consistent hierarchy.
class ScopedSpan {
 public:
  ScopedSpan(Profiler& p, std::string_view name)
      : profiler_(p.enabled() ? &p : nullptr) {
    if (profiler_ != nullptr) profiler_->enter(name);
  }
  ~ScopedSpan() {
    if (profiler_ != nullptr) profiler_->exit();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Profiler* profiler_;
};

/// The process-wide default profiler (counter deltas from metrics()).
Profiler& profiler();

struct SpanRenderOptions {
  /// Keep at most this many rows per level (0 = all); a trailing line
  /// counts what was elided.
  std::size_t top = 0;
};

/// Flame-style text summary: one indented row per span with calls, total,
/// self and percent-of-parent columns, plus counter-delta sublines.
/// Siblings are sorted by exclusive (self) time, descending — the
/// hotspots first.
std::string render_span_summary(const SpanNode& root,
                                const SpanRenderOptions& options = {});

/// Serializes the hierarchy (children of `root`) as a JSON array.
void write_spans_json(support::JsonWriter& w, const SpanNode& root);

/// Parses an array written by write_spans_json() back into a virtual root.
SpanNode parse_spans_json(const support::JsonValue& array);

}  // namespace mb::obs
