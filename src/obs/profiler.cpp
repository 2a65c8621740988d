#include "obs/profiler.h"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <sstream>
#include <vector>

#include "support/check.h"

namespace mb::obs {

using support::check;
using support::JsonValue;
using support::JsonWriter;

double SpanNode::self_s() const {
  double child_total = 0.0;
  for (const auto& c : children) child_total += c.total_s;
  return total_s - child_total;
}

const SpanNode* SpanNode::child(std::string_view name) const {
  for (const auto& c : children)
    if (c.name == name) return &c;
  return nullptr;
}

void Profiler::set_enabled(bool on) {
  check(stack_.empty(), "Profiler::set_enabled",
        "cannot toggle while spans are open");
  enabled_ = on;
  owner_ = std::this_thread::get_id();
  if (on) reset();
}

void Profiler::reset() {
  check(stack_.empty(), "Profiler::reset", "cannot reset while spans are open");
  root_ = SpanNode{"(root)", 0, 0.0, {}, {}};
}

void Profiler::set_clock(std::function<double()> now_s) {
  clock_ = std::move(now_s);
}

double Profiler::now() const {
  if (clock_) return clock_();
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Profiler::enter(std::string_view name) {
  if (!enabled_ || std::this_thread::get_id() != owner_) return;
  SpanNode* parent = stack_.empty() ? &root_ : stack_.back().node;
  SpanNode* node = nullptr;
  for (auto& c : parent->children)
    if (c.name == name) node = &c;
  if (node == nullptr) {
    // Growing the stack-top node's child list only moves *closed*
    // siblings; every open node lives in a vector that cannot grow while
    // it is open, so Frame::node pointers stay valid.
    parent->children.push_back(SpanNode{std::string(name), 0, 0.0, {}, {}});
    node = &parent->children.back();
  }
  Frame frame{node, now(), {}};
  if (registry_ != nullptr) {
    frame.counter_snapshot.reserve(registry_->counter_count());
    for (std::size_t i = 0; i < registry_->counter_count(); ++i)
      frame.counter_snapshot.push_back(registry_->counter_value(i));
  }
  stack_.push_back(std::move(frame));
}

void Profiler::exit() {
  if (!enabled_ || std::this_thread::get_id() != owner_) return;
  check(!stack_.empty(), "Profiler::exit", "no span is open");
  const Frame& frame = stack_.back();
  SpanNode* node = frame.node;
  node->calls += 1;
  node->total_s += now() - frame.t_enter;
  if (registry_ != nullptr) {
    for (std::size_t i = 0; i < registry_->counter_count(); ++i) {
      const double before =
          i < frame.counter_snapshot.size() ? frame.counter_snapshot[i] : 0.0;
      const double delta = registry_->counter_value(i) - before;
      if (delta == 0.0) continue;
      const std::string key = registry_->counter_key(i);
      bool merged = false;
      for (auto& [k, v] : node->counter_deltas) {
        if (k == key) {
          v += delta;
          merged = true;
          break;
        }
      }
      if (!merged) node->counter_deltas.emplace_back(key, delta);
    }
  }
  stack_.pop_back();
}

Profiler& profiler() {
  static Profiler instance(&metrics());
  return instance;
}

namespace {

/// Children in render order: by exclusive time descending, capped at
/// options.top (0 = all). Returns how many rows were elided.
std::size_t render_order(const SpanNode& node,
                         const SpanRenderOptions& options,
                         std::vector<const SpanNode*>& out) {
  out.clear();
  for (const auto& c : node.children) out.push_back(&c);
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanNode* a, const SpanNode* b) {
                     return a->self_s() > b->self_s();
                   });
  const std::size_t elided =
      options.top > 0 && out.size() > options.top ? out.size() - options.top
                                                  : 0;
  out.resize(out.size() - elided);
  return elided;
}

void render_node(std::ostringstream& os, const SpanNode& node,
                 double parent_total, int depth,
                 const SpanRenderOptions& options) {
  const double pct =
      parent_total > 0.0 ? 100.0 * node.total_s / parent_total : 100.0;
  std::string label(static_cast<std::size_t>(depth) * 2, ' ');
  label += node.name;
  os << std::left << std::setw(40) << label << std::right << std::setw(8)
     << node.calls << std::setw(12) << std::fixed << std::setprecision(6)
     << node.total_s << std::setw(12) << node.self_s() << std::setw(8)
     << std::setprecision(1) << pct << "\n";
  for (const auto& [key, delta] : node.counter_deltas) {
    os << std::string(static_cast<std::size_t>(depth) * 2 + 2, ' ') << "+ "
       << key << " = " << std::setprecision(0) << delta << "\n";
  }
  std::vector<const SpanNode*> order;
  const std::size_t elided = render_order(node, options, order);
  for (const SpanNode* c : order)
    render_node(os, *c, node.total_s, depth + 1, options);
  if (elided > 0) {
    os << std::string(static_cast<std::size_t>(depth) * 2 + 2, ' ') << "… "
       << elided << " more span(s)\n";
  }
}

}  // namespace

std::string render_span_summary(const SpanNode& root,
                                const SpanRenderOptions& options) {
  std::ostringstream os;
  os << std::left << std::setw(40) << "span" << std::right << std::setw(8)
     << "calls" << std::setw(12) << "total s" << std::setw(12) << "self s"
     << std::setw(8) << "%par" << "\n";
  if (root.children.empty()) {
    os << "(no spans recorded)\n";
    return os.str();
  }
  double total = 0.0;
  for (const auto& c : root.children) total += c.total_s;
  std::vector<const SpanNode*> order;
  const std::size_t elided = render_order(root, options, order);
  for (const SpanNode* c : order) render_node(os, *c, total, 0, options);
  if (elided > 0) os << "… " << elided << " more span(s)\n";
  return os.str();
}

void write_spans_json(JsonWriter& w, const SpanNode& root) {
  w.begin_array();
  for (const auto& c : root.children) {
    w.begin_object();
    w.field("name", c.name);
    w.field("calls", c.calls);
    w.field("total_s", c.total_s);
    if (!c.counter_deltas.empty()) {
      w.key("counters").begin_object();
      for (const auto& [key, delta] : c.counter_deltas) w.field(key, delta);
      w.end_object();
    }
    w.key("children");
    write_spans_json(w, c);
    w.end_object();
  }
  w.end_array();
}

SpanNode parse_spans_json(const JsonValue& array) {
  SpanNode root{"(root)", 0, 0.0, {}, {}};
  for (const JsonValue& v : array.as_array()) {
    SpanNode node = parse_spans_json(v.at("children"));
    node.name = v.at("name").as_string();
    node.calls = support::u64_at(v, "calls");
    node.total_s = v.at("total_s").as_number();
    if (const JsonValue* counters = v.find("counters")) {
      for (const auto& [key, delta] : counters->members())
        node.counter_deltas.emplace_back(key, delta.as_number());
    }
    root.children.push_back(std::move(node));
  }
  return root;
}

}  // namespace mb::obs
