#include "fault/plan.h"

#include "support/json.h"
#include "support/schema.h"

namespace mb::fault {

using support::JsonValue;
using support::JsonWriter;

std::string to_json(const FaultPlan& plan) {
  JsonWriter w;
  support::begin_document(w, support::kFaultPlanSchema);
  w.field("seed", plan.seed);

  w.key("crashes").begin_array();
  for (const NodeCrash& c : plan.crashes) {
    w.begin_object();
    w.field("node", c.node);
    w.field("at_s", c.at_s);
    w.end_object();
  }
  w.end_array();

  w.key("slowdowns").begin_array();
  for (const NodeSlowdown& s : plan.slowdowns) {
    w.begin_object();
    w.field("node", s.node);
    w.field("at_s", s.at_s);
    w.field("until_s", s.until_s);
    w.field("factor", s.factor);
    w.end_object();
  }
  w.end_array();

  w.key("link_down").begin_array();
  for (const LinkDownWindow& d : plan.link_downs) {
    w.begin_object();
    w.field("node", d.node);
    w.field("at_s", d.at_s);
    w.field("until_s", d.until_s);
    w.end_object();
  }
  w.end_array();

  w.key("frame_loss").begin_array();
  for (const FrameLoss& l : plan.losses) {
    w.begin_object();
    w.field("node", l.node);
    w.field("probability", l.probability);
    w.end_object();
  }
  w.end_array();

  w.key("checkpoint").begin_object();
  w.field("enabled", plan.checkpoint.enabled);
  w.field("interval_s", plan.checkpoint.interval_s);
  w.field("state_bytes_per_rank", plan.checkpoint.state_bytes_per_rank);
  w.field("write_bandwidth_bytes_per_s",
          plan.checkpoint.write_bandwidth_bytes_per_s);
  w.field("read_bandwidth_bytes_per_s",
          plan.checkpoint.read_bandwidth_bytes_per_s);
  w.field("restart_overhead_s", plan.checkpoint.restart_overhead_s);
  w.end_object();

  w.end_object();
  return std::move(w).str();
}

namespace {

std::uint32_t node_of(const JsonValue& v) {
  return static_cast<std::uint32_t>(v.at("node").as_number());
}

}  // namespace

FaultPlan plan_from_json(std::string_view text) {
  const JsonValue doc = support::parse_json(text);
  support::check_document(doc, support::kFaultPlanSchema, "plan_from_json");

  FaultPlan plan;
  if (const JsonValue* s = doc.find("seed"))
    plan.seed = static_cast<std::uint64_t>(s->as_number());

  if (const JsonValue* arr = doc.find("crashes")) {
    for (const JsonValue& v : arr->as_array()) {
      NodeCrash c;
      c.node = node_of(v);
      c.at_s = v.at("at_s").as_number();
      plan.crashes.push_back(c);
    }
  }
  if (const JsonValue* arr = doc.find("slowdowns")) {
    for (const JsonValue& v : arr->as_array()) {
      NodeSlowdown s;
      s.node = node_of(v);
      s.at_s = v.at("at_s").as_number();
      s.until_s = v.at("until_s").as_number();
      if (const JsonValue* f = v.find("factor")) s.factor = f->as_number();
      plan.slowdowns.push_back(s);
    }
  }
  if (const JsonValue* arr = doc.find("link_down")) {
    for (const JsonValue& v : arr->as_array()) {
      LinkDownWindow d;
      d.node = node_of(v);
      d.at_s = v.at("at_s").as_number();
      d.until_s = v.at("until_s").as_number();
      plan.link_downs.push_back(d);
    }
  }
  if (const JsonValue* arr = doc.find("frame_loss")) {
    for (const JsonValue& v : arr->as_array()) {
      FrameLoss l;
      l.node = node_of(v);
      l.probability = v.at("probability").as_number();
      plan.losses.push_back(l);
    }
  }
  if (const JsonValue* cp = doc.find("checkpoint")) {
    CheckpointConfig& c = plan.checkpoint;
    c.enabled = cp->at("enabled").as_bool();
    if (const JsonValue* v = cp->find("interval_s"))
      c.interval_s = v->as_number();
    if (const JsonValue* v = cp->find("state_bytes_per_rank"))
      c.state_bytes_per_rank = v->as_number();
    if (const JsonValue* v = cp->find("write_bandwidth_bytes_per_s"))
      c.write_bandwidth_bytes_per_s = v->as_number();
    if (const JsonValue* v = cp->find("read_bandwidth_bytes_per_s"))
      c.read_bandwidth_bytes_per_s = v->as_number();
    if (const JsonValue* v = cp->find("restart_overhead_s"))
      c.restart_overhead_s = v->as_number();
  }
  return plan;
}

}  // namespace mb::fault
