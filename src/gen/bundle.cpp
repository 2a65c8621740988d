#include "gen/bundle.h"

#include "support/hash.h"
#include "support/json.h"
#include "support/schema.h"

namespace mb::gen {

std::string to_json(const ReproBundle& bundle) {
  support::JsonWriter w;
  support::begin_document(w, support::kReproSchema);
  w.field("tool", "mbctl");
  w.field("tool_version", bundle.tool_version);
  w.field("seed", std::to_string(bundle.seed));
  w.field("oracle", bundle.oracle.empty() ? "none" : bundle.oracle);
  w.field("note", bundle.note);

  w.key("generator").begin_object();
  w.field("seed", std::to_string(bundle.gen_seed));
  w.key("params");
  write_params(w, bundle.params);
  w.end_object();

  w.key("platform").begin_object();
  w.field("tree", bundle.platform.tree);
  w.field("nodes", bundle.platform.nodes);
  w.field("cores_per_node", bundle.platform.cores_per_node);
  w.field("sim_jobs", bundle.platform.sim_jobs);
  w.end_object();

  if (bundle.has_fault_plan) {
    // Embed the plan's own mb-fault-plan document so a replay (or a
    // human) can lift it out and feed it to `mbctl chaos` unchanged.
    w.key("fault_plan");
    support::write_json_value(w,
                              support::parse_json(to_json(bundle.fault_plan)));
  }

  const ReproExpected& e = bundle.expected;
  w.key("expected").begin_object();
  w.field("verifier_digest", support::hex64(e.verifier_digest));
  w.field("verifier_errors", e.verifier_errors);
  w.field("des_digest", support::hex64(e.des_digest));
  w.field("des_completed", e.des_completed);
  w.field("makespan_bits", support::hex64(e.makespan_bits));
  if (e.has_sharded) w.field("sharded_digest", support::hex64(e.sharded_digest));
  if (e.has_static) w.field("static_digest", support::hex64(e.static_digest));
  if (e.has_chaos) w.field("chaos_digest", support::hex64(e.chaos_digest));
  w.end_object();

  w.end_object();
  return std::move(w).str();
}

ReproBundle bundle_from_json(std::string_view text) {
  const support::JsonValue doc = support::parse_json(text);
  support::check_document(doc, support::kReproSchema, "bundle_from_json");

  ReproBundle b;
  b.tool_version = doc.at("tool_version").as_string();
  b.seed = support::dec_u64_at(doc, "seed");
  b.oracle = doc.at("oracle").as_string();
  b.note = doc.at("note").as_string();

  const support::JsonValue& gen = doc.at("generator");
  b.gen_seed = support::dec_u64_at(gen, "seed");
  b.params = params_from_json(gen.at("params"));

  const support::JsonValue& plat = doc.at("platform");
  b.platform.tree = plat.at("tree").as_string();
  b.platform.nodes = support::u32_at(plat, "nodes");
  b.platform.cores_per_node = support::u32_at(plat, "cores_per_node");
  b.platform.sim_jobs = support::u32_at(plat, "sim_jobs");

  if (const support::JsonValue* plan = doc.find("fault_plan")) {
    support::JsonWriter pw;
    support::write_json_value(pw, *plan);
    b.fault_plan = fault::plan_from_json(pw.str());
    b.has_fault_plan = true;
  }

  const support::JsonValue& e = doc.at("expected");
  b.expected.verifier_digest = support::hex_u64_at(e, "verifier_digest");
  b.expected.verifier_errors = support::u64_at(e, "verifier_errors");
  b.expected.des_digest = support::hex_u64_at(e, "des_digest");
  b.expected.des_completed = e.at("des_completed").as_bool();
  b.expected.makespan_bits = support::hex_u64_at(e, "makespan_bits");
  if (e.find("sharded_digest")) {
    b.expected.has_sharded = true;
    b.expected.sharded_digest = support::hex_u64_at(e, "sharded_digest");
  }
  if (e.find("static_digest")) {
    b.expected.has_static = true;
    b.expected.static_digest = support::hex_u64_at(e, "static_digest");
  }
  if (e.find("chaos_digest")) {
    b.expected.has_chaos = true;
    b.expected.chaos_digest = support::hex_u64_at(e, "chaos_digest");
  }
  return b;
}

}  // namespace mb::gen
