#include "gen/bundle.h"

#include <cstdlib>

#include "support/check.h"
#include "support/hash.h"
#include "support/json.h"
#include "support/schema.h"

namespace mb::gen {
namespace {

std::uint64_t parse_u64(const support::JsonValue& v, int base) {
  const std::string& s = v.as_string();
  support::check(!s.empty(), "gen::bundle", "empty integer field");
  char* end = nullptr;
  const std::uint64_t out = std::strtoull(s.c_str(), &end, base);
  support::check(end == s.c_str() + s.size(), "gen::bundle",
                 "malformed integer field: " + s);
  return out;
}

std::uint64_t dec_field(const support::JsonValue& doc, std::string_view key) {
  return parse_u64(doc.at(key), 10);
}

std::uint64_t hex_field(const support::JsonValue& doc, std::string_view key) {
  return parse_u64(doc.at(key), 16);
}

}  // namespace

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
  b.seed = dec_field(doc, "seed");
  b.oracle = doc.at("oracle").as_string();
  b.note = doc.at("note").as_string();

  const support::JsonValue& gen = doc.at("generator");
  b.gen_seed = dec_field(gen, "seed");
  b.params = params_from_json(gen.at("params"));

  const support::JsonValue& plat = doc.at("platform");
  b.platform.tree = plat.at("tree").as_string();
  b.platform.nodes = static_cast<std::uint32_t>(plat.at("nodes").as_number());
  b.platform.cores_per_node =
      static_cast<std::uint32_t>(plat.at("cores_per_node").as_number());
  b.platform.sim_jobs =
      static_cast<std::uint32_t>(plat.at("sim_jobs").as_number());

  if (const support::JsonValue* plan = doc.find("fault_plan")) {
    support::JsonWriter pw;
    support::write_json_value(pw, *plan);
    b.fault_plan = fault::plan_from_json(pw.str());
    b.has_fault_plan = true;
  }

  const support::JsonValue& e = doc.at("expected");
  b.expected.verifier_digest = hex_field(e, "verifier_digest");
  b.expected.verifier_errors =
      static_cast<std::uint64_t>(e.at("verifier_errors").as_number());
  b.expected.des_digest = hex_field(e, "des_digest");
  b.expected.des_completed = e.at("des_completed").as_bool();
  b.expected.makespan_bits = hex_field(e, "makespan_bits");
  if (e.find("sharded_digest")) {
    b.expected.has_sharded = true;
    b.expected.sharded_digest = hex_field(e, "sharded_digest");
  }
  if (e.find("static_digest")) {
    b.expected.has_static = true;
    b.expected.static_digest = hex_field(e, "static_digest");
  }
  if (e.find("chaos_digest")) {
    b.expected.has_chaos = true;
    b.expected.chaos_digest = hex_field(e, "chaos_digest");
  }
  return b;
}

}  // namespace mb::gen
