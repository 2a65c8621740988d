#include "obs/profile.h"

#include <iomanip>
#include <sstream>

#include "support/check.h"
#include "support/schema.h"
#include "support/version.h"

namespace mb::obs {

using support::check;
using support::JsonValue;
using support::JsonWriter;

Profile capture_profile(const Profiler& p, const Registry& r,
                        std::string_view tool, std::string_view command) {
  check(p.open_depth() == 0, "capture_profile",
        "cannot capture while spans are open");
  Profile profile;
  profile.tool = std::string(tool);
  profile.tool_version = std::string(support::version());
  profile.command = std::string(command);
  profile.spans = p.root();
  for (const auto& c : profile.spans.children)
    profile.total_wall_s += c.total_s;
  profile.metrics = r.snapshot();
  return profile;
}

std::string to_json(const Profile& profile) {
  JsonWriter w;
  support::begin_document(w, support::kProfileSchema);
  w.field("tool", profile.tool);
  w.field("tool_version", profile.tool_version);
  w.field("command", profile.command);
  w.field("total_wall_s", profile.total_wall_s);
  w.key("spans");
  write_spans_json(w, profile.spans);
  w.key("metrics");
  write_metrics_json(w, profile.metrics);
  w.end_object();
  return std::move(w).str();
}

Profile profile_from_json(std::string_view text) {
  return profile_from_json(support::parse_json(text));
}

Profile profile_from_json(const JsonValue& doc) {
  support::check_document(doc, support::kProfileSchema, "profile_from_json");
  Profile profile;
  profile.tool = doc.at("tool").as_string();
  profile.tool_version = doc.at("tool_version").as_string();
  profile.command = doc.at("command").as_string();
  profile.total_wall_s = doc.at("total_wall_s").as_number();
  profile.spans = parse_spans_json(doc.at("spans"));
  profile.metrics = parse_metrics_json(doc.at("metrics"));
  return profile;
}

std::string render_profile(const Profile& profile,
                           const SpanRenderOptions& options) {
  std::ostringstream os;
  os << "=== " << profile.tool << " profile (" << profile.command << ", v"
     << profile.tool_version << ") ===\n\n"
     << render_span_summary(profile.spans, options);

  // Phase coverage: how much of each top-level span its children explain.
  // A well-instrumented command has phases summing to ~its whole wall time.
  for (const auto& top : profile.spans.children) {
    if (top.children.empty()) continue;
    double phase_total = 0.0;
    for (const auto& c : top.children) phase_total += c.total_s;
    const double pct =
        top.total_s > 0.0 ? 100.0 * phase_total / top.total_s : 100.0;
    os << "\nphase coverage: " << std::fixed << std::setprecision(1) << pct
       << "% of '" << top.name << "' wall time ("
       << std::setprecision(6) << phase_total << " s of " << top.total_s
       << " s)\n";
  }

  if (!profile.metrics.empty()) {
    os << "\nmetrics:\n";
    for (const auto& m : profile.metrics) {
      os << "  " << std::left << std::setw(44) << m.key() << " ";
      if (m.type == MetricSample::Type::kHistogram) {
        os << "count=" << m.count << " sum=" << std::setprecision(6)
           << m.value;
      } else {
        os << std::setprecision(6) << m.value;
      }
      os << "  (" << metric_type_name(m.type) << ")\n";
    }
  }
  return os.str();
}

}  // namespace mb::obs
