#include "verify/platform_lint.h"

#include <string>
#include <vector>

#include "verify/rules.h"

namespace mb::verify {
namespace {

// Plausibility window for modelled machines: the paper's platforms span
// 1 GHz Cortex-A9 boards to a 2.66 GHz Nehalem; anything far outside is
// almost certainly a units mistake (MHz vs Hz, W vs mW).
constexpr double kMinPlausibleHz = 100e6;
constexpr double kMaxPlausibleHz = 6e9;
constexpr double kMaxPlausibleWatts = 400.0;

/// The rule a Platform::violations() entry is reported under.
std::string_view platform_rule(std::string_view field) {
  if (field.starts_with("caches["))
    return field.ends_with(".line_bytes") ? kRuleCacheLinePow2
                                          : kRuleCacheGeometry;
  if (field.starts_with("mem.")) return kRuleMemConfig;
  if (field == "cores" || field == "core.freq_hz") return kRuleFreqBounds;
  if (field == "power_w") return kRulePowerBounds;
  return kRuleModelField;
}

/// The rule a TreeParams::violations() entry is reported under.
std::string_view tree_rule(std::string_view field) {
  if (field == "nodes" || field == "switch_ports") return kRuleTreeShape;
  if (field.ends_with(".bandwidth_bytes_per_s")) return kRuleLinkBandwidth;
  if (field.ends_with(".latency_s")) return kRuleLinkLatency;
  return kRuleSwitchBuffer;
}

/// One error per violation, keyed "<model>.<field>".
void report_violations(Report& report,
                       const std::vector<support::Violation>& violations,
                       const std::string& model,
                       std::string_view (*rule_of)(std::string_view)) {
  for (const support::Violation& v : violations)
    report.add(rule_of(v.field), Severity::kError,
               Location::config(model + "." + v.field), v.message);
}

}  // namespace

Report lint_platform(const arch::Platform& platform) {
  Report report;
  const std::string p = platform.name.empty() ? "platform" : platform.name;
  report_violations(report, platform.violations(), p, platform_rule);

  const double hz = platform.core.freq_hz;
  if (hz > 0.0 && (hz < kMinPlausibleHz || hz > kMaxPlausibleHz)) {
    report.add(kRuleFreqBounds, Location::config(p + ".core.freq_hz"),
               "core frequency " + std::to_string(hz) +
                   " Hz is outside the plausible range [100 MHz, 6 GHz]",
               "check for a MHz-vs-Hz units mistake");
  }
  if (platform.power_w > kMaxPlausibleWatts) {
    report.add(kRulePowerBounds, Location::config(p + ".power_w"),
               "platform power " + std::to_string(platform.power_w) +
                   " W exceeds the plausible single-node range (400 W)",
               "check for a mW-vs-W units mistake");
  }
  for (std::size_t i = 1; i < platform.caches.size(); ++i) {
    const arch::CacheConfig& cache = platform.caches[i];
    const arch::CacheConfig& below = platform.caches[i - 1];
    if (cache.size_bytes >= below.size_bytes) continue;
    report.add(kRuleCacheInversion,
               Location::config(p + ".caches[" + std::to_string(i) +
                                "].size_bytes"),
               cache.name + " (" + std::to_string(cache.size_bytes) +
                   " B) is smaller than " + below.name + " (" +
                   std::to_string(below.size_bytes) + " B) below it",
               "cache levels are expected to grow towards memory");
  }

  publish_diagnostics(report, "lint");
  return report;
}

Report lint_tree(const net::TreeParams& params, std::string_view name) {
  Report report;
  report_violations(report, params.violations(),
                    std::string(name.empty() ? "tree" : name), tree_rule);
  publish_diagnostics(report, "lint");
  return report;
}

Report lint_rank_count(std::uint64_t ranks, std::uint32_t cores_per_node,
                       std::string_view context) {
  Report report;
  const std::string key(context.empty() ? "ranks" : context);
  if (ranks == 0) {
    report.add(kRuleRankCount, Location::config(key),
               "rank count must be positive",
               "one rank per core: use a multiple of " +
                   std::to_string(cores_per_node));
  } else if (cores_per_node != 0 && ranks % cores_per_node != 0) {
    report.add(kRuleRankCount, Location::config(key),
               "rank count " + std::to_string(ranks) +
                   " is not a multiple of " + std::to_string(cores_per_node) +
                   " cores per node",
               "whole boards must be occupied (dual-core Tibidabo nodes "
               "need an even rank count)");
  }
  publish_diagnostics(report, "lint");
  return report;
}

}  // namespace mb::verify
