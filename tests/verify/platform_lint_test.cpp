// Seeded defect corpus for the platform/model linter: one broken platform
// or network description per rule id, clean fixtures for every built-in
// model, and the CFG001 rank-count rule that mbctl's scenario commands
// share.
#include "verify/platform_lint.h"

#include <gtest/gtest.h>

#include "arch/platforms.h"
#include "verify/rules.h"

namespace mb::verify {
namespace {

arch::Platform broken_base() {
  // Start from a known-clean machine and break one knob per test.
  return arch::snowball();
}

TEST(PlatformLint, BuiltinPlatformsLintClean) {
  for (const arch::Platform& p : arch::all_builtin_platforms()) {
    const Report report = lint_platform(p);
    EXPECT_TRUE(report.empty())
        << p.name << ":\n" << render_diagnostics(report);
  }
}

TEST(PlatformLint, Plt001CacheLineNotPowerOfTwo) {
  auto p = broken_base();
  p.caches[0].line_bytes = 48;
  const Report report = lint_platform(p);
  EXPECT_TRUE(report.has_rule(kRuleCacheLinePow2));
  EXPECT_TRUE(report.has_errors());
}

TEST(PlatformLint, Plt002CapacityInversionWarns) {
  auto p = broken_base();
  ASSERT_GE(p.caches.size(), 2u);
  p.caches[1].size_bytes = p.caches[0].size_bytes / 2;
  const Report report = lint_platform(p);
  EXPECT_TRUE(report.has_rule(kRuleCacheInversion));
  // Severity is warn (deliberate exotic hierarchies exist) unless the
  // shrunken level also breaks set geometry.
  bool inversion_is_warn = false;
  for (const auto& d : report.findings())
    if (d.rule == kRuleCacheInversion)
      inversion_is_warn = d.severity == Severity::kWarn;
  EXPECT_TRUE(inversion_is_warn);
}

TEST(PlatformLint, Plt003BadSetGeometry) {
  auto p = broken_base();
  p.caches[0].size_bytes = 3 * 10 * 1024;  // not sets*line*ways pow2
  p.caches[0].associativity = 7;
  const Report report = lint_platform(p);
  EXPECT_TRUE(report.has_rule(kRuleCacheGeometry));
  auto q = broken_base();
  q.caches[0].associativity = 0;
  EXPECT_TRUE(lint_platform(q).has_rule(kRuleCacheGeometry));
}

TEST(PlatformLint, Plt004FrequencyBounds) {
  auto p = broken_base();
  p.core.freq_hz = 1e6;  // 1 MHz: a kHz/MHz/Hz units mistake
  const Report warn_report = lint_platform(p);
  EXPECT_TRUE(warn_report.has_rule(kRuleFreqBounds));
  EXPECT_FALSE(warn_report.has_errors());  // plausibility only warns
  p.core.freq_hz = 0.0;  // structurally broken: escalated to error
  const Report err_report = lint_platform(p);
  EXPECT_TRUE(err_report.has_rule(kRuleFreqBounds));
  EXPECT_TRUE(err_report.has_errors());
}

TEST(PlatformLint, Plt005PowerBounds) {
  auto p = broken_base();
  p.power_w = 2500.0;  // mW-vs-W mistake
  const Report warn_report = lint_platform(p);
  EXPECT_TRUE(warn_report.has_rule(kRulePowerBounds));
  EXPECT_FALSE(warn_report.has_errors());
  p.power_w = 0.0;
  EXPECT_TRUE(lint_platform(p).has_errors());
}

TEST(PlatformLint, Plt006MemoryConfig) {
  auto p = broken_base();
  p.mem.bandwidth_bytes_per_s = 0.0;
  EXPECT_TRUE(lint_platform(p).has_rule(kRuleMemConfig));
  auto q = broken_base();
  q.mem.total_bytes = 0;
  EXPECT_TRUE(lint_platform(q).has_rule(kRuleMemConfig));
  auto r = broken_base();
  r.mem.page_bytes = 3000;
  EXPECT_TRUE(lint_platform(r).has_rule(kRuleMemConfig));
}

TEST(PlatformLint, Plt007OtherModelFields) {
  auto p = broken_base();
  p.core.tlb_entries = 0;
  const Report report = lint_platform(p);
  EXPECT_TRUE(report.has_rule(kRuleModelField));
  EXPECT_TRUE(report.has_errors());
  auto q = broken_base();
  q.caches.clear();
  EXPECT_TRUE(lint_platform(q).has_rule(kRuleModelField));
  auto r = broken_base();
  r.core.miss_overlap = 1.5;
  EXPECT_TRUE(lint_platform(r).has_rule(kRuleModelField));
}

TEST(PlatformLint, OneErrorPerModelViolation) {
  auto p = broken_base();
  p.core.issue_width = 0;
  p.caches[0].line_bytes = 48;
  p.mem.latency_ns = 0.0;
  p.power_w = 2500.0;  // a plausibility warning, not a violation
  const Report report = lint_platform(p);
  EXPECT_EQ(p.violations().size(), 3u);
  EXPECT_EQ(report.count(Severity::kError), 3u);
  EXPECT_EQ(report.count(Severity::kWarn), 1u);
}

TEST(PlatformLint, ConfigKeysNameThePlatformAndKnob) {
  auto p = broken_base();
  p.caches[0].line_bytes = 48;
  const Report report = lint_platform(p);
  ASSERT_FALSE(report.empty());
  const auto& loc = report.findings().front().location;
  EXPECT_FALSE(loc.in_program);
  EXPECT_NE(loc.config_key.find(p.name), std::string::npos);
  EXPECT_NE(loc.config_key.find("caches[0].line_bytes"), std::string::npos);
}

TEST(NetLint, BuiltinTreesLintClean) {
  for (const std::uint32_t nodes : {4u, 32u, 64u}) {
    const Report tib = lint_tree(net::tibidabo_tree(nodes), "tibidabo");
    EXPECT_TRUE(tib.empty()) << render_diagnostics(tib);
    const Report upg = lint_tree(net::upgraded_tree(nodes), "upgraded");
    EXPECT_TRUE(upg.empty()) << render_diagnostics(upg);
  }
}

TEST(NetLint, Net001ZeroBandwidth) {
  auto t = net::tibidabo_tree(8);
  t.uplink.bandwidth_bytes_per_s = 0.0;
  const Report report = lint_tree(t, "t");
  EXPECT_TRUE(report.has_rule(kRuleLinkBandwidth));
  EXPECT_TRUE(report.has_errors());
}

TEST(NetLint, Net002NegativeLatency) {
  auto t = net::tibidabo_tree(8);
  t.host_link.latency_s = -1e-6;
  EXPECT_TRUE(lint_tree(t, "t").has_rule(kRuleLinkLatency));
}

TEST(NetLint, Net003NonPositiveBufferOrTimeout) {
  auto t = net::tibidabo_tree(8);
  t.uplink.buffer_bytes = 0.0;
  EXPECT_TRUE(lint_tree(t, "t").has_rule(kRuleSwitchBuffer));
  auto u = net::tibidabo_tree(8);
  u.host_link.retransmit_timeout_s = 0.0;
  EXPECT_TRUE(lint_tree(u, "t").has_rule(kRuleSwitchBuffer));
}

TEST(NetLint, Net004TreeShape) {
  net::TreeParams t = net::tibidabo_tree(8);
  t.nodes = 0;
  EXPECT_TRUE(lint_tree(t, "t").has_rule(kRuleTreeShape));
  net::TreeParams u = net::tibidabo_tree(8);
  u.switch_ports = 0;
  EXPECT_TRUE(lint_tree(u, "t").has_rule(kRuleTreeShape));
}

TEST(NetLint, Net003RetryBudget) {
  auto t = net::tibidabo_tree(8);
  t.uplink.max_retransmits = (1u << 31) + 1;
  const Report report = lint_tree(t, "t");
  EXPECT_TRUE(report.has_rule(kRuleSwitchBuffer));
  EXPECT_EQ(report.findings().front().location.config_key,
            "t.uplink.max_retransmits");
}

TEST(CfgLint, Cfg001RankCount) {
  EXPECT_TRUE(lint_rank_count(0, 2, "--ranks").has_rule(kRuleRankCount));
  const Report odd = lint_rank_count(3, 2, "--ranks");
  EXPECT_TRUE(odd.has_rule(kRuleRankCount));
  EXPECT_TRUE(odd.has_errors());
  EXPECT_EQ(odd.findings().front().location.config_key, "--ranks");
  EXPECT_TRUE(lint_rank_count(4, 2, "--ranks").empty());
  EXPECT_TRUE(lint_rank_count(36, 2, "--ranks").empty());
  // Quad-core nodes accept multiples of four only.
  EXPECT_TRUE(lint_rank_count(6, 4, "--ranks").has_rule(kRuleRankCount));
  EXPECT_TRUE(lint_rank_count(8, 4, "--ranks").empty());
}

}  // namespace
}  // namespace mb::verify
