#include "arch/platform_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "arch/platforms.h"
#include "support/check.h"

namespace mb::arch {
namespace {

bool platforms_equal(const Platform& a, const Platform& b) {
  if (a.name != b.name || a.cores != b.cores || a.power_w != b.power_w)
    return false;
  if (a.core.name != b.core.name || a.core.freq_hz != b.core.freq_hz ||
      a.core.issue_width != b.core.issue_width ||
      a.core.vector_bits != b.core.vector_bits ||
      a.core.vector_dp != b.core.vector_dp ||
      a.core.split_lsu != b.core.split_lsu ||
      a.core.miss_overlap != b.core.miss_overlap ||
      a.core.mshr != b.core.mshr ||
      a.core.dp_scalar_registers != b.core.dp_scalar_registers)
    return false;
  if (a.core.recip_throughput != b.core.recip_throughput) return false;
  if (a.caches.size() != b.caches.size()) return false;
  for (std::size_t i = 0; i < a.caches.size(); ++i) {
    const auto& x = a.caches[i];
    const auto& y = b.caches[i];
    if (x.name != y.name || x.size_bytes != y.size_bytes ||
        x.line_bytes != y.line_bytes ||
        x.associativity != y.associativity ||
        x.latency_cycles != y.latency_cycles || x.shared != y.shared)
      return false;
  }
  return a.mem.kind == b.mem.kind && a.mem.latency_ns == b.mem.latency_ns &&
         a.mem.bandwidth_bytes_per_s == b.mem.bandwidth_bytes_per_s &&
         a.mem.total_bytes == b.mem.total_bytes &&
         a.mem.page_bytes == b.mem.page_bytes;
}

class BuiltinRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(BuiltinRoundTrip, SerializeParseIsIdentity) {
  const auto platforms = all_builtin_platforms();
  const Platform& original =
      platforms[static_cast<std::size_t>(GetParam())];
  const std::string text = serialize_platform(original);
  const Platform parsed = parse_platform(text);
  EXPECT_TRUE(platforms_equal(original, parsed)) << original.name;
  // Second round trip is byte-stable.
  EXPECT_EQ(text, serialize_platform(parsed));
}

INSTANTIATE_TEST_SUITE_P(AllBuiltins, BuiltinRoundTrip,
                         ::testing::Range(0, 4));

TEST(PlatformIo, CommentsAndBlanksIgnored) {
  std::string text = serialize_platform(snowball());
  text = "# leading comment\n\n; another comment\n" + text;
  EXPECT_NO_THROW(parse_platform(text));
}

TEST(PlatformIo, MissingSectionRejected) {
  const std::string text = "name = x\ncores = 1\npower_w = 1\n";
  EXPECT_THROW(parse_platform(text), support::Error);
}

TEST(PlatformIo, UnknownSectionRejected) {
  std::string text = serialize_platform(snowball());
  text += "[gpu]\nname = nope\n";
  EXPECT_THROW(parse_platform(text), support::Error);
}

TEST(PlatformIo, DuplicateKeyRejected) {
  std::string text = serialize_platform(snowball());
  text += "name = again\n";  // duplicate in the trailing [mem] section?
  // The appended key lands in [mem], where "name" is unknown but not a
  // duplicate — craft a real duplicate instead:
  std::string dup = "name = a\nname = b\ncores = 1\npower_w = 1\n";
  EXPECT_THROW(parse_platform(dup), support::Error);
}

TEST(PlatformIo, BadNumberRejected) {
  std::string text = serialize_platform(snowball());
  const auto pos = text.find("freq_hz = ");
  text.replace(pos, text.find('\n', pos) - pos, "freq_hz = fast");
  EXPECT_THROW(parse_platform(text), support::Error);
}

TEST(PlatformIo, ValidationRunsOnParse) {
  std::string text = serialize_platform(snowball());
  const auto pos = text.find("cores = ");
  text.replace(pos, text.find('\n', pos) - pos, "cores = 0");
  EXPECT_THROW(parse_platform(text), support::Error);
}

/// Replaces the value of the first `key = ...` line; returns that line's
/// 1-based number.
int set_value(std::string& text, const std::string& key,
              const std::string& value) {
  const auto pos = text.find("\n" + key + " = ") + 1;
  text.replace(pos, text.find('\n', pos) - pos, key + " = " + value);
  const auto end = text.begin() + static_cast<std::ptrdiff_t>(pos);
  return 1 + static_cast<int>(std::count(text.begin(), end, '\n'));
}

TEST(PlatformIo, IntegerFieldsRejectWhatIsNotAnInteger) {
  struct Case {
    const char* key;
    const char* value;
  };
  const Case cases[] = {
      {"tlb_walk_cycles", "1e30"},              // exponent, far out of range
      {"page_bytes", "4096.9"},                 // fraction
      {"line_bytes", "4294967328"},             // above 2^32 - 1
      {"size_bytes", "18446744073709551616"},   // above 2^64 - 1
      {"cores", "-1"},                          // sign
      {"issue_width", "+2"},                    // sign
      {"tlb_entries", "inf"},
      {"associativity", "nan"},
      {"latency_cycles", "0x10"},               // hex
      {"total_bytes", "1e9"},                   // exponent
      {"out_of_order", "1.0"},                  // flags are integers too
      {"vector_bits", "12 ab"},                 // trailing garbage
      {"dp_scalar_registers", ""},              // empty
  };
  for (const Case& c : cases) {
    std::string text = serialize_platform(snowball());
    const int line = set_value(text, c.key, c.value);
    try {
      parse_platform(text);
      ADD_FAILURE() << c.key << " = '" << c.value << "' was accepted";
    } catch (const support::Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + std::string(c.key) + "'"), std::string::npos)
          << what;
      EXPECT_NE(what.find("line " + std::to_string(line)), std::string::npos)
          << what;
    }
  }
}

TEST(PlatformIo, IntegerFieldsAcceptTheirWholeRange) {
  std::string text = serialize_platform(snowball());
  set_value(text, "tlb_walk_cycles", "4294967295");
  set_value(text, "total_bytes", "18446744073709551615");
  const Platform p = parse_platform(text);
  EXPECT_EQ(p.core.tlb_walk_cycles, 4294967295u);
  EXPECT_EQ(p.mem.total_bytes, 18446744073709551615u);
}

TEST(PlatformIo, RejectsGeometryTheSimulatorCannotBuild) {
  // Each parses as numbers but would fail (or divide by zero) only when a
  // machine is built from it.
  for (const auto& [key, value] :
       {std::pair{"page_bytes", "0"}, std::pair{"tlb_entries", "0"},
        std::pair{"tlb_associativity", "0"}}) {
    std::string text = serialize_platform(snowball());
    set_value(text, key, value);
    EXPECT_THROW(parse_platform(text), support::Error) << key;
  }
}

TEST(PlatformIo, RealFieldsRejectNonFiniteAndOutOfRangeValues) {
  struct Case {
    const char* key;
    const char* value;
    bool located;  ///< a parse error names the line; a range error cannot
  };
  const Case cases[] = {
      {"freq_hz", "inf", true},
      {"miss_overlap", "nan", true},
      {"latency_ns", "-inf", true},
      {"bandwidth_bytes_per_s", "1e999", true},  // overflows to inf
      {"recip.fp_add_dp", "NaN", true},
      {"power_w", "infinity", true},
      {"miss_overlap", "1.5", false},
      {"miss_overlap", "-0.1", false},
      {"mshr", "0.5", false},
      {"branch_mispredict_rate", "-3", false},
      {"branch_mispredict_rate", "1.01", false},
      {"branch_mispredict_penalty", "-1", false},
      {"fp_dep_latency_cycles", "-4", false},
      {"recip.int_alu", "-0.5", false},
  };
  for (const Case& c : cases) {
    std::string text = serialize_platform(snowball());
    const int line = set_value(text, c.key, c.value);
    try {
      parse_platform(text);
      ADD_FAILURE() << c.key << " = '" << c.value << "' was accepted";
    } catch (const support::Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(c.key), std::string::npos) << what;
      if (c.located) {
        EXPECT_NE(what.find("line " + std::to_string(line)),
                  std::string::npos)
            << what;
      }
    }
  }
  // The ends of each range are models a platform may use.
  for (const auto& [key, value] :
       {std::pair{"miss_overlap", "0"}, std::pair{"miss_overlap", "1"},
        std::pair{"mshr", "1"}, std::pair{"branch_mispredict_rate", "0"},
        std::pair{"branch_mispredict_rate", "1"},
        std::pair{"branch_mispredict_penalty", "0"},
        std::pair{"fp_dep_latency_cycles", "0"},
        std::pair{"recip.int_alu", "0"}}) {
    std::string text = serialize_platform(snowball());
    set_value(text, key, value);
    EXPECT_NO_THROW(parse_platform(text)) << key << " = " << value;
  }
}

TEST(PlatformIo, ParsedPlatformIsUsable) {
  // A hand-written minimal board (single-issue in-order microcontroller).
  const Platform p = parse_platform(serialize_platform(tegra2_node()));
  EXPECT_NEAR(p.peak_dp_gflops(), tegra2_node().peak_dp_gflops(), 1e-9);
  EXPECT_EQ(p.llc_index(), tegra2_node().llc_index());
}

}  // namespace
}  // namespace mb::arch
