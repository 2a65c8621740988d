#include "arch/platform.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>

#include "arch/platforms.h"
#include "support/check.h"

namespace mb::arch {
namespace {

Platform minimal_platform() {
  Platform p;
  p.name = "test";
  p.core.name = "core";
  p.core.freq_hz = 1e9;
  p.core.issue_width = 2;
  for (std::size_t i = 0; i < kOpClassCount; ++i)
    p.core.recip_throughput[i] = 1.0;
  CacheConfig l1;
  l1.name = "L1";
  l1.size_bytes = 32 * 1024;
  l1.line_bytes = 32;
  l1.associativity = 4;
  l1.latency_cycles = 4;
  p.caches = {l1};
  p.mem.kind = "TEST";
  p.mem.latency_ns = 100;
  p.mem.bandwidth_bytes_per_s = 1e9;
  p.mem.total_bytes = 1 << 30;
  p.power_w = 1.0;
  return p;
}

TEST(Platform, ValidatesMinimalConfig) {
  EXPECT_NO_THROW(minimal_platform().validate());
}

TEST(Platform, RejectsZeroFrequency) {
  auto p = minimal_platform();
  p.core.freq_hz = 0;
  EXPECT_THROW(p.validate(), support::Error);
}

TEST(Platform, RejectsNonPowerOfTwoLine) {
  auto p = minimal_platform();
  p.caches[0].line_bytes = 48;
  EXPECT_THROW(p.validate(), support::Error);
}

TEST(Platform, RejectsNonPowerOfTwoSets) {
  auto p = minimal_platform();
  p.caches[0].size_bytes = 3 * 32 * 4 * 100;  // 300 sets
  EXPECT_THROW(p.validate(), support::Error);
}

TEST(Platform, RejectsMissingCaches) {
  auto p = minimal_platform();
  p.caches.clear();
  EXPECT_THROW(p.validate(), support::Error);
}

TEST(Platform, RejectsZeroPower) {
  auto p = minimal_platform();
  p.power_w = 0;
  EXPECT_THROW(p.validate(), support::Error);
}

TEST(Platform, RejectsLinesBelowFourBytes) {
  auto p = minimal_platform();
  p.caches[0].line_bytes = 2;
  p.caches[0].size_bytes = 2 * 4 * 256;
  EXPECT_THROW(p.validate(), support::Error);
}

TEST(Platform, RejectsTlbGeometryTheModelCannotBuild) {
  struct Tlb {
    std::uint32_t entries;
    std::uint32_t ways;
  };
  for (const Tlb bad : {Tlb{0, 32}, Tlb{32, 0}, Tlb{48, 32}, Tlb{96, 32}}) {
    auto p = minimal_platform();
    p.core.tlb_entries = bad.entries;
    p.core.tlb_associativity = bad.ways;
    EXPECT_THROW(p.validate(), support::Error)
        << bad.entries << " entries, " << bad.ways << " ways";
  }
  auto p = minimal_platform();
  p.core.tlb_entries = 64;
  p.core.tlb_associativity = 4;  // 16 sets
  EXPECT_NO_THROW(p.validate());
}

TEST(Platform, RejectsZeroInstalledMemory) {
  auto p = minimal_platform();
  p.mem.total_bytes = 0;
  try {
    p.validate();
    ADD_FAILURE() << "zero bytes of memory were accepted";
  } catch (const support::Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "Platform::validate: mem.total_bytes: installed memory must be "
              "positive");
  }
}

TEST(Platform, ViolationsListEveryFieldInCheckOrder) {
  EXPECT_TRUE(minimal_platform().violations().empty());
  auto p = minimal_platform();
  p.mem.total_bytes = 0;
  p.core.issue_width = 0;
  p.caches[0].line_bytes = 0;  // the level's later checks would divide by 0
  p.core.tlb_entries = 48;     // not a multiple of 32 ways: one TLB entry
  p.core.recip_throughput[0] = -1.0;
  p.core.recip_throughput[1] = -1.0;
  const auto v = p.violations();
  ASSERT_EQ(v.size(), 6u);
  EXPECT_EQ(v[0].field, "core.issue_width");
  EXPECT_EQ(v[1].field, "core.recip.int_alu");
  EXPECT_EQ(v[2].field, "core.recip.int_mul");
  EXPECT_EQ(v[3].field, "caches[0].line_bytes");
  EXPECT_EQ(v[4].field, "core.tlb_entries");
  EXPECT_EQ(v[5].field, "mem.total_bytes");  // last, after power_w
}

TEST(Platform, SecondsFromCycles) {
  const auto p = minimal_platform();
  EXPECT_DOUBLE_EQ(p.seconds(1e9), 1.0);
}

TEST(CacheConfig, SetComputation) {
  CacheConfig c;
  c.size_bytes = 32 * 1024;
  c.line_bytes = 32;
  c.associativity = 4;
  EXPECT_EQ(c.sets(), 256u);
}

TEST(OpClass, NamesAreUnique) {
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < kOpClassCount; ++i)
    names.insert(op_class_name(static_cast<OpClass>(i)));
  EXPECT_EQ(names.size(), kOpClassCount);
}

TEST(OpClass, MemoryClassification) {
  EXPECT_TRUE(is_memory_op(OpClass::kLoad32));
  EXPECT_TRUE(is_memory_op(OpClass::kStore128));
  EXPECT_FALSE(is_memory_op(OpClass::kIntAlu));
  EXPECT_FALSE(is_memory_op(OpClass::kBranch));
}

TEST(OpClass, MemoryBytes) {
  EXPECT_EQ(memory_op_bytes(OpClass::kLoad32), 4u);
  EXPECT_EQ(memory_op_bytes(OpClass::kLoad64), 8u);
  EXPECT_EQ(memory_op_bytes(OpClass::kStore128), 16u);
  EXPECT_EQ(memory_op_bytes(OpClass::kIntAlu), 0u);
}

TEST(OpClass, WidthLookup) {
  EXPECT_EQ(load_class_for_bits(32), OpClass::kLoad32);
  EXPECT_EQ(load_class_for_bits(64), OpClass::kLoad64);
  EXPECT_EQ(load_class_for_bits(128), OpClass::kLoad128);
  EXPECT_EQ(store_class_for_bits(64), OpClass::kStore64);
  EXPECT_THROW(load_class_for_bits(16), support::Error);
  EXPECT_THROW(store_class_for_bits(256), support::Error);
}

}  // namespace
}  // namespace mb::arch
