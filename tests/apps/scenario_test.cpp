// The scenario table is the one home of every named run. The digests were
// recorded from the copies it replaced (mbctl's fig4 defaults and scaling
// suite, bench/fig3_scaling.cpp), so every front end that reads the table
// builds the very programs it built before, on the same MTU.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "apps/scenario.h"
#include "gen/generator.h"
#include "support/check.h"
#include "support/hash.h"

namespace mb::apps {
namespace {

struct Pinned {
  std::string_view name;
  std::uint32_t ranks;
  std::uint64_t seed;
  std::uint64_t digest;  ///< gen::program_digest of the replaced copy
  std::uint32_t mtu_bytes;
};

TEST(Scenario, ProgramsMatchTheCopiesTheyReplace) {
  const Pinned pinned[] = {
      {"fig4", 36, 1, 0x76a924f472a02809, 1500},
      {"fig4", 128, 1, 0xe494faf0bb811c76, 1500},
      {"fig3/hpl", 4, 1, 0xddcf84a13d642969, 1u << 20},
      {"fig3/hpl", 36, 1, 0xa716406c3e847e15, 1u << 20},
      {"fig3/specfem", 4, 1, 0x8df15008fe7ead07, 1500},
      {"fig3/specfem", 36, 1, 0xe3a267f687a7f6a7, 1500},
      {"fig3/bigdft", 4, 1, 0x8502f1543debabdd, 1500},
      {"fig3/bigdft", 36, 1, 0xed38a31eae5f6765, 1500},
      {"scaling/specfem", 64, 2013, 0x8e81cc056480edcd, 1500},
      {"scaling/specfem", 256, 2013, 0x20e679c5127c1c32, 1500},
      {"scaling/hpl", 64, 2013, 0x7d5ee6445b6bfa59, 1u << 20},
      {"scaling/hpl", 256, 2013, 0x2a77570101f558b2, 1u << 20},
      {"scaling/bigdft", 64, 2013, 0x9d41fdd2485adf53, 1500},
      {"scaling/bigdft", 256, 2013, 0x87a7f361ec23ecb5, 1500},
  };
  for (const Pinned& p : pinned) {
    SCOPED_TRACE(std::string(p.name) + " at " + std::to_string(p.ranks));
    const Scenario s = scenario(p.name, p.ranks, p.seed);
    EXPECT_EQ(s.name, p.name);
    EXPECT_EQ(s.ranks(), p.ranks);
    const ClusterConfig cluster = cluster_for(s);
    EXPECT_EQ(cluster.nodes * cluster.cores_per_node, p.ranks);
    EXPECT_EQ(cluster.mtu_bytes, p.mtu_bytes);
    EXPECT_EQ(support::hex64(gen::program_digest(build_program(s.params))),
              support::hex64(p.digest));
  }
}

std::vector<std::string_view> names(const std::vector<Scenario>& suite) {
  std::vector<std::string_view> out;
  for (const Scenario& s : suite) out.push_back(s.name);
  return out;
}

TEST(Scenario, ScalingSuiteRunsBigDftUpTo1024Ranks) {
  using Names = std::vector<std::string_view>;
  EXPECT_EQ(names(scaling_suite(1024, 2013)),
            (Names{"scaling/specfem", "scaling/hpl", "scaling/bigdft"}));
  EXPECT_EQ(names(scaling_suite(2048, 2013)),
            (Names{"scaling/specfem", "scaling/hpl"}));
  for (const Scenario& s : scaling_suite(4096, 7)) EXPECT_EQ(s.ranks(), 4096u);
}

TEST(Scenario, UnknownNameThrows) {
  EXPECT_THROW(scenario("fig5", 36, 1), support::Error);
}

}  // namespace
}  // namespace mb::apps
