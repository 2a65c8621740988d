// Exact memory-model counters of the single-node kernels.
//
// Every single-node result (Table II, the page-placement study of
// Sec. V-A.1, Figs. 6 and 7) runs through sim::Machine::touch: TLB lookup,
// translation, cache hierarchy walk. The integers below were recorded from
// the model before its per-access path was rewritten for speed (packed
// cache-line words, a stamped TLB, a translation memo); a speed-up of that
// path must leave every one of them unchanged.
#include <array>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "arch/platforms.h"
#include "counters/counters.h"
#include "kernels/latency.h"
#include "kernels/magicfilter.h"
#include "kernels/membench.h"
#include "sim/machine.h"
#include "support/check.h"

namespace mb::sim {
namespace {

/// One kernel run's memory behaviour: per cache level (L1, L2, L3; zero
/// where the platform has no such level) and the data TLB.
struct Counts {
  std::array<std::uint64_t, 3> accesses{};
  std::array<std::uint64_t, 3> misses{};
  std::array<std::uint64_t, 3> writebacks{};
  std::uint64_t tlb_misses = 0;

  bool operator==(const Counts&) const = default;
};

std::ostream& operator<<(std::ostream& out, const Counts& c) {
  const auto list = [&out](const std::array<std::uint64_t, 3>& v) {
    out << '{' << v[0] << ", " << v[1] << ", " << v[2] << '}';
  };
  out << '{';
  list(c.accesses);
  out << ", ";
  list(c.misses);
  out << ", ";
  list(c.writebacks);
  return out << ", " << c.tlb_misses << '}';
}

constexpr std::size_t kKernels = 7;
constexpr std::size_t kPlatforms = 4;
constexpr std::size_t kPolicies = 2;

constexpr std::array<const char*, kPlatforms> kPlatformNames = {
    "snowball", "xeon_x5550", "tegra2_node", "exynos5"};
constexpr std::array<const char*, kKernels> kKernelNames = {
    "magicfilter unroll=1",  "magicfilter unroll=6",
    "magicfilter unroll=12", "membench 64 KiB",
    "membench 1 MiB",        "latency 32 KiB",
    "latency 4 MiB"};

Counts counts_of(const Machine& m, const SimResult& sim) {
  Counts c;
  const cache::HierarchyStats hs = m.hierarchy().stats();
  for (std::size_t i = 0; i < hs.level.size() && i < 3; ++i) {
    c.accesses[i] = hs.level[i].accesses;
    c.misses[i] = hs.level[i].misses;
    c.writebacks[i] = hs.level[i].writebacks;
  }
  c.tlb_misses = sim.counters.get(counters::Counter::kTlbDm);
  return c;
}

/// Runs the seven kernels in order on one machine, so the later buffers'
/// placement depends on the frames the earlier ones freed.
std::array<Counts, kKernels> run_all(Machine& m) {
  std::array<Counts, kKernels> out;
  std::size_t k = 0;
  for (const std::uint32_t unroll : {1u, 6u, 12u}) {
    kernels::MagicfilterParams p;
    p.n = 16;
    p.dims = 3;
    p.unroll = unroll;
    out[k++] = counts_of(m, kernels::magicfilter_run(m, p).sim);
  }
  {
    kernels::MembenchParams p;
    p.array_bytes = 64 * 1024;
    p.elem_bits = 64;
    p.passes = 4;
    out[k++] = counts_of(m, kernels::membench_run(m, p).sim);
  }
  {
    kernels::MembenchParams p;
    p.array_bytes = 1024 * 1024;
    p.elem_bits = 128;
    p.stride_elems = 2;
    p.unroll = 8;
    p.passes = 2;
    out[k++] = counts_of(m, kernels::membench_run(m, p).sim);
  }
  {
    kernels::LatencyParams p;
    p.buffer_bytes = 32 * 1024;
    p.hops = 4096;
    p.seed = 3;
    out[k++] = counts_of(m, kernels::latency_run(m, p).sim);
  }
  {
    kernels::LatencyParams p;
    p.buffer_bytes = 4 * 1024 * 1024;
    p.hops = 8192;
    p.seed = 5;
    out[k++] = counts_of(m, kernels::latency_run(m, p).sim);
  }
  return out;
}

// [platform: snowball, xeon_x5550, tegra2_node, exynos5]
// [policy: consecutive, reuse-biased][kernel: kKernelNames order]
const Counts kPinned[kPlatforms][kPolicies][kKernels] = {
    {  // snowball
        {  // consecutive
            {{405504, 19956, 0}, {19956, 2052, 0}, {9152, 0, 0}, 17},
            {{245760, 20079, 0}, {20079, 2052, 0}, {9176, 0, 0}, 17},
            {{233472, 28068, 0}, {28068, 2052, 0}, {11456, 0, 0}, 17},
            {{32768, 8192, 0}, {8192, 2048, 0}, {0, 0, 0}, 16},
            {{196608, 65537, 0}, {65537, 65537, 0}, {0, 0, 0}, 513},
            {{4096, 0, 0}, {0, 0, 0}, {0, 0, 0}, 0},
            {{8192, 8192, 0}, {8192, 8192, 0}, {0, 0, 0}, 7947},
        },
        {  // reuse-biased
            {{405504, 49444, 0}, {49444, 2052, 0}, {9024, 0, 0}, 17},
            {{245760, 63629, 0}, {63629, 2052, 0}, {8972, 0, 0}, 17},
            {{233472, 58114, 0}, {58114, 2052, 0}, {11328, 0, 0}, 17},
            {{32768, 8192, 0}, {8192, 2048, 0}, {0, 0, 0}, 16},
            {{196608, 65537, 0}, {65537, 65537, 0}, {0, 0, 0}, 513},
            {{4096, 0, 0}, {0, 0, 0}, {0, 0, 0}, 0},
            {{8192, 8192, 0}, {8192, 8192, 0}, {0, 0, 0}, 7947},
        },
    },
    {  // xeon_x5550
        {  // consecutive
            {{405504, 19538, 1026}, {19538, 1026, 1026}, {8672, 0, 0}, 17},
            {{245760, 19546, 1026}, {19546, 1026, 1026}, {8672, 0, 0}, 17},
            {{430080, 28011, 1026}, {28011, 1026, 1026}, {11361, 0, 0}, 17},
            {{32768, 4096, 1024}, {4096, 1024, 1024}, {0, 0, 0}, 16},
            {{65536, 32768, 32768}, {32768, 32768, 16384}, {0, 0, 0}, 512},
            {{4096, 0, 0}, {0, 0, 0}, {0, 0, 0}, 0},
            {{8192, 8192, 8192}, {8192, 8192, 0}, {0, 0, 0}, 7727},
        },
        {  // reuse-biased
            {{405504, 19538, 1026}, {19538, 1026, 1026}, {8672, 0, 0}, 17},
            {{245760, 19546, 1026}, {19546, 1026, 1026}, {8672, 0, 0}, 17},
            {{430080, 28011, 1026}, {28011, 1026, 1026}, {11361, 0, 0}, 17},
            {{32768, 4096, 1024}, {4096, 1024, 1024}, {0, 0, 0}, 16},
            {{65536, 32768, 32768}, {32768, 32768, 16384}, {0, 0, 0}, 512},
            {{4096, 0, 0}, {0, 0, 0}, {0, 0, 0}, 0},
            {{8192, 8192, 8192}, {8192, 8192, 0}, {0, 0, 0}, 7727},
        },
    },
    {  // tegra2_node
        {  // consecutive
            {{405504, 19956, 0}, {19956, 2052, 0}, {9152, 0, 0}, 17},
            {{393216, 20040, 0}, {20040, 2052, 0}, {9176, 0, 0}, 17},
            {{626688, 28028, 0}, {28028, 2052, 0}, {11456, 0, 0}, 17},
            {{32768, 8192, 0}, {8192, 2048, 0}, {0, 0, 0}, 16},
            {{262144, 65537, 0}, {65537, 32768, 0}, {0, 0, 0}, 513},
            {{4096, 0, 0}, {0, 0, 0}, {0, 0, 0}, 0},
            {{8192, 8192, 0}, {8192, 8192, 0}, {0, 0, 0}, 7947},
        },
        {  // reuse-biased
            {{405504, 49444, 0}, {49444, 2052, 0}, {9024, 0, 0}, 17},
            {{393216, 63622, 0}, {63622, 2052, 0}, {9036, 0, 0}, 17},
            {{626688, 58113, 0}, {58113, 2052, 0}, {11447, 0, 0}, 17},
            {{32768, 8192, 0}, {8192, 2048, 0}, {0, 0, 0}, 16},
            {{262144, 65537, 0}, {65537, 47872, 0}, {0, 0, 0}, 513},
            {{4096, 0, 0}, {0, 0, 0}, {0, 0, 0}, 0},
            {{8192, 8192, 0}, {8192, 8192, 0}, {0, 0, 0}, 7947},
        },
    },
    {  // exynos5
        {  // consecutive
            {{405504, 18324, 0}, {18324, 1026, 0}, {8700, 0, 0}, 17},
            {{245760, 18325, 0}, {18325, 1026, 0}, {8700, 0, 0}, 17},
            {{233472, 23022, 0}, {23022, 1026, 0}, {10464, 0, 0}, 17},
            {{32768, 4096, 0}, {4096, 1024, 0}, {0, 0, 0}, 16},
            {{65536, 32768, 0}, {32768, 16384, 0}, {0, 0, 0}, 512},
            {{4096, 0, 0}, {0, 0, 0}, {0, 0, 0}, 0},
            {{8192, 8192, 0}, {8192, 8192, 0}, {0, 0, 0}, 7947},
        },
        {  // reuse-biased
            {{405504, 41139, 0}, {41139, 1026, 0}, {8622, 0, 0}, 17},
            {{245760, 53898, 0}, {53898, 1026, 0}, {8992, 0, 0}, 17},
            {{233472, 48191, 0}, {48191, 1026, 0}, {11296, 0, 0}, 17},
            {{32768, 4096, 0}, {4096, 1024, 0}, {0, 0, 0}, 16},
            {{65536, 32768, 0}, {32768, 23936, 0}, {0, 0, 0}, 512},
            {{4096, 1536, 0}, {1536, 0, 0}, {0, 0, 0}, 0},
            {{8192, 8192, 0}, {8192, 8192, 0}, {0, 0, 0}, 7947},
        },
    },
};

constexpr std::array<PagePolicy, kPolicies> kPolicyList = {
    PagePolicy::kConsecutive, PagePolicy::kReuseBiased};

class KernelCounters
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {
};

TEST_P(KernelCounters, MatchTheIntegersRecordedBeforeTheRewrite) {
  const auto [platform, policy] = GetParam();
  Machine m(arch::all_builtin_platforms()[platform], kPolicyList[policy],
            support::Rng(2013));
  const std::array<Counts, kKernels> actual = run_all(m);

  std::ostringstream table;
  for (const Counts& c : actual) table << "    " << c << ",\n";
  for (std::size_t k = 0; k < kKernels; ++k) {
    EXPECT_EQ(actual[k], kPinned[platform][policy][k])
        << kKernelNames[k] << "; this case's measured rows:\n"
        << table.str();
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryBuiltinPlatform, KernelCounters,
    ::testing::Values(std::pair{0u, 0u}, std::pair{0u, 1u},
                      std::pair{1u, 0u}, std::pair{1u, 1u},
                      std::pair{2u, 0u}, std::pair{2u, 1u},
                      std::pair{3u, 0u}, std::pair{3u, 1u}),
    [](const auto& info) {
      return std::string(kPlatformNames[info.param.first]) +
             (info.param.second == 0 ? "_consecutive" : "_reuse_biased");
    });

TEST(TranslationMemo, TouchAfterMunmapThrows) {
  Machine m(arch::snowball(), PagePolicy::kReuseBiased, support::Rng(7));
  const os::Region r = m.mmap(3 * 4096);
  for (std::uint64_t off = 0; off < r.bytes; off += 512)
    m.touch(r.vaddr + off, 8, off % 1024 == 0);
  m.munmap(r);
  for (std::uint64_t off = 0; off < r.bytes; off += 4096)
    EXPECT_THROW(m.touch(r.vaddr + off, 8, false), support::Error) << off;

  // A new mapping reusing the freed frames translates afresh, and the old
  // region stays unmapped.
  const os::Region again = m.mmap(3 * 4096);
  EXPECT_NO_THROW(m.touch(again.vaddr, 8, false));
  EXPECT_THROW(m.touch(r.vaddr, 8, false), support::Error);
}

}  // namespace
}  // namespace mb::sim
