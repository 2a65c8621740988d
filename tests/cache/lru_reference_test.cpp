// Differential test of Cache and Tlb against a textbook true-LRU model.
//
// The reference keeps each set as a std::list, most recently used first,
// and moves, inserts and evicts list nodes: the obvious implementation,
// with none of the packing or stamps the real structures use for speed.
// Seeded random streams of every operation run through both; hit or miss
// must agree after each access and every statistic at the end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <string>
#include <vector>

#include "arch/platforms.h"
#include "cache/cache.h"
#include "cache/tlb.h"
#include "support/check.h"
#include "support/rng.h"

namespace mb::cache {
namespace {

struct RefLine {
  std::uint64_t line = 0;
  bool dirty = false;
};

/// Write-back, write-allocate, true-LRU cache over std::list sets.
class RefCache {
 public:
  explicit RefCache(const arch::CacheConfig& c)
      : sets_(c.sets()), ways_(c.associativity), line_bytes_(c.line_bytes),
        lists_(sets_) {}

  bool access_line(std::uint64_t addr, bool write) {
    ++stats_.accesses;
    auto& set = set_of(addr);
    const auto it = find(set, addr);
    if (it != set.end()) {
      ++stats_.hits;
      RefLine hit = *it;
      hit.dirty = hit.dirty || write;
      set.erase(it);
      set.push_front(hit);
      return true;
    }
    ++stats_.misses;
    insert(set, RefLine{addr / line_bytes_, write});
    return false;
  }

  void fill_line(std::uint64_t addr) {
    auto& set = set_of(addr);
    const auto it = find(set, addr);
    if (it != set.end()) {
      set.splice(set.begin(), set, it);
      return;
    }
    insert(set, RefLine{addr / line_bytes_, false});
  }

  bool contains(std::uint64_t addr) const {
    const auto& set = lists_[(addr / line_bytes_) % sets_];
    return std::any_of(set.begin(), set.end(), [&](const RefLine& l) {
      return l.line == addr / line_bytes_;
    });
  }

  void flush() {
    for (auto& set : lists_) set.clear();
  }
  void reset_stats() { stats_ = CacheStats{}; }
  const CacheStats& stats() const { return stats_; }

 private:
  std::list<RefLine>& set_of(std::uint64_t addr) {
    return lists_[(addr / line_bytes_) % sets_];
  }
  std::list<RefLine>::iterator find(std::list<RefLine>& set,
                                    std::uint64_t addr) {
    return std::find_if(set.begin(), set.end(), [&](const RefLine& l) {
      return l.line == addr / line_bytes_;
    });
  }
  void insert(std::list<RefLine>& set, RefLine line) {
    if (set.size() == ways_) {
      ++stats_.evictions;
      if (set.back().dirty) ++stats_.writebacks;
      set.pop_back();
    }
    set.push_front(line);
  }

  std::uint64_t sets_;
  std::size_t ways_;
  std::uint64_t line_bytes_;
  std::vector<std::list<RefLine>> lists_;
  CacheStats stats_;
};

void expect_same_stats(const CacheStats& got, const CacheStats& want,
                       const std::string& where) {
  EXPECT_EQ(got.accesses, want.accesses) << where;
  EXPECT_EQ(got.hits, want.hits) << where;
  EXPECT_EQ(got.misses, want.misses) << where;
  EXPECT_EQ(got.evictions, want.evictions) << where;
  EXPECT_EQ(got.writebacks, want.writebacks) << where;
}

/// Addresses that collide: a few sets, a tag range a little wider than
/// the associativity, at the bottom of the address space or within a few
/// lines of 2^64.
std::uint64_t colliding_address(const arch::CacheConfig& c, support::Rng& rng) {
  const std::uint64_t sets = c.sets();
  const std::uint64_t set_choices[] = {0, 1 % sets, sets / 2, sets - 1};
  const std::uint64_t set = set_choices[rng.index(4)];
  const std::uint64_t tag = rng.uniform_u64(0, 2ull * c.associativity + 1);
  const std::uint64_t lines = ~std::uint64_t{0} / c.line_bytes + 1;
  const std::uint64_t top_tag = lines / sets - 1;
  const std::uint64_t line =
      (rng.bernoulli(0.3) ? top_tag - tag : tag) * sets + set;
  return line * c.line_bytes + rng.uniform_u64(0, c.line_bytes - 1);
}

void run_cache_stream(const arch::CacheConfig& config, std::uint64_t seed) {
  const std::string where = config.name + " " +
                            std::to_string(config.size_bytes) + " B / " +
                            std::to_string(config.line_bytes) + " B x " +
                            std::to_string(config.associativity);
  Cache cache(config);
  RefCache ref(config);
  support::Rng rng(seed);
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t addr = colliding_address(config, rng);
    const double pick = rng.uniform();
    if (pick < 0.55) {
      ASSERT_EQ(cache.access_line(addr, false), ref.access_line(addr, false))
          << where << " read op " << op;
    } else if (pick < 0.85) {
      ASSERT_EQ(cache.access_line(addr, true), ref.access_line(addr, true))
          << where << " write op " << op;
    } else if (pick < 0.93) {
      cache.fill_line(addr);
      ref.fill_line(addr);
    } else if (pick < 0.995) {
      ASSERT_EQ(cache.contains(addr), ref.contains(addr))
          << where << " contains op " << op;
    } else if (pick < 0.998) {
      cache.flush();
      ref.flush();
    } else {
      cache.reset_stats();
      ref.reset_stats();
    }
  }
  expect_same_stats(cache.stats(), ref.stats(), where);
}

TEST(LruReference, EveryBuiltinCacheLevel) {
  std::uint64_t seed = 1;
  for (const arch::Platform& p : arch::all_builtin_platforms())
    for (const arch::CacheConfig& c : p.caches)
      run_cache_stream(c, seed++);
}

TEST(LruReference, OneTwoAndSixteenWays) {
  const auto geometry = [](std::uint64_t size, std::uint32_t line,
                           std::uint32_t ways) {
    arch::CacheConfig c;
    c.name = std::to_string(ways) + "-way";
    c.size_bytes = size;
    c.line_bytes = line;
    c.associativity = ways;
    return c;
  };
  run_cache_stream(geometry(1024, 32, 1), 11);
  run_cache_stream(geometry(2048, 64, 2), 12);
  run_cache_stream(geometry(16 * 64, 64, 16), 13);  // fully associative
  run_cache_stream(geometry(64 * 1024, 128, 16), 14);
  run_cache_stream(geometry(256, 4, 2), 15);  // smallest line with spare bits
}

TEST(LruReference, GeometriesTheWordCannotHoldAreRejected) {
  // Lines below 4 bytes leave no spare bits; zero lines or ways must be
  // rejected before the set count divides by them.
  struct Geometry {
    std::uint32_t line;
    std::uint32_t ways;
  };
  for (const Geometry g : {Geometry{1, 2}, Geometry{2, 2}, Geometry{0, 2},
                           Geometry{32, 0}}) {
    arch::CacheConfig c;
    c.name = "bad";
    c.size_bytes = 64;
    c.line_bytes = g.line;
    c.associativity = g.ways;
    EXPECT_THROW(Cache{c}, support::Error) << g.line << " B x " << g.ways;
  }
}

/// True-LRU TLB over std::list sets.
class RefTlb {
 public:
  explicit RefTlb(const TlbConfig& c)
      : sets_(c.entries / c.associativity), ways_(c.associativity),
        page_bytes_(c.page_bytes), lists_(sets_) {}

  bool access(std::uint64_t vaddr) {
    ++stats_.accesses;
    const std::uint64_t vpn = vaddr / page_bytes_;
    auto& set = lists_[vpn % sets_];
    const auto it = std::find(set.begin(), set.end(), vpn);
    if (it != set.end()) {
      ++stats_.hits;
      set.splice(set.begin(), set, it);
      return true;
    }
    ++stats_.misses;
    if (set.size() == ways_) {
      ++stats_.evictions;
      set.pop_back();
    }
    set.push_front(vpn);
    return false;
  }
  void flush() {
    for (auto& set : lists_) set.clear();
  }
  void reset_stats() { stats_ = CacheStats{}; }
  const CacheStats& stats() const { return stats_; }

 private:
  std::uint64_t sets_;
  std::size_t ways_;
  std::uint64_t page_bytes_;
  std::vector<std::list<std::uint64_t>> lists_;
  CacheStats stats_;
};

void run_tlb_stream(const TlbConfig& config, std::uint64_t seed) {
  const std::string where = std::to_string(config.entries) + " entries, " +
                            std::to_string(config.associativity) + "-way";
  Tlb tlb(config);
  RefTlb ref(config);
  support::Rng rng(seed);
  const std::uint64_t sets = config.entries / config.associativity;
  const std::uint64_t top_vpn = ~std::uint64_t{0} / config.page_bytes;
  for (int op = 0; op < 50000; ++op) {
    const double pick = rng.uniform();
    if (pick < 0.998) {
      // A pool a little over twice the capacity, split between low pages
      // and the last pages below 2^64; runs of the same page as a
      // streaming kernel produces.
      const std::uint64_t k = rng.uniform_u64(0, 2 * config.entries + 3);
      const std::uint64_t stride = rng.bernoulli(0.5) ? 1 : sets;
      const std::uint64_t vpn =
          rng.bernoulli(0.25) ? top_vpn - k : k * stride;
      const std::uint64_t vaddr =
          vpn * config.page_bytes + rng.uniform_u64(0, config.page_bytes - 1);
      const int repeats = rng.bernoulli(0.5) ? 1 : 4;
      for (int r = 0; r < repeats; ++r)
        ASSERT_EQ(tlb.access(vaddr), ref.access(vaddr))
            << where << " op " << op;
    } else if (pick < 0.999) {
      tlb.flush();
      ref.flush();
    } else {
      tlb.reset_stats();
      ref.reset_stats();
    }
  }
  expect_same_stats(tlb.stats(), ref.stats(), where);
}

TEST(LruReference, TlbFullyAssociativeAndFourWay) {
  TlbConfig fully;
  fully.entries = 32;
  fully.associativity = 32;
  run_tlb_stream(fully, 21);
  TlbConfig four_way;
  four_way.entries = 64;
  four_way.associativity = 4;
  run_tlb_stream(four_way, 22);
}

}  // namespace
}  // namespace mb::cache
