// Trace-driven set-associative cache model.
//
// This is the heart of the paper's Section V reproduction: conflict misses
// caused by the OS's physical page placement (Sec. V-A.1) and the cache
// traffic growth under aggressive loop unrolling (Fig. 7) are both direct
// functions of how addresses map into a set-associative structure. The model
// is a classic write-back/write-allocate LRU cache operating on (physical)
// byte addresses.
//
// Every simulated access probes L1, so the line state is one 8-byte word:
// the line address (byte address >> line shift) shifted left by two, with
// bit 0 = valid and bit 1 = dirty. An invalid line is the word 0, which no
// probe key matches because every key has its valid bit set. The ways of a
// set are kept MRU-first: a hit moves its word to the front, a miss evicts
// the last word. That needs two spare bits above the line address, so lines
// must be at least 4 bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/platform.h"

namespace mb::cache {

/// Statistics accumulated by one cache level.
struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;  ///< dirty evictions

  double miss_ratio() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(misses) /
                               static_cast<double>(accesses);
  }
};

/// One level of set-associative cache with true-LRU replacement,
/// write-back + write-allocate policy.
class Cache {
 public:
  explicit Cache(const arch::CacheConfig& config);

  /// Accesses `bytes` bytes starting at `addr` (may straddle lines; each
  /// touched line is accessed once). Returns the number of line misses.
  std::uint32_t access(std::uint64_t addr, std::uint32_t bytes, bool write);

  /// Single-line probe: true on hit. Updates LRU and dirty state.
  bool access_line(std::uint64_t addr, bool write) {
    ++stats_.accesses;
    const std::uint64_t key = key_of(addr);
    std::uint64_t* set = &lines_[set_base(key)];
    const std::uint32_t way = find(set, key);
    if (way < ways_) {
      ++stats_.hits;
      promote(set, way, set[way] | (write ? kDirty : 0));
      return true;
    }
    ++stats_.misses;
    insert(set, key | (write ? kDirty : 0));
    return false;
  }

  /// Inserts a line without demand-access bookkeeping (prefetch fill):
  /// no access/hit/miss counts; evictions and writebacks still count
  /// (the displaced line really leaves). Already resident: only moves it
  /// to MRU.
  void fill_line(std::uint64_t addr);

  /// Probes without updating state (for tests and analyzers).
  bool contains(std::uint64_t addr) const {
    const std::uint64_t key = key_of(addr);
    return find(&lines_[set_base(key)], key) < ways_;
  }

  /// Invalidates all lines and clears dirty bits; stats are preserved.
  void flush();

  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }

  const arch::CacheConfig& config() const { return config_; }
  std::uint32_t line_shift() const { return line_shift_; }
  std::uint64_t set_index(std::uint64_t addr) const {
    return (addr >> line_shift_) & set_mask_;
  }

 private:
  static constexpr std::uint64_t kValid = 1;
  static constexpr std::uint64_t kDirty = 2;

  /// The word a resident, clean copy of `addr`'s line holds.
  std::uint64_t key_of(std::uint64_t addr) const {
    return ((addr >> line_shift_) << 2) | kValid;
  }
  /// Index in lines_ of the first way of `key`'s set.
  std::size_t set_base(std::uint64_t key) const {
    return static_cast<std::size_t>((key >> 2) & set_mask_) * ways_;
  }
  /// Way holding `key` (dirty bit ignored), or ways_ when absent.
  std::uint32_t find(const std::uint64_t* set, std::uint64_t key) const {
    for (std::uint32_t w = 0; w < ways_; ++w)
      if ((set[w] & ~kDirty) == key) return w;
    return ways_;
  }
  /// Moves way `way` to the front as `word`.
  static void promote(std::uint64_t* set, std::uint32_t way,
                      std::uint64_t word) {
    for (std::uint32_t k = way; k > 0; --k) set[k] = set[k - 1];
    set[0] = word;
  }
  /// Evicts the LRU way and puts `word` at the front.
  void insert(std::uint64_t* set, std::uint64_t word) {
    const std::uint64_t victim = set[ways_ - 1];
    if (victim & kValid) {
      ++stats_.evictions;
      if (victim & kDirty) ++stats_.writebacks;
    }
    promote(set, ways_ - 1, word);
  }

  arch::CacheConfig config_;
  std::uint64_t set_mask_;
  std::uint32_t ways_;
  std::uint32_t line_shift_;
  // ways_ words per set, MRU first.
  std::vector<std::uint64_t> lines_;
  CacheStats stats_;
};

}  // namespace mb::cache
