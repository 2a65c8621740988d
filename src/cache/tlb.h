// Translation lookaside buffer model.
//
// A small fully/set-associative cache of virtual page numbers. TLB misses
// charge a page-walk penalty in the cost model; with randomized physical
// page placement (Sec. V-A.1 of the paper) TLB behaviour stays a function of
// *virtual* pages, so it is modelled separately from the data caches.
//
// Replacement is exact LRU without moving entries: each entry carries the
// stamp of its last use (0 = invalid), a hit restamps it, and a miss
// replaces the entry with the smallest stamp in its set, which is an
// invalid one while any remains. A small direct-mapped vpn -> entry hint
// finds the entry of a recently used page without scanning the set; it is
// only a guess, checked against the entry before use.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "cache/cache.h"

namespace mb::cache {

struct TlbConfig {
  std::uint32_t entries = 32;
  std::uint32_t associativity = 32;  ///< == entries -> fully associative
  std::uint32_t page_bytes = 4096;
  std::uint32_t walk_penalty_cycles = 30;
};

class Tlb {
 public:
  explicit Tlb(const TlbConfig& config);

  /// Looks up the page of `vaddr`; true on hit. Misses install the entry.
  bool access(std::uint64_t vaddr) {
    ++stats_.accesses;
    const std::uint64_t vpn = vaddr >> page_shift_;
    std::uint32_t& hint = hint_[vpn & (kHints - 1)];
    if (vpn_[hint] == vpn && stamp_[hint] != 0) {
      stamp_[hint] = ++clock_;
      ++stats_.hits;
      return true;
    }
    return access_slow(vpn, hint);
  }

  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }
  void flush();

  const TlbConfig& config() const { return config_; }

 private:
  static constexpr std::uint32_t kHints = 64;

  /// Scans `vpn`'s set; on a miss replaces its least recently used entry.
  /// Points `hint` at the entry that now holds `vpn`.
  bool access_slow(std::uint64_t vpn, std::uint32_t& hint);

  TlbConfig config_;
  std::uint64_t set_mask_;
  std::uint32_t ways_;
  std::uint32_t page_shift_;
  std::vector<std::uint64_t> vpn_;    // ways_ entries per set
  std::vector<std::uint64_t> stamp_;  // last use; 0 = invalid
  std::uint64_t clock_ = 0;
  std::array<std::uint32_t, kHints> hint_{};  // entry index per vpn hash
  CacheStats stats_;
};

}  // namespace mb::cache
