// Multi-level cache hierarchy.
//
// Models one core's view of the platform's cache levels: an access probes
// L1; on miss it proceeds to L2, and so on to memory. Fill policy is
// non-inclusive non-exclusive (NINE): a miss allocates in every level it
// traversed, evictions do not back-invalidate. Stats per level plus memory
// traffic are kept for the cost model.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <unordered_set>
#include <vector>

#include "arch/platform.h"
#include "cache/cache.h"

namespace mb::cache {

/// Outcome of one hierarchy access.
struct AccessResult {
  /// 0-based index of the level that hit; == levels() when served by memory.
  std::size_t hit_level = 0;
  std::uint32_t lines_touched = 1;
};

/// Aggregate view consumed by sim::CostModel.
struct HierarchyStats {
  std::vector<CacheStats> level;     ///< per cache level
  std::uint64_t memory_accesses = 0; ///< line fills from DRAM
  std::uint64_t memory_bytes = 0;    ///< fill + writeback traffic
  std::uint64_t prefetches = 0;      ///< lines pulled by the prefetcher
};

/// Sequential stream prefetcher configuration. Disabled by default: the
/// calibrated platform models bake average prefetch benefit into their
/// miss_overlap/MSHR parameters; enabling this gives the *mechanistic*
/// version for ablations ("what if the A9 had a Nehalem-class stream
/// prefetcher?").
struct PrefetcherConfig {
  bool enabled = false;
  /// Consecutive-line misses needed to confirm a stream.
  std::uint32_t train_threshold = 2;
  /// Lines fetched ahead once a stream is confirmed.
  std::uint32_t degree = 2;
  /// Concurrently tracked streams.
  std::uint32_t streams = 8;
};

class Hierarchy {
 public:
  /// Builds private copies of every level in `configs` (L1 first).
  explicit Hierarchy(std::span<const arch::CacheConfig> configs);

  /// Convenience: builds from a platform's cache list.
  explicit Hierarchy(const arch::Platform& platform);

  /// Installs (or disables) the stream prefetcher.
  void set_prefetcher(const PrefetcherConfig& config);
  const PrefetcherConfig& prefetcher() const { return prefetcher_; }

  /// Accesses `bytes` at the given address pair. Levels with
  /// `physically_indexed` use `paddr`; virtually-indexed levels use `vaddr`.
  /// The access must not straddle a page boundary (callers split there,
  /// since the physical mapping changes). Each L1 line it covers walks the
  /// levels once; the virtual address moves in step with the physical one
  /// (unsigned wrap covers a first line that starts below `paddr`). DRAM
  /// writebacks are counted lazily, in stats().
  AccessResult access(std::uint64_t vaddr, std::uint64_t paddr,
                      std::uint32_t bytes, bool write) {
    const std::uint64_t first = paddr >> line_shift_;
    const std::uint64_t last = (paddr + bytes - 1) >> line_shift_;
    AccessResult result;
    result.lines_touched = static_cast<std::uint32_t>(last - first + 1);
    for (std::uint64_t line = first; line <= last; ++line) {
      const std::uint64_t pa = line << line_shift_;
      const std::size_t lvl = access_line(vaddr + (pa - paddr), pa, write);
      if (lvl > result.hit_level) result.hit_level = lvl;
    }
    return result;
  }

  /// Convenience for identity-mapped traces (tests, analyzers).
  AccessResult access(std::uint64_t addr, std::uint32_t bytes, bool write) {
    return access(addr, addr, bytes, write);
  }

  std::size_t levels() const { return levels_.size(); }
  const Cache& level(std::size_t i) const { return levels_[i]; }

  HierarchyStats stats() const;
  void reset_stats();
  void flush();

 private:
  struct Stream {
    std::uint64_t next_line = 0;
    std::uint32_t confidence = 0;
    bool valid = false;
  };

  /// Walks one L1 line (physical `pa`, virtual `va`) down the levels:
  /// the per-line step of every access, one-line or straddling, and where
  /// the prefetcher watches demand traffic. Returns the level that hit
  /// (levels() = memory).
  std::size_t access_line(std::uint64_t va, std::uint64_t pa, bool write) {
    if (prefetcher_.enabled) continue_stream(pa);
    for (std::size_t lvl = 0; lvl < levels_.size(); ++lvl) {
      Cache& level = levels_[lvl];
      if (level.access_line(level.config().physically_indexed ? pa : va,
                            write))
        return lvl;
    }
    ++memory_accesses_;
    memory_bytes_ += llc_line_bytes_;
    if (prefetcher_.enabled) train_prefetcher(pa);
    return levels_.size();
  }
  /// Brings one line into every level without touching demand stats and
  /// remembers it as an outstanding prefetch (stream continuation).
  void prefetch_line(std::uint64_t paddr);
  void train_prefetcher(std::uint64_t paddr_line);
  /// A demand access reached `paddr_line`: if it is an outstanding
  /// prefetch, keep its stream ahead.
  void continue_stream(std::uint64_t paddr_line);

  std::vector<Cache> levels_;
  std::uint32_t line_shift_ = 0;      // L1's: accesses split into L1 lines
  std::uint32_t llc_line_bytes_ = 0;  // DRAM traffic per fill or writeback
  std::uint64_t memory_accesses_ = 0;
  std::uint64_t memory_bytes_ = 0;
  std::uint64_t prefetches_ = 0;
  PrefetcherConfig prefetcher_;
  std::vector<Stream> streams_;
  // Prefetched-but-not-yet-demanded lines (bounded FIFO window).
  std::unordered_set<std::uint64_t> outstanding_;
  std::deque<std::uint64_t> outstanding_fifo_;
};

}  // namespace mb::cache
