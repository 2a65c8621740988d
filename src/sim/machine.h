// Machine: one simulated core's execution environment.
//
// Binds a Platform descriptor to live state: a virtual address space backed
// by one of the OS page-allocation models, a private cache hierarchy, and a
// data TLB. Kernels drive their memory accesses through touch() and then
// convert their instruction mix into cycles, time and counters with
// end_measurement().
//
// touch() runs once per simulated load or store, so it keeps the last
// translations in a small direct-mapped memo in front of the address
// space's page table. The address space stays the authority: a memo miss
// asks it (an unmapped address still throws), and munmap() clears the memo
// before any page leaves, so no entry outlives its mapping.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string_view>

#include "arch/platform.h"
#include "cache/hierarchy.h"
#include "cache/tlb.h"
#include "counters/counters.h"
#include "os/address_space.h"
#include "sim/cost_model.h"
#include "sim/instr_mix.h"
#include "support/check.h"
#include "support/rng.h"

namespace mb::sim {

/// Which physical-page placement the OS model uses (paper Sec. V-A.1).
enum class PagePolicy {
  kConsecutive,  ///< contiguous frames (the x86-like assumption)
  kReuseBiased,  ///< random but stable within a run (observed ARM behaviour)
  kRandom,       ///< fully randomized every allocation
};

std::string_view page_policy_name(PagePolicy p);

/// Result of executing an instruction mix on the machine.
struct SimResult {
  CostBreakdown breakdown;
  double seconds = 0.0;
  counters::CounterSet counters;
  /// DRAM traffic of the measurement interval (fills + writebacks) —
  /// the denominator of roofline arithmetic intensity.
  std::uint64_t dram_bytes = 0;
};

class Machine {
 public:
  /// Creates a machine with ~4x the LLC size of physical frames available
  /// (enough for every workload in this project, small enough to keep the
  /// allocator models fast).
  Machine(arch::Platform platform, PagePolicy policy, support::Rng rng);

  const arch::Platform& platform() const { return platform_; }

  /// Maps / unmaps a buffer (whole pages).
  os::Region mmap(std::uint64_t bytes) { return space_.mmap(bytes); }
  void munmap(const os::Region& r) {
    clear_translations();
    space_.munmap(r);
  }

  /// Performs one data access of `bytes` at virtual `vaddr`: TLB lookup,
  /// translation, cache hierarchy walk. Splits at page boundaries.
  void touch(std::uint64_t vaddr, std::uint32_t bytes, bool write) {
    if (bytes == 0) support::fail("Machine::touch", "bytes must be positive");
    std::uint64_t va = vaddr;
    std::uint64_t remaining = bytes;
    while (remaining > 0) {
      const std::uint64_t in_page = page_mask_ + 1 - (va & page_mask_);
      const auto chunk = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(in_page, remaining));
      tlb_.access(va);
      hierarchy_.access(va, translate(va), chunk, write);
      va += chunk;
      remaining -= chunk;
    }
  }

  /// Starts a measurement interval: zeroes hierarchy/TLB statistics.
  void begin_measurement();

  /// Ends the interval: combines `mix` with the memory behaviour observed
  /// since begin_measurement() into cycles, seconds and PAPI-style counters.
  SimResult end_measurement(const InstrMix& mix,
                            std::uint32_t bandwidth_sharers = 1) const;

  /// Flushes caches and TLB (cold-start conditions).
  void flush_caches();

  /// Installs a hardware stream prefetcher (see cache::PrefetcherConfig;
  /// off by default — platform models bake average benefit into their
  /// latency-hiding parameters, this is for mechanistic ablations).
  void set_prefetcher(const cache::PrefetcherConfig& config) {
    hierarchy_.set_prefetcher(config);
  }

  const cache::Hierarchy& hierarchy() const { return hierarchy_; }
  const os::AddressSpace& address_space() const { return space_; }
  const CostModel& cost_model() const { return cost_model_; }

 private:
  /// One memoized translation: virtual page number -> physical page base.
  struct Translation {
    std::uint64_t vpn = 0;
    std::uint64_t frame = 0;
  };
  static constexpr std::size_t kTranslations = 64;

  /// Physical address of mapped `vaddr`, through the memo.
  std::uint64_t translate(std::uint64_t vaddr) {
    const std::uint64_t vpn = vaddr >> page_shift_;
    Translation& t = translations_[vpn & (kTranslations - 1)];
    if (t.vpn != vpn) t = {vpn, space_.translate(vaddr) & ~page_mask_};
    return t.frame | (vaddr & page_mask_);
  }
  /// Empties the memo. An empty slot s holds vpn s ^ 1, a page that maps to
  /// another slot, so no lookup can match it.
  void clear_translations();

  arch::Platform platform_;
  CostModel cost_model_;
  os::AddressSpace space_;
  cache::Hierarchy hierarchy_;
  cache::Tlb tlb_;
  std::uint32_t page_shift_ = 0;
  std::uint64_t page_mask_ = 0;
  std::array<Translation, kTranslations> translations_{};
};

/// Builds the page-allocator model named by `policy` over `frames` frames.
std::unique_ptr<os::PageAllocator> make_allocator(PagePolicy policy,
                                                  std::size_t frames,
                                                  support::Rng rng);

}  // namespace mb::sim
