#include "cache/tlb.h"

#include <algorithm>
#include <bit>

#include "support/check.h"

namespace mb::cache {

Tlb::Tlb(const TlbConfig& config)
    : config_(config),
      set_mask_(0),
      ways_(config.associativity),
      page_shift_(static_cast<std::uint32_t>(
          std::countr_zero(static_cast<std::uint64_t>(config.page_bytes)))),
      vpn_(config.entries, 0),
      stamp_(config.entries, 0) {
  support::check(config.entries > 0 && config.associativity > 0, "Tlb",
                 "entries and associativity must be positive");
  support::check(config.entries % config.associativity == 0, "Tlb",
                 "entries must divide evenly into sets");
  const std::uint32_t sets = config.entries / config.associativity;
  support::check((sets & (sets - 1)) == 0, "Tlb",
                 "set count must be a power of two");
  support::check(config.page_bytes > 0 &&
                     (config.page_bytes & (config.page_bytes - 1)) == 0,
                 "Tlb", "page size must be a positive power of two");
  set_mask_ = sets - 1;
}

bool Tlb::access_slow(std::uint64_t vpn, std::uint32_t& hint) {
  const std::uint32_t base =
      static_cast<std::uint32_t>(vpn & set_mask_) * ways_;
  std::uint32_t lru = base;
  for (std::uint32_t e = base; e < base + ways_; ++e) {
    if (vpn_[e] == vpn && stamp_[e] != 0) {
      stamp_[e] = ++clock_;
      hint = e;
      ++stats_.hits;
      return true;
    }
    if (stamp_[e] < stamp_[lru]) lru = e;
  }
  ++stats_.misses;
  if (stamp_[lru] != 0) ++stats_.evictions;
  vpn_[lru] = vpn;
  stamp_[lru] = ++clock_;
  hint = lru;
  return false;
}

void Tlb::flush() { std::fill(stamp_.begin(), stamp_.end(), 0); }

}  // namespace mb::cache
