#include "cache/cache.h"

#include <algorithm>
#include <bit>

#include "support/check.h"

namespace mb::cache {
namespace {

/// The set count of `config`, once its geometry is checked: before
/// anything divides by the line size or the ways.
std::uint64_t checked_sets(const arch::CacheConfig& config) {
  support::check(config.associativity > 0, "Cache",
                 "associativity must be positive");
  support::check(std::has_single_bit(config.line_bytes) &&
                     config.line_bytes >= 4,
                 "Cache",
                 "line size must be a power of two of at least 4 bytes (a "
                 "line's word keeps its valid and dirty bits below the line "
                 "address)");
  const std::uint64_t sets = config.sets();
  support::check(std::has_single_bit(sets), "Cache",
                 "set count must be a nonzero power of two");
  return sets;
}

}  // namespace

Cache::Cache(const arch::CacheConfig& config)
    : config_(config),
      set_mask_(checked_sets(config) - 1),
      ways_(config.associativity),
      line_shift_(static_cast<std::uint32_t>(
          std::countr_zero(static_cast<std::uint64_t>(config.line_bytes)))),
      lines_((set_mask_ + 1) * ways_, 0) {}

void Cache::fill_line(std::uint64_t addr) {
  const std::uint64_t key = key_of(addr);
  std::uint64_t* set = &lines_[set_base(key)];
  const std::uint32_t way = find(set, key);
  if (way < ways_) {
    promote(set, way, set[way]);
    return;
  }
  insert(set, key);
}

std::uint32_t Cache::access(std::uint64_t addr, std::uint32_t bytes,
                            bool write) {
  support::check(bytes > 0, "Cache::access", "bytes must be positive");
  const std::uint64_t first = addr >> line_shift_;
  const std::uint64_t last = (addr + bytes - 1) >> line_shift_;
  std::uint32_t misses = 0;
  for (std::uint64_t line = first; line <= last; ++line)
    if (!access_line(line << line_shift_, write)) ++misses;
  return misses;
}

void Cache::flush() { std::fill(lines_.begin(), lines_.end(), 0); }

}  // namespace mb::cache
