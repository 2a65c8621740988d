#include "sim/machine.h"

#include <algorithm>
#include <bit>

#include "support/check.h"

namespace mb::sim {

std::string_view page_policy_name(PagePolicy p) {
  switch (p) {
    case PagePolicy::kConsecutive: return "consecutive";
    case PagePolicy::kReuseBiased: return "reuse-biased";
    case PagePolicy::kRandom: return "random";
  }
  return "?";
}

std::unique_ptr<os::PageAllocator> make_allocator(PagePolicy policy,
                                                  std::size_t frames,
                                                  support::Rng rng) {
  switch (policy) {
    case PagePolicy::kConsecutive:
      return std::make_unique<os::ConsecutivePageAllocator>(frames);
    case PagePolicy::kReuseBiased:
      return std::make_unique<os::ReuseBiasedPageAllocator>(frames, rng);
    case PagePolicy::kRandom:
      return std::make_unique<os::RandomPageAllocator>(frames, rng);
  }
  support::fail("make_allocator", "unknown page policy");
}

namespace {

std::size_t frame_pool_size(const arch::Platform& p) {
  // Enough frames for any workload in this project (DRAM-sized pointer
  // chases included) while keeping the allocator models fast.
  const std::uint64_t llc = p.caches.back().size_bytes;
  const std::uint64_t bytes = std::max<std::uint64_t>(llc * 4, 40u << 20);
  return static_cast<std::size_t>(bytes / p.mem.page_bytes);
}

cache::TlbConfig tlb_config(const arch::Platform& p) {
  cache::TlbConfig t;
  t.entries = p.core.tlb_entries;
  t.associativity = p.core.tlb_associativity;
  t.page_bytes = p.mem.page_bytes;
  t.walk_penalty_cycles = p.core.tlb_walk_cycles;
  return t;
}

}  // namespace

Machine::Machine(arch::Platform platform, PagePolicy policy, support::Rng rng)
    : platform_(std::move(platform)),
      cost_model_(platform_),
      space_(make_allocator(policy, frame_pool_size(platform_), rng),
             platform_.mem.page_bytes),
      hierarchy_(platform_),
      tlb_(tlb_config(platform_)),
      page_shift_(static_cast<std::uint32_t>(
          std::countr_zero(platform_.mem.page_bytes))),
      page_mask_(platform_.mem.page_bytes - 1) {
  clear_translations();
}

void Machine::clear_translations() {
  for (std::size_t s = 0; s < kTranslations; ++s) translations_[s] = {s ^ 1, 0};
}

void Machine::begin_measurement() {
  hierarchy_.reset_stats();
  tlb_.reset_stats();
}

SimResult Machine::end_measurement(const InstrMix& mix,
                                   std::uint32_t bandwidth_sharers) const {
  const cache::HierarchyStats hs = hierarchy_.stats();

  MemoryBehaviour mem;
  mem.level = hs.level;
  mem.memory_accesses = hs.memory_accesses;
  mem.memory_bytes = hs.memory_bytes;
  mem.tlb_misses = tlb_.stats().misses;

  SimResult result;
  result.breakdown = cost_model_.cycles(mix, mem, bandwidth_sharers);
  result.seconds = platform_.seconds(result.breakdown.total);
  result.dram_bytes = hs.memory_bytes;

  using counters::Counter;
  auto& c = result.counters;
  c.set(Counter::kTotCyc,
        static_cast<std::uint64_t>(result.breakdown.total));
  c.set(Counter::kTotIns, mix.total_ops());
  if (!hs.level.empty()) {
    c.set(Counter::kL1Dca, hs.level[0].accesses);
    c.set(Counter::kL1Dcm, hs.level[0].misses);
  }
  if (hs.level.size() > 1) {
    c.set(Counter::kL2Dca, hs.level[1].accesses);
    c.set(Counter::kL2Dcm, hs.level[1].misses);
  }
  if (hs.level.size() > 2) c.set(Counter::kL3Dcm, hs.level[2].misses);
  c.set(Counter::kTlbDm, tlb_.stats().misses);
  const std::uint64_t mispredicts =
      mix.mispredicted_branches
          ? *mix.mispredicted_branches
          : static_cast<std::uint64_t>(
                static_cast<double>(mix.count(arch::OpClass::kBranch)) *
                platform_.core.branch_mispredict_rate);
  c.set(Counter::kBrMsp, mispredicts);
  c.set(Counter::kFpOps, mix.flops);
  c.set(Counter::kMemWcy,
        static_cast<std::uint64_t>(result.breakdown.memory_cycles));
  return result;
}

void Machine::flush_caches() {
  hierarchy_.flush();
  tlb_.flush();
}

}  // namespace mb::sim
