#include "cache/hierarchy.h"

#include "support/check.h"

namespace mb::cache {

Hierarchy::Hierarchy(std::span<const arch::CacheConfig> configs) {
  support::check(!configs.empty(), "Hierarchy", "need at least one level");
  levels_.reserve(configs.size());
  for (const auto& c : configs) levels_.emplace_back(c);
  line_shift_ = levels_.front().line_shift();
  llc_line_bytes_ = levels_.back().config().line_bytes;
}

Hierarchy::Hierarchy(const arch::Platform& platform)
    : Hierarchy(std::span<const arch::CacheConfig>(platform.caches)) {}

void Hierarchy::set_prefetcher(const PrefetcherConfig& config) {
  support::check(config.train_threshold >= 1, "Hierarchy::set_prefetcher",
                 "train threshold must be >= 1");
  support::check(config.degree >= 1 && config.streams >= 1,
                 "Hierarchy::set_prefetcher",
                 "degree and streams must be >= 1");
  prefetcher_ = config;
  streams_.assign(config.streams, Stream{});
}

void Hierarchy::prefetch_line(std::uint64_t paddr) {
  // Already resident anywhere: leave it be (no stat effects).
  for (const auto& level : levels_) {
    if (level.contains(paddr)) return;
  }
  // Fill every level without demand bookkeeping; the fetched line still
  // pays DRAM traffic.
  for (auto& level : levels_) level.fill_line(paddr);
  ++prefetches_;
  memory_bytes_ += llc_line_bytes_;

  // Track it so a demand hit on this line keeps the stream running.
  if (outstanding_.insert(paddr).second) {
    outstanding_fifo_.push_back(paddr);
    const std::size_t cap =
        static_cast<std::size_t>(prefetcher_.streams) *
        prefetcher_.degree * 8;
    while (outstanding_fifo_.size() > cap) {
      outstanding_.erase(outstanding_fifo_.front());
      outstanding_fifo_.pop_front();
    }
  }
}

void Hierarchy::continue_stream(std::uint64_t paddr_line) {
  const auto it = outstanding_.find(paddr_line);
  if (it == outstanding_.end()) return;
  outstanding_.erase(it);
  const std::uint32_t line = levels_.front().config().line_bytes;
  prefetch_line(paddr_line +
                static_cast<std::uint64_t>(prefetcher_.degree) * line);
}

void Hierarchy::train_prefetcher(std::uint64_t paddr_line) {
  const std::uint32_t line = levels_.front().config().line_bytes;
  // Match an existing stream expecting this line.
  for (auto& s : streams_) {
    if (!s.valid) continue;
    if (paddr_line == s.next_line) {
      ++s.confidence;
      s.next_line = paddr_line + line;
      if (s.confidence >= prefetcher_.train_threshold) {
        for (std::uint32_t d = 1; d <= prefetcher_.degree; ++d)
          prefetch_line(paddr_line + d * line);
      }
      return;
    }
  }
  // Allocate a new stream (round robin over invalid, else overwrite 0).
  for (auto& s : streams_) {
    if (!s.valid) {
      s.valid = true;
      s.confidence = 1;
      s.next_line = paddr_line + line;
      return;
    }
  }
  streams_[0] = Stream{paddr_line + line, 1, true};
}

HierarchyStats Hierarchy::stats() const {
  HierarchyStats s;
  s.level.reserve(levels_.size());
  for (const auto& c : levels_) s.level.push_back(c.stats());
  s.memory_accesses = memory_accesses_;
  s.memory_bytes =
      memory_bytes_ + levels_.back().stats().writebacks * llc_line_bytes_;
  s.prefetches = prefetches_;
  return s;
}

void Hierarchy::reset_stats() {
  for (auto& c : levels_) c.reset_stats();
  memory_accesses_ = 0;
  memory_bytes_ = 0;
  prefetches_ = 0;
}

void Hierarchy::flush() {
  for (auto& c : levels_) c.flush();
}

}  // namespace mb::cache
