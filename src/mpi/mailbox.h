// The one matcher of lowered schedules: arrived-but-unreceived messages
// per (source, tag) key, FIFO per key. The runtime queues payload sizes,
// the verifier the sender's op index and the static cost walk arrival
// times.
//
// Open addressing replaced the std::map mailboxes that dominated the
// matching path at scale. Keys live in their own dense array, so a probe
// touches 8-byte entries, not the fat payload slots, and the table stays
// cache-resident at thousands of keys per rank. A drained key keeps its
// slot until the table fills: matching is then a probe plus a head-index
// bump, and the key's vector keeps its capacity for the next burst.
// grow() re-inserts only the keys that still hold messages and doubles
// the table only when those fill more than a quarter of it. Collective
// tags are unique per instance, so the table is bounded by live keys,
// not by every (source, tag) ever seen.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "support/rng.h"

namespace mb::mpi {

template <class T>
class Mailbox {
 public:
  void push(std::uint32_t src, std::int32_t tag, T value) {
    if ((used_ + 1) * 2 > keys_.size()) grow();
    const std::uint64_t k = key(src, tag);
    const std::size_t i = locate(k);
    if (keys_[i] == kEmpty) {
      keys_[i] = k;
      ++used_;
    }
    slots_[i].fifo.push_back(std::move(value));
  }

  /// False when no message matches; otherwise pops the oldest.
  bool pop(std::uint32_t src, std::int32_t tag, T& value) {
    if (keys_.empty()) return false;
    const std::size_t i = locate(key(src, tag));
    Slot& slot = slots_[i];
    if (keys_[i] == kEmpty || slot.head == slot.fifo.size()) return false;
    value = std::move(slot.fifo[slot.head++]);
    if (slot.head == slot.fifo.size()) {
      slot.fifo.clear();  // keeps capacity for the next burst
      slot.head = 0;
    }
    return true;
  }

  /// Every queued message as (source, tag, value), ordered by source,
  /// then signed tag, then arrival.
  std::vector<std::tuple<std::uint32_t, std::int32_t, T>> leftovers() const {
    std::vector<std::tuple<std::uint32_t, std::int32_t, T>> out;
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      for (std::size_t j = slots_[i].head; j < slots_[i].fifo.size(); ++j)
        out.emplace_back(static_cast<std::uint32_t>(keys_[i] >> 32),
                         static_cast<std::int32_t>(keys_[i]),
                         slots_[i].fifo[j]);
    }
    std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return std::tie(std::get<0>(a), std::get<1>(a)) <
             std::tie(std::get<0>(b), std::get<1>(b));
    });
    return out;
  }

  /// Slots in the probe table.
  std::size_t capacity() const { return keys_.size(); }

 private:
  /// (src=~0, tag=-1) is not a reachable key: ranks are dense indices.
  static constexpr std::uint64_t kEmpty = ~0ull;
  struct Slot {
    std::size_t head = 0;
    std::vector<T> fifo;
  };

  static std::uint64_t key(std::uint32_t src, std::int32_t tag) {
    return (static_cast<std::uint64_t>(src) << 32) |
           static_cast<std::uint32_t>(tag);
  }

  std::size_t locate(std::uint64_t k) const {
    const std::size_t mask = keys_.size() - 1;
    std::uint64_t h = k;  // splitmix64 steps its argument; keep k intact
    std::size_t i = support::splitmix64(h) & mask;
    while (keys_[i] != kEmpty && keys_[i] != k) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<Slot> old_slots = std::move(slots_);
    std::size_t live = 0;
    for (const Slot& slot : old_slots) live += slot.head < slot.fifo.size();
    const std::size_t n =
        live * 4 > old_keys.size() ? old_keys.size() * 2 : old_keys.size();
    keys_.assign(std::max<std::size_t>(n, 8), kEmpty);
    slots_.assign(keys_.size(), Slot{});
    used_ = live;
    for (std::size_t j = 0; j < old_keys.size(); ++j) {
      if (old_slots[j].head == old_slots[j].fifo.size()) continue;
      const std::size_t i = locate(old_keys[j]);
      keys_[i] = old_keys[j];
      slots_[i] = std::move(old_slots[j]);
    }
  }

  std::vector<std::uint64_t> keys_;  ///< probe array, kEmpty = free
  std::vector<Slot> slots_;          ///< payload, parallel to keys_
  std::size_t used_ = 0;             ///< keys in keys_, drained ones too
};

}  // namespace mb::mpi
