// The one matcher of lowered schedules: arrived-but-unreceived messages
// per (source, tag) key, FIFO per key. The runtime queues payload sizes,
// the verifier the sender's op index and the static cost walk arrival
// times.
//
// Open addressing replaced the std::map mailboxes that dominated the
// matching path at scale. Each probe entry is a 16-byte {key, head, tail}:
// the key and the ends of that key's FIFO, a singly linked list threaded
// through one node array {value, next} that every key shares. Freed nodes
// go on a free list, so a mailbox allocates nothing per key and, in steady
// state, nothing per message. A drained key keeps its entry until the
// table fills: matching is then a probe plus an unlink. grow() re-inserts
// only the keys that still hold messages (their lists move with them; the
// nodes stay put) and doubles the table only when those fill more than a
// quarter of it. Collective tags are unique per instance, so the table is
// bounded by live keys, not by every (source, tag) ever seen.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "support/check.h"
#include "support/rng.h"

namespace mb::mpi {

template <class T>
class Mailbox {
 public:
  void push(std::uint32_t src, std::int32_t tag, T value) {
    if ((used_ + 1) * 2 > table_.size()) grow();
    const std::uint64_t k = key(src, tag);
    Entry& e = table_[locate(k)];
    if (e.key == kEmpty) {
      e.key = k;
      ++used_;
    }
    const std::uint32_t n = take_node(std::move(value));
    if (e.head == kNil) {
      e.head = n;
    } else {
      nodes_[e.tail].next = n;
    }
    e.tail = n;
  }

  /// False when no message matches; otherwise pops the oldest.
  bool pop(std::uint32_t src, std::int32_t tag, T& value) {
    if (table_.empty()) return false;
    Entry& e = table_[locate(key(src, tag))];
    if (e.head == kNil) return false;  // free entries have no list either
    const std::uint32_t n = e.head;
    value = std::move(nodes_[n].value);
    e.head = nodes_[n].next;
    nodes_[n].next = free_;
    free_ = n;
    return true;
  }

  /// Every queued message as (source, tag, value), ordered by source,
  /// then signed tag, then arrival.
  std::vector<std::tuple<std::uint32_t, std::int32_t, T>> leftovers() const {
    std::vector<std::tuple<std::uint32_t, std::int32_t, T>> out;
    for (const Entry& e : table_) {
      for (std::uint32_t n = e.head; n != kNil; n = nodes_[n].next)
        out.emplace_back(static_cast<std::uint32_t>(e.key >> 32),
                         static_cast<std::int32_t>(e.key), nodes_[n].value);
    }
    std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return std::tie(std::get<0>(a), std::get<1>(a)) <
             std::tie(std::get<0>(b), std::get<1>(b));
    });
    return out;
  }

  /// Entries in the probe table.
  std::size_t capacity() const { return table_.size(); }

 private:
  /// (src=~0, tag=-1) is not a reachable key: ranks are dense indices.
  static constexpr std::uint64_t kEmpty = ~0ull;
  static constexpr std::uint32_t kNil = ~0u;  ///< end of a node list
  /// A probe-table entry; `tail` is meaningful only while `head` is not kNil.
  struct Entry {
    std::uint64_t key = kEmpty;
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };
  struct Node {
    T value;
    std::uint32_t next;
  };

  static std::uint64_t key(std::uint32_t src, std::int32_t tag) {
    return (static_cast<std::uint64_t>(src) << 32) |
           static_cast<std::uint32_t>(tag);
  }

  std::size_t locate(std::uint64_t k) const {
    const std::size_t mask = table_.size() - 1;
    std::uint64_t h = k;  // splitmix64 steps its argument; keep k intact
    std::size_t i = support::splitmix64(h) & mask;
    while (table_[i].key != kEmpty && table_[i].key != k) i = (i + 1) & mask;
    return i;
  }

  /// Stores `value` in a free node (or a new one) as a list tail.
  std::uint32_t take_node(T value) {
    if (free_ != kNil) {
      const std::uint32_t n = free_;
      free_ = nodes_[n].next;
      nodes_[n] = Node{std::move(value), kNil};
      return n;
    }
    support::check(nodes_.size() < kNil, "Mailbox::push",
                   "more than 2^32 - 1 queued messages");
    nodes_.push_back(Node{std::move(value), kNil});
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }

  void grow() {
    std::vector<Entry> old = std::move(table_);
    std::size_t live = 0;
    for (const Entry& e : old) live += e.head != kNil;
    const std::size_t n = live * 4 > old.size() ? old.size() * 2 : old.size();
    table_.assign(std::max<std::size_t>(n, 8), Entry{});
    used_ = live;
    for (const Entry& e : old)
      if (e.head != kNil) table_[locate(e.key)] = e;
  }

  std::vector<Entry> table_;  ///< probe array, key kEmpty = free
  std::vector<Node> nodes_;   ///< every key's list nodes, free ones too
  std::uint32_t free_ = kNil;  ///< head of the free-node list
  std::size_t used_ = 0;       ///< keys in table_, drained ones too
};

}  // namespace mb::mpi
