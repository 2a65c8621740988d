// The one matcher of lowered schedules: arrived-but-unreceived messages
// per (source, tag) key, FIFO per key. The runtime queues payload sizes,
// the verifier the sender's op index and the static cost walk arrival
// times: 8 bytes each.
//
// The table holds one 16-byte entry {key, payload} per key that has
// queued messages, and nothing else. A key's only message is stored in
// its entry. A key holding two or more messages stores the {head, tail}
// of a singly linked list instead, threaded through one node array
// {value, next} that every key shares; bit 63 of the key says which, so
// sources must be below 2^31 - 1 (all ones is the free entry). When a
// list drops back to one message, that message moves back into the
// entry, and popping a key's last message removes the key. Freed nodes go
// on a free list, so in steady state a mailbox allocates nothing per
// message. The FIFOs are lists, not runs of probe slots, because the
// verifier's fixpoint and the static walk push a sender's whole stream
// before its receiver pops: popping the oldest of a run of n same-key
// slots would shift the run, and draining it would cost O(n^2).
//
// Probing is linear with backward-shift deletion, so a removed key
// leaves no tombstone and the table doubles only when live keys pass
// half of it. In an incast of P - 1 senders every key holds one message:
// 1,023 keys fit a 2,048-entry table and use no list node.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/check.h"
#include "support/rng.h"

namespace mb::mpi {

template <class T>
class Mailbox {
  static_assert(sizeof(T) <= 8 && std::is_trivially_copyable_v<T>,
                "a queued message is stored in an 8-byte entry payload");

 public:
  void push(std::uint32_t src, std::int32_t tag, T value) {
    if (src >= kSourceLimit)
      support::fail("Mailbox::push", "source rank " + std::to_string(src) +
                                         " is not below 2^31 - 1");
    if (table_.empty()) table_.assign(8, Entry{});
    const std::uint64_t k = key(src, tag);
    std::size_t i = locate(k);
    if (table_[i].key == kEmpty) {
      if ((live_ + 1) * 2 > table_.size()) {
        grow();
        i = locate(k);
      }
      table_[i] = Entry{k, store(value)};
      ++live_;
      return;
    }
    Entry& e = table_[i];
    if (!(e.key & kList)) {  // a second message: both go to a list
      const std::uint32_t head = take_node(load(e.payload));
      const std::uint32_t tail = take_node(value);
      nodes_[head].next = tail;
      e.key |= kList;
      e.payload = pack(head, tail);
      return;
    }
    const std::uint32_t tail = take_node(value);
    nodes_[tail_of(e.payload)].next = tail;
    e.payload = pack(head_of(e.payload), tail);
  }

  /// False when no message matches; otherwise pops the oldest.
  bool pop(std::uint32_t src, std::int32_t tag, T& value) {
    if (table_.empty()) return false;  // a source push() refuses matches no key
    const std::size_t i = locate(key(src, tag));
    Entry& e = table_[i];
    if (e.key == kEmpty) return false;
    if (!(e.key & kList)) {
      value = load(e.payload);
      erase(i);
      return true;
    }
    const std::uint32_t head = head_of(e.payload);
    const std::uint32_t next = nodes_[head].next;
    value = nodes_[head].value;
    free_node(head);
    if (next == tail_of(e.payload)) {  // one message left: back inline
      e.key &= ~kList;
      e.payload = store(nodes_[next].value);
      free_node(next);
    } else {
      e.payload = pack(next, tail_of(e.payload));
    }
    return true;
  }

  /// Every queued message as (source, tag, value), ordered by source,
  /// then signed tag, then arrival.
  std::vector<std::tuple<std::uint32_t, std::int32_t, T>> leftovers() const {
    std::vector<std::tuple<std::uint32_t, std::int32_t, T>> out;
    for (const Entry& e : table_) {
      if (e.key == kEmpty) continue;
      const auto src = static_cast<std::uint32_t>((e.key & ~kList) >> 32);
      const auto tag = static_cast<std::int32_t>(e.key);
      if (!(e.key & kList)) {
        out.emplace_back(src, tag, load(e.payload));
        continue;
      }
      for (std::uint32_t n = head_of(e.payload); n != kNil; n = nodes_[n].next)
        out.emplace_back(src, tag, nodes_[n].value);
    }
    std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return std::tie(std::get<0>(a), std::get<1>(a)) <
             std::tie(std::get<0>(b), std::get<1>(b));
    });
    return out;
  }

  /// Entries in the probe table.
  std::size_t capacity() const { return table_.size(); }
  /// List nodes allocated so far, free ones included.
  std::size_t nodes() const { return nodes_.size(); }
  /// The entry where the probe for (src, tag) starts in a table of
  /// `capacity` entries, a power of two.
  static std::size_t home(std::uint32_t src, std::int32_t tag,
                          std::size_t capacity) {
    return slot(key(src, tag), capacity);
  }

 private:
  /// Sources are below this: bit 63 of a key is the list bit.
  static constexpr std::uint32_t kSourceLimit = (1u << 31) - 1;
  static constexpr std::uint64_t kList = 1ull << 63;
  /// A list key of source 2^31 - 1, which push() refuses.
  static constexpr std::uint64_t kEmpty = ~0ull;
  static constexpr std::uint32_t kNil = ~0u;  ///< end of a node list
  /// `payload` is the value, or head | tail << 32 when `key` has kList.
  struct Entry {
    std::uint64_t key = kEmpty;
    std::uint64_t payload = 0;
  };
  struct Node {
    T value;
    std::uint32_t next;
  };

  static std::uint64_t key(std::uint32_t src, std::int32_t tag) {
    return (static_cast<std::uint64_t>(src) << 32) |
           static_cast<std::uint32_t>(tag);
  }
  static std::uint64_t store(T value) {
    std::uint64_t payload = 0;
    std::memcpy(&payload, &value, sizeof(T));
    return payload;
  }
  static T load(std::uint64_t payload) {
    T value{};
    std::memcpy(&value, &payload, sizeof(T));
    return value;
  }
  static std::uint64_t pack(std::uint32_t head, std::uint32_t tail) {
    return head | static_cast<std::uint64_t>(tail) << 32;
  }
  static std::uint32_t head_of(std::uint64_t payload) {
    return static_cast<std::uint32_t>(payload);
  }
  static std::uint32_t tail_of(std::uint64_t payload) {
    return static_cast<std::uint32_t>(payload >> 32);
  }

  static std::size_t slot(std::uint64_t k, std::size_t capacity) {
    std::uint64_t h = k;  // splitmix64 steps its argument; keep k intact
    return support::splitmix64(h) & (capacity - 1);
  }

  /// The entry holding `k` (list bit clear), or the free entry that ends
  /// its probe run.
  std::size_t locate(std::uint64_t k) const {
    const std::size_t mask = table_.size() - 1;
    std::size_t i = slot(k, table_.size());
    while (table_[i].key != kEmpty && (table_[i].key & ~kList) != k)
      i = (i + 1) & mask;
    return i;
  }

  /// Frees entry `i` and shifts back every later entry of its probe run
  /// that may sit there, so each key stays reachable from its home.
  void erase(std::size_t i) {
    const std::size_t mask = table_.size() - 1;
    for (std::size_t j = (i + 1) & mask; table_[j].key != kEmpty;
         j = (j + 1) & mask) {
      const std::size_t h = slot(table_[j].key & ~kList, table_.size());
      if (((j - h) & mask) >= ((j - i) & mask)) {
        table_[i] = table_[j];
        i = j;
      }
    }
    table_[i] = Entry{};
    --live_;
  }

  /// Stores `value` in a free node (or a new one) as a list tail.
  std::uint32_t take_node(T value) {
    if (free_ != kNil) {
      const std::uint32_t n = free_;
      free_ = nodes_[n].next;
      nodes_[n] = Node{value, kNil};
      return n;
    }
    support::check(nodes_.size() < kNil, "Mailbox::push",
                   "more than 2^32 - 1 queued messages");
    nodes_.push_back(Node{value, kNil});
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }

  void free_node(std::uint32_t n) {
    nodes_[n].next = free_;
    free_ = n;
  }

  void grow() {
    std::vector<Entry> old = std::move(table_);
    table_.assign(old.size() * 2, Entry{});
    for (const Entry& e : old)
      if (e.key != kEmpty) table_[locate(e.key & ~kList)] = e;
  }

  std::vector<Entry> table_;   ///< probe array, key kEmpty = free
  std::vector<Node> nodes_;    ///< lists of 2+ messages, free nodes too
  std::uint32_t free_ = kNil;  ///< head of the free-node list
  std::size_t live_ = 0;       ///< keys in table_
};

}  // namespace mb::mpi
