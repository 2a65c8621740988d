// Discrete-event simulation engine.
//
// Drives the cluster-level experiments (network, MPI runtime, applications).
// Events are callbacks ordered by (time, insertion sequence); ties resolve
// in insertion order so simulations are fully deterministic.
//
// The queue is a ladder queue rather than a binary heap over the full
// event set (see DESIGN.md §10 for the before/after profile):
//
//   current heap  |  rung stack (bucketed windows)  |  overflow (far future)
//   ordered       |  unordered per bucket           |  unordered
//
// Events land in a bucket of the deepest rung that covers their timestamp
// by linear time-hash; only the bucket currently being drained is kept
// heap-ordered. When a drained bucket is oversized (a dense cluster, e.g.
// microsecond message traffic between hundred-millisecond computes) it is
// re-bucketed into a finer rung spanning just that cluster instead of
// being heapified — the ladder descent that keeps the heap small under
// heavily skewed timestamp distributions. When every rung is exhausted
// the overflow is re-bucketed around the new minimum — unless the whole
// pool fits a cache-resident heap, in which case the queue degrades
// gracefully to the classic single-heap engine (and spills back into
// the ladder if the heap grows large again).
//
// Tie-breaking is exact: bucket membership is a monotone function of the
// timestamp, equal timestamps always take identical paths through the
// structure, and within a bucket the (time, seq) heap order decides, so
// dequeue order is identical to the old priority_queue engine (asserted
// by tests/sim/event_queue_property_test.cpp).
//
// An event is a trivially copyable 24-byte key {time, seq, slot}: heaps,
// buckets and rungs copy keys, never callbacks. Each callback (a 48-byte
// support::SmallFn holding up to 32 bytes of captures inline) sits in a
// per-queue slot array from schedule_at() until step() moves it out, frees
// the slot and runs it. Freed slots are reused, so the array is bounded by
// the pending high-water mark and scheduling touches no allocator in
// steady state. Every hot-path lambda (frame arrival, retransmit, rank
// advance, delivery) is pinned inside the 32 bytes by a static_assert at
// its call site.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "support/small_fn.h"

namespace mb::sim {

class EventQueue {
 public:
  /// 32 bytes of captures: `this` plus a pointer and four 32-bit ids.
  using Callback = support::SmallFn<32>;

  /// Schedules `cb` at absolute simulated time `time_s` (>= now()).
  void schedule_at(double time_s, Callback cb);

  /// Schedules `cb` `delay_s` seconds from now (delay >= 0).
  void schedule_in(double delay_s, Callback cb);

  /// Runs until no events remain. Returns the final simulated time.
  double run();

  /// Runs until the queue is empty or `until_s` is reached.
  double run_until(double until_s);

  /// Executes every event strictly before `horizon_s`, leaving now() at
  /// the last executed event (events at exactly `horizon_s` stay queued).
  /// The sharded engine's window drain: the strict bound keeps horizon
  /// events in the next window, after cross-shard merges.
  void run_before(double horizon_s);

  /// Executes the single earliest event; false when the queue is empty.
  bool step();

  /// Timestamp of the earliest pending event; +infinity when empty.
  /// (May reorganize internal storage, hence non-const.)
  double next_time();

  double now() const { return now_; }
  bool empty() const { return size_ == 0; }
  std::size_t pending() const { return size_; }
  std::uint64_t executed() const { return executed_; }
  std::uint64_t scheduled() const { return next_seq_; }
  /// Ladder-queue high-water mark: the most events ever pending at once.
  std::size_t max_pending() const { return max_pending_; }

 private:
  static_assert(sizeof(Callback) == 48,
                "one slot per pending event: 482k at bigdft/1024");
  /// Ordering key of a pending event; `slot` indexes slots_.
  struct Event {
    double time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(Event) == 24 && std::is_trivially_copyable_v<Event>);
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  /// One bucketed window. Buckets at or before `cur` have been drained
  /// (or expanded into a deeper rung); events hashing there go to cur_.
  struct Rung {
    double base = 0.0;
    double inv_width = 0.0;
    std::int64_t cur = -1;
    std::int64_t nb = 0;
    std::size_t count = 0;  ///< events in buckets after `cur`
    std::vector<std::vector<Event>> buckets;
  };

  void push(Event ev);
  /// Parks `cb` in a free slot (or a new one) and returns its index.
  std::uint32_t park(Callback cb);
  /// Moves events forward until cur_ holds the global minimum.
  /// False when the queue is empty.
  bool ensure_current();
  /// Builds the coarsest rung from the overflow pool (ladder base).
  void build_base_rung();
  /// Re-buckets an oversized drained bucket into a finer rung; false when
  /// the cluster is too tight to split (ties, denormal widths).
  bool split_into_rung(std::vector<Event>& bucket);
  Event pop_min();

  std::vector<Event> cur_;     ///< bottom heap, (time, seq) ordered
  std::vector<Rung> rungs_;    ///< [0] coarsest .. back() deepest
  std::vector<Event> overflow_;
  std::vector<Callback> slots_;           ///< callbacks of pending events
  std::vector<std::uint32_t> free_slots_;  ///< empty entries of slots_

  double now_ = 0.0;
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t max_pending_ = 0;
};

}  // namespace mb::sim
