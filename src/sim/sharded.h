// The DES engine: conservative-lookahead parallel discrete-event
// simulation (Chandy–Misra–Bryant style, barrier-synchronized windows).
//
// The network and MPI runtime schedule every continuation through this
// engine. Each schedule() names a *home* node: the topology node whose
// shard must execute the callback. Model code computes the home as "the
// node whose state the callback touches" (a link's receiving endpoint, a
// rank's host).
//
// The topology is partitioned into shards (one per leaf-switch subtree
// plus one for the root switch; see apps/cluster.cpp), each with its own
// EventQueue. Workers drain whole windows [T, T+L) in lockstep, where
//
//   L = min latency over links whose endpoints live in different shards.
//
// Why this is safe: every cross-shard interaction in the model traverses
// a cross-shard link, so a callback executing at time t < T+L can only
// schedule onto another shard at t' >= t + L >= T + L — never inside the
// current window. Shards therefore drain [T, T+L) with no inbound
// surprises, and cross-shard events ride per-(src,dst) outboxes that are
// merged at the next barrier in fixed shard order.
//
// The serial engine is one shard: unbounded lookahead, so a single window
// drains the whole run in (time, insertion) order on the calling thread.
// Runs that touch cross-shard state at arbitrary times (fault injection,
// the failure detector, the time-series sampler) use it.
//
// Determinism: each shard's queue sees schedules in an order that depends
// only on the simulation, never on thread timing — local schedules in
// event-execution order, merged cross-shard events in (src shard, append
// order) order. Tie-breaking seq numbers are assigned from that order, so
// results are byte-identical for any worker count, including 1. The
// engine is still *sharded* at jobs=1 (same windows, same merge order),
// which is what the CI identity gate compares against jobs=N.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/event_queue.h"
#include "support/executor.h"

namespace mb::sim {

/// Event counters, summed over shards.
struct EngineStats {
  std::uint64_t executed = 0;
  std::uint64_t scheduled = 0;
  std::size_t pending = 0;
  std::size_t max_pending = 0;
};

class ShardedEngine {
 public:
  using Callback = EventQueue::Callback;

  /// `jobs` bounds the worker count; the effective count is
  /// min(jobs, shard count), each worker owning shards round-robin.
  explicit ShardedEngine(std::uint32_t jobs);
  ~ShardedEngine();

  /// Supplies the partition once the topology exists: `node_to_shard[n]`
  /// is the shard owning topology node n, `lookahead_s` the minimum
  /// cross-shard link latency (+infinity when nshards == 1; the map may
  /// then be empty, since one shard owns every node). Must be called
  /// before the first schedule(); lookahead must be > 0.
  void configure(std::vector<std::uint32_t> node_to_shard,
                 std::uint32_t nshards, double lookahead_s);

  /// Current simulated time as seen by the calling context. Outside any
  /// event callback this is the global committed time; inside one it is
  /// the executing shard's local clock.
  double now() const;

  /// Schedules `cb` at absolute time `time_s` on `home`'s shard.
  /// `time_s` must be >= now(); cross-shard schedules must additionally
  /// respect the lookahead.
  void schedule(std::uint32_t home, double time_s, Callback cb);

  /// Runs the simulation to completion; returns the final simulated time
  /// (the max over shards).
  double run_all();

  EngineStats stats() const;

  std::uint32_t shards() const { return nshards_; }
  std::uint32_t workers() const;
  double lookahead() const { return lookahead_; }
  std::uint64_t windows() const { return windows_; }
  std::uint32_t shard_of(std::uint32_t node) const;

 private:
  struct Shard;
  struct Pending;

  void merge_inbox(std::uint32_t s);
  void worker_loop(std::size_t w);

  support::Executor executor_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::uint32_t> node_to_shard_;
  std::uint32_t nshards_ = 0;
  double lookahead_ = 0.0;

  // Window state: written by worker 0 between barriers, read by all.
  double window_end_ = 0.0;
  bool done_ = false;
  std::vector<double> local_min_;
  std::uint64_t windows_ = 0;
  double final_time_ = 0.0;

  // First exception thrown inside a shard drain; workers keep honoring
  // the barrier protocol after a failure so nobody deadlocks, and
  // run_all() rethrows once the pool has drained.
  bool failed_ = false;
  std::exception_ptr error_;
  std::mutex error_mutex_;

  struct Barrier;
  std::unique_ptr<Barrier> barrier_;

  /// The shard draining on this thread; null on the main thread outside
  /// run_all() (setup and teardown are single-threaded).
  static thread_local Shard* tls_current_;
};

}  // namespace mb::sim
