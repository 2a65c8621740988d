#include "sim/sharded.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>
#include <utility>

#include "support/check.h"

namespace mb::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

struct ShardedEngine::Pending {
  double time;
  Callback cb;
};

struct ShardedEngine::Shard {
  std::uint32_t id = 0;
  EventQueue queue;
  /// Cross-shard events produced by this shard, indexed by destination.
  /// Written only by the owning worker during a drain, read only by the
  /// destination's worker during the next merge — phases are barrier
  /// separated, so no slot is ever touched concurrently.
  std::vector<std::vector<Pending>> outbox;
  static_assert(sizeof(Pending) == 64, "a cross-shard event is 64 bytes");
};

thread_local ShardedEngine::Shard* ShardedEngine::tls_current_ = nullptr;

/// Sense-free generation barrier. Windows are microseconds of simulated
/// time, so workers meet here millions of times per run; spin-yield beats
/// a futex-based barrier at that granularity.
struct ShardedEngine::Barrier {
  explicit Barrier(std::size_t n) : n_(n) {}
  void arrive_and_wait() {
    const std::size_t gen = gen_.load(std::memory_order_acquire);
    if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      count_.store(0, std::memory_order_relaxed);
      gen_.store(gen + 1, std::memory_order_release);
    } else {
      while (gen_.load(std::memory_order_acquire) == gen) {
        std::this_thread::yield();
      }
    }
  }
  const std::size_t n_;
  std::atomic<std::size_t> count_{0};
  std::atomic<std::size_t> gen_{0};
};

ShardedEngine::ShardedEngine(std::uint32_t jobs) : executor_(jobs) {}

ShardedEngine::~ShardedEngine() = default;

void ShardedEngine::configure(std::vector<std::uint32_t> node_to_shard,
                              std::uint32_t nshards, double lookahead_s) {
  support::check(nshards_ == 0, "ShardedEngine::configure",
                 "engine already configured");
  support::check(nshards >= 1, "ShardedEngine::configure",
                 "need at least one shard");
  support::check(lookahead_s > 0.0, "ShardedEngine::configure",
                 "lookahead must be positive");
  for (std::uint32_t s : node_to_shard) {
    support::check(s < nshards, "ShardedEngine::configure",
                   "node mapped to nonexistent shard");
  }
  node_to_shard_ = std::move(node_to_shard);
  nshards_ = nshards;
  lookahead_ = lookahead_s;
  shards_.reserve(nshards);
  for (std::uint32_t s = 0; s < nshards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->id = s;
    shard->outbox.resize(nshards);
    shards_.push_back(std::move(shard));
  }
  local_min_.assign(workers(), kInf);
}

std::uint32_t ShardedEngine::workers() const {
  if (nshards_ == 0) return 1;
  return std::min(executor_.jobs(), nshards_);
}

std::uint32_t ShardedEngine::shard_of(std::uint32_t node) const {
  if (nshards_ == 1) return 0;
  support::check(node < node_to_shard_.size(), "ShardedEngine::shard_of",
                 "node outside the configured topology");
  return node_to_shard_[node];
}

double ShardedEngine::now() const {
  const Shard* cur = tls_current_;
  if (cur != nullptr) return cur->queue.now();
  return final_time_;
}

void ShardedEngine::schedule(std::uint32_t home, double time_s, Callback cb) {
  const std::uint32_t dst = shard_of(home);
  Shard* cur = tls_current_;
  if (cur == nullptr) {
    // Single-threaded setup context: route straight into the home queue.
    shards_[dst]->queue.schedule_at(time_s, std::move(cb));
    return;
  }
  if (cur->id == dst) {
    cur->queue.schedule_at(time_s, std::move(cb));
    return;
  }
  // The conservative guarantee: a cross-shard interaction always rides a
  // cross-shard link, whose latency is >= lookahead, so it can never land
  // inside the window currently draining.
  support::check(time_s >= window_end_, "ShardedEngine::schedule",
                 "cross-shard event inside the lookahead window");
  cur->outbox[dst].push_back(Pending{time_s, std::move(cb)});
}

void ShardedEngine::merge_inbox(std::uint32_t s) {
  // Fixed src order + append order within each outbox: the seq numbers
  // handed out by schedule_at depend only on the simulation.
  EventQueue& queue = shards_[s]->queue;
  for (std::uint32_t src = 0; src < nshards_; ++src) {
    std::vector<Pending>& box = shards_[src]->outbox[s];
    for (Pending& p : box) queue.schedule_at(p.time, std::move(p.cb));
    box.clear();
  }
}

void ShardedEngine::worker_loop(std::size_t w) {
  const std::uint32_t nworkers = workers();
  for (;;) {
    // Phase A: merge inboxes for owned shards, report the local minimum.
    double lmin = kInf;
    for (std::uint32_t s = static_cast<std::uint32_t>(w); s < nshards_;
         s += nworkers) {
      merge_inbox(s);
      lmin = std::min(lmin, shards_[s]->queue.next_time());
    }
    local_min_[w] = lmin;
    barrier_->arrive_and_wait();

    // Phase B: worker 0 publishes the window (or the stop flag).
    if (w == 0) {
      double t = kInf;
      for (double m : local_min_) t = std::min(t, m);
      if (failed_ || t == kInf) {
        done_ = true;
      } else {
        window_end_ = t + lookahead_;
        ++windows_;
      }
    }
    barrier_->arrive_and_wait();
    if (done_) return;

    // Phase C: drain owned shards up to (strictly before) the horizon.
    for (std::uint32_t s = static_cast<std::uint32_t>(w); s < nshards_;
         s += nworkers) {
      Shard* shard = shards_[s].get();
      tls_current_ = shard;
      try {
        shard->queue.run_before(window_end_);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex_);
        if (!error_) error_ = std::current_exception();
        failed_ = true;
      }
      tls_current_ = nullptr;
    }
    barrier_->arrive_and_wait();
  }
}

double ShardedEngine::run_all() {
  support::check(nshards_ > 0, "ShardedEngine::run_all",
                 "configure() must be called before run_all()");
  const std::uint32_t nworkers = workers();
  done_ = false;
  failed_ = false;
  error_ = nullptr;
  local_min_.assign(nworkers, kInf);
  barrier_ = std::make_unique<Barrier>(nworkers);
  executor_.run_pinned(nworkers,
                       [this](std::size_t w) { worker_loop(w); });
  if (error_) std::rethrow_exception(error_);
  double final_time = 0.0;
  for (const auto& shard : shards_) {
    final_time = std::max(final_time, shard->queue.now());
  }
  final_time_ = final_time;
  return final_time;
}

EngineStats ShardedEngine::stats() const {
  EngineStats total;
  for (const auto& shard : shards_) {
    total.executed += shard->queue.executed();
    total.scheduled += shard->queue.scheduled();
    total.pending += shard->queue.pending();
    total.max_pending += shard->queue.max_pending();
  }
  return total;
}

}  // namespace mb::sim
