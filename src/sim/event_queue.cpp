#include "sim/event_queue.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "support/check.h"

namespace mb::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// A drained bucket larger than this is re-bucketed into a finer rung
// instead of heapified (unless its timestamps are too tight to split).
constexpr std::size_t kSplitThreshold = 64;
// Rung depth cap: each descent shrinks the covered span by ~target
// bucket count, so double precision bottoms out long before this.
constexpr std::size_t kMaxRungs = 24;
// Small queues skip the ladder entirely: at rebuild time an overflow
// pool no larger than this becomes the bottom heap directly, and pushes
// then feed that heap in place. A binary heap this size stays
// cache-resident and beats the bucketing arithmetic (HPL's pipelined
// broadcast holds < 1k pending events at 4096 ranks; the ladder only
// pays off in the 10k+ regime of SPECFEM halos and BigDFT alltoallv).
constexpr std::size_t kHeapBypass = 2048;
// In heap mode, a push growing the heap past this spills everything back
// into the overflow pool so the next refill rebuilds the ladder.
constexpr std::size_t kHeapSpill = 4 * kHeapBypass;
// Callback slots are indexed by Event::slot.
constexpr std::size_t kMaxSlots = std::numeric_limits<std::uint32_t>::max();

}  // namespace

void EventQueue::schedule_at(double time_s, Callback cb) {
  support::check(time_s >= now_, "EventQueue::schedule_at",
                 "cannot schedule in the past");
  support::check(static_cast<bool>(cb), "EventQueue::schedule_at",
                 "callback must not be empty");
  push(Event{time_s, next_seq_++, park(std::move(cb))});
}

std::uint32_t EventQueue::park(Callback cb) {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(cb);
    return slot;
  }
  support::check(slots_.size() < kMaxSlots, "EventQueue::schedule_at",
                 "more than 2^32 - 1 pending events");
  slots_.push_back(std::move(cb));
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::schedule_in(double delay_s, Callback cb) {
  support::check(delay_s >= 0.0, "EventQueue::schedule_in",
                 "delay must be non-negative");
  schedule_at(now_ + delay_s, std::move(cb));
}

void EventQueue::push(Event ev) {
  ++size_;
  max_pending_ = std::max(max_pending_, size_);
  // Heap mode: when cur_ holds *every* pending event (no rungs, empty
  // overflow), pushing straight into it preserves exact (time, seq)
  // order — this is the classic single-heap engine. Grown past the spill
  // bound, the heap is dumped into the overflow so the next refill
  // rebuilds a proper ladder.
  if (rungs_.empty() && overflow_.empty() && !cur_.empty()) {
    if (cur_.size() < kHeapSpill) {
      cur_.push_back(ev);
      std::push_heap(cur_.begin(), cur_.end(), Later{});
      return;
    }
    overflow_.swap(cur_);
  }
  // Walk coarsest to deepest: the first rung whose live range holds the
  // timestamp takes the event; the cur bucket of every non-deepest rung
  // is delegated to the rung below it.
  for (std::size_t i = 0; i < rungs_.size(); ++i) {
    Rung& r = rungs_[i];
    const double rel = ev.time - r.base;
    std::int64_t idx =
        rel < 0.0 ? -1 : static_cast<std::int64_t>(rel * r.inv_width);
    if (idx >= r.nb) {
      if (i == 0) break;  // beyond the ladder: overflow pool
      // Past the top of a sub-rung (its parent mapped the time into the
      // expanded bucket, but the rung only spans the events it was split
      // from): clamp into the last bucket — the event is no earlier than
      // everything in this rung, so draining it there keeps time order.
      idx = r.nb - 1;
    }
    if (idx > r.cur) {
      r.buckets[static_cast<std::size_t>(idx)].push_back(ev);
      ++r.count;
      return;
    }
    // At or before the bucket being drained. On the deepest rung that is
    // the bottom heap; above it, descend into the expansion.
    if (i + 1 == rungs_.size()) {
      cur_.push_back(ev);
      std::push_heap(cur_.begin(), cur_.end(), Later{});
      return;
    }
  }
  overflow_.push_back(ev);
}

bool EventQueue::ensure_current() {
  while (cur_.empty()) {
    if (rungs_.empty()) {
      if (overflow_.empty()) return false;
      build_base_rung();
      continue;
    }
    Rung& r = rungs_.back();
    if (r.count == 0) {
      rungs_.pop_back();
      continue;
    }
    // The scan pointer only moves forward within a rung, so the sweep
    // costs O(nb) per rung lifetime, amortized over its events.
    std::int64_t j = r.cur + 1;
    while (r.buckets[static_cast<std::size_t>(j)].empty()) ++j;
    r.cur = j;
    std::vector<Event> bucket;
    bucket.swap(r.buckets[static_cast<std::size_t>(j)]);
    r.count -= bucket.size();
    if (bucket.size() > kSplitThreshold && rungs_.size() < kMaxRungs &&
        split_into_rung(bucket)) {
      continue;  // dense cluster: drain it through the new finer rung
    }
    cur_ = std::move(bucket);
    std::make_heap(cur_.begin(), cur_.end(), Later{});
  }
  return true;
}

void EventQueue::build_base_rung() {
  // Small pools skip the ladder: heapify straight into cur_ and let
  // push() feed the heap in place (see kHeapBypass above).
  if (overflow_.size() <= kHeapBypass) {
    cur_ = std::move(overflow_);
    overflow_.clear();
    std::make_heap(cur_.begin(), cur_.end(), Later{});
    return;
  }
  // Bucket the overflow around its minimum. Width targets ~4 events per
  // bucket across the span; events past the covered window stay in the
  // overflow for a later rebuild. The minimum always lands in bucket 0,
  // so every rebuild makes progress.
  const std::size_t n = overflow_.size();
  double min_t = kInf;
  double max_t = -kInf;
  for (const Event& ev : overflow_) {
    min_t = std::min(min_t, ev.time);
    max_t = std::max(max_t, ev.time);
  }
  const double span = max_t - min_t;
  double width = 1.0;
  if (span > 0.0 && n > 1) {
    width = span * 4.0 / static_cast<double>(n);
    if (!std::isfinite(width) || width <= 0.0) width = 1.0;
  }
  const auto nb =
      static_cast<std::int64_t>(std::clamp<std::size_t>(n / 4 + 1, 64, 65536));
  Rung r;
  r.base = min_t;
  r.inv_width = 1.0 / width;
  r.nb = nb;
  r.buckets.resize(static_cast<std::size_t>(nb));
  std::vector<Event> later;
  for (const Event& ev : overflow_) {
    const std::int64_t idx =
        static_cast<std::int64_t>((ev.time - r.base) * r.inv_width);
    if (idx < nb) {
      r.buckets[static_cast<std::size_t>(idx)].push_back(ev);
      ++r.count;
    } else {
      later.push_back(ev);
    }
  }
  overflow_ = std::move(later);
  rungs_.push_back(std::move(r));
}

bool EventQueue::split_into_rung(std::vector<Event>& bucket) {
  const std::size_t n = bucket.size();
  double min_t = kInf;
  double max_t = -kInf;
  for (const Event& ev : bucket) {
    min_t = std::min(min_t, ev.time);
    max_t = std::max(max_t, ev.time);
  }
  const double span = max_t - min_t;
  if (span <= 0.0) return false;  // pure tie cluster: the heap handles seq
  const auto nb =
      static_cast<std::int64_t>(std::clamp<std::size_t>(n / 4 + 1, 16, 65536));
  const double width = span / static_cast<double>(nb);
  // Splitting is futile once the width degenerates below the resolution
  // of the timestamps involved.
  if (!std::isfinite(width) || min_t + width <= min_t) return false;
  Rung r;
  r.base = min_t;
  r.inv_width = 1.0 / width;
  r.nb = nb;
  r.count = n;
  r.buckets.resize(static_cast<std::size_t>(nb));
  for (const Event& ev : bucket) {
    const std::int64_t idx = std::min<std::int64_t>(
        static_cast<std::int64_t>((ev.time - r.base) * r.inv_width), nb - 1);
    r.buckets[static_cast<std::size_t>(idx)].push_back(ev);
  }
  bucket.clear();
  rungs_.push_back(std::move(r));
  return true;
}

EventQueue::Event EventQueue::pop_min() {
  std::pop_heap(cur_.begin(), cur_.end(), Later{});
  const Event ev = cur_.back();
  cur_.pop_back();
  --size_;
  return ev;
}

bool EventQueue::step() {
  if (!ensure_current()) return false;
  const Event ev = pop_min();
  now_ = ev.time;
  ++executed_;
  // Moved out before it runs: the callback may schedule events, and a
  // push_back that grows slots_ would relocate it mid-call.
  Callback cb = std::move(slots_[ev.slot]);
  free_slots_.push_back(ev.slot);
  cb();
  return true;
}

double EventQueue::next_time() {
  if (!ensure_current()) return kInf;
  return cur_.front().time;
}

double EventQueue::run() {
  while (step()) {
  }
  return now_;
}

double EventQueue::run_until(double until_s) {
  while (next_time() <= until_s) step();
  if (now_ < until_s) now_ = until_s;
  return now_;
}

void EventQueue::run_before(double horizon_s) {
  while (next_time() < horizon_s) step();
}

}  // namespace mb::sim
