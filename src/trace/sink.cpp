#include "trace/sink.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "support/check.h"
#include "support/rng.h"

namespace mb::trace {

std::uint32_t parse_event_kind_mask(std::string_view spec) {
  if (spec == "all") return kAllEventKinds;
  support::check(!spec.empty(), "parse_event_kind_mask", "empty kind list");
  std::uint32_t mask = 0;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t comma = spec.find(',', start);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view name = spec.substr(start, comma - start);
    support::check(!name.empty(), "parse_event_kind_mask",
                   "empty event kind name in list");
    mask |= event_kind_bit(parse_event_kind(name));
    start = comma + 1;
    if (comma == spec.size()) break;
  }
  return mask;
}

std::vector<std::uint32_t> sample_ranks(std::uint32_t total,
                                        std::uint32_t count,
                                        std::uint64_t seed) {
  std::vector<std::uint32_t> pool(total);
  for (std::uint32_t i = 0; i < total; ++i) pool[i] = i;
  if (count >= total) return pool;
  std::uint64_t state = seed ^ 0xD6E8FEB86659FD93ULL;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t j =
        i + static_cast<std::uint32_t>(support::splitmix64(state) %
                                       (total - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(count);
  std::sort(pool.begin(), pool.end());
  return pool;
}

StreamingSink::StreamingSink(std::uint32_t total_ranks, SinkConfig config)
    : config_(std::move(config)), total_ranks_(total_ranks) {
  if (!config_.rank_list.empty()) {
    sampled_ = config_.rank_list;
    std::sort(sampled_.begin(), sampled_.end());
    sampled_.erase(std::unique(sampled_.begin(), sampled_.end()),
                   sampled_.end());
    for (const std::uint32_t r : sampled_)
      support::check(r < total_ranks_, "StreamingSink",
                     "traced rank " + std::to_string(r) +
                         " out of range (ranks=" +
                         std::to_string(total_ranks_) + ")");
  } else if (config_.sample_count > 0) {
    sampled_ = sample_ranks(total_ranks_, config_.sample_count, config_.seed);
  } else {
    sampled_.resize(total_ranks_);
    for (std::uint32_t i = 0; i < total_ranks_; ++i) sampled_[i] = i;
  }

  rank_to_slot_.assign(total_ranks_, kUnsampled);
  for (std::uint32_t slot = 0; slot < sampled_.size(); ++slot)
    rank_to_slot_[sampled_[slot]] = slot;
  rings_.resize(sampled_.size());

  if (!config_.spill_path.empty()) {
    // Spilling needs a finite chunk size; "unbounded" makes no sense.
    if (config_.ring_capacity == 0) config_.ring_capacity = 65536;
    spill_tmp_path_ = config_.spill_path + ".tmp";
    spill_tmp_.open(spill_tmp_path_, std::ios::binary | std::ios::trunc);
    support::check(spill_tmp_.is_open(), "StreamingSink",
                   "cannot open spill file " + spill_tmp_path_);
  }
}

StreamingSink::~StreamingSink() {
  if (!spill_tmp_path_.empty() && !closed_) {
    spill_tmp_.close();
    std::remove(spill_tmp_path_.c_str());
  }
}

bool StreamingSink::wants(std::uint32_t rank, EventKind kind) const {
  return rank < rank_to_slot_.size() &&
         rank_to_slot_[rank] != kUnsampled &&
         (config_.kind_mask & event_kind_bit(kind)) != 0;
}

void StreamingSink::emit(Record r) {
  if (!wants(r.rank, r.kind)) return;
  const std::uint32_t rank = r.rank;
  RankRing& ring = rings_[rank_to_slot_[rank]];
  ++ring.emitted;
  const std::uint32_t cap = config_.ring_capacity;
  if (cap != 0 && config_.spill_path.empty() && ring.slots.size() >= cap) {
    // Bounded capture without spill keeps the newest records — the tail
    // of a timeline is where stragglers and faults show up.
    ring.slots[ring.head] = std::move(r);
    ring.head = (ring.head + 1) % cap;
    ring.wrapped = true;
    ++ring.dropped;
    return;
  }
  ring.slots.push_back(std::move(r));
  if (cap != 0 && !config_.spill_path.empty() && ring.slots.size() >= cap)
    spill_ring(ring);
}

void StreamingSink::spill_ring(RankRing& ring) {
  if (ring.slots.empty()) return;
  // Append one chunk under the spill lock, labels interned in the rank's
  // own table. Per-rank chunk order in the temporary is emission order:
  // emits for one rank never race, so the lock only serializes chunks of
  // *different* ranks, whose relative order close() discards anyway.
  const std::lock_guard<std::mutex> lock(spill_mutex_);
  ring.chunks.emplace_back(spilled_, ring.slots.size());
  for (const Record& r : ring.slots)
    write_record(spill_tmp_, {r.rank, r.kind, ring.labels.intern(r.label),
                              r.bytes, r.t0, r.t1});
  spilled_ += ring.slots.size();
  support::check(spill_tmp_.good(), "StreamingSink",
                 "spill write failed: " + spill_tmp_path_);
  ring.slots.clear();
}

void StreamingSink::close() {
  if (closed_) return;
  closed_ = true;
  if (config_.spill_path.empty()) return;
  finalize_spill();
}

void StreamingSink::finalize_spill() {
  for (RankRing& ring : rings_) spill_ring(ring);
  spill_tmp_.close();

  // The file's label table merges the per-rank tables in ascending rank
  // order: first appearance in rank-major order, as write_mb_trace()
  // builds it from a drained trace.
  LabelTable table;
  std::vector<std::vector<std::uint32_t>> remap(rings_.size());
  for (std::size_t slot = 0; slot < rings_.size(); ++slot)
    for (const std::string& label : rings_[slot].labels.labels())
      remap[slot].push_back(table.intern(label));

  // Copy each rank's chunks, in emission order, into the rank-major file.
  MbTraceMeta meta;
  meta.tool_version = config_.tool_version;
  meta.seed = config_.seed;
  meta.total_ranks = total_ranks_;
  meta.sampled_ranks = sampled_;
  std::ofstream out(config_.spill_path, std::ios::binary | std::ios::trunc);
  support::check(out.is_open(), "StreamingSink",
                 "cannot open output file " + config_.spill_path);
  MbTraceWriter writer(out, meta, table.labels(), spilled_);
  std::ifstream in(spill_tmp_path_, std::ios::binary);
  support::check(in.is_open(), "StreamingSink",
                 "cannot reopen spill file " + spill_tmp_path_);
  for (std::size_t slot = 0; slot < rings_.size(); ++slot) {
    for (const auto& [first, count] : rings_[slot].chunks) {
      in.seekg(static_cast<std::streamoff>(first * kMbTraceRecordBytes));
      for (std::uint64_t i = 0; i < count; ++i) {
        MbTraceRecord r = read_record(in);
        support::check(r.label_id < remap[slot].size(), "StreamingSink",
                       "corrupt spill record");
        r.label_id = remap[slot][r.label_id];
        writer.append(r);
      }
    }
  }
  writer.finish();
  in.close();
  std::remove(spill_tmp_path_.c_str());
}

void StreamingSink::drain(Trace& out) {
  // Sized once: a trace grown by doubling holds its old and new blocks at
  // once, and at scale that copy can set the run's peak.
  std::size_t kept = out.size();
  for (const RankRing& ring : rings_) kept += ring.slots.size();
  out.reserve(kept);
  for (RankRing& ring : rings_) {
    const std::size_t n = ring.slots.size();
    // Oldest-first: a wrapped ring's oldest record sits at head.
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t at = ring.wrapped ? (ring.head + i) % n : i;
      out.add(std::move(ring.slots[at]));
    }
    // Free as we go: the trace grows while the rings shrink, so a full
    // capture never holds two copies of every record.
    std::vector<Record>().swap(ring.slots);
    ring.head = 0;
    ring.wrapped = false;
  }
  if (!config_.tool_version.empty())
    out.set_provenance(config_.tool_version, config_.seed);
}

std::uint64_t StreamingSink::total_emitted() const {
  std::uint64_t total = 0;
  for (const auto& ring : rings_) total += ring.emitted;
  return total;
}

std::uint64_t StreamingSink::total_dropped() const {
  std::uint64_t total = 0;
  for (const auto& ring : rings_) total += ring.dropped;
  return total;
}

std::uint64_t StreamingSink::dropped(std::uint32_t rank) const {
  if (rank >= rank_to_slot_.size() || rank_to_slot_[rank] == kUnsampled)
    return 0;
  return rings_[rank_to_slot_[rank]].dropped;
}

}  // namespace mb::trace
