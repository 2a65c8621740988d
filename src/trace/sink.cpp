#include "trace/sink.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "support/check.h"
#include "trace/mb_trace.h"

namespace mb::trace {

namespace {

// SplitMix64: tiny, seedable, identical on every platform — exactly what
// deterministic rank sampling needs (std::mt19937 + distributions are
// not portable across standard libraries).
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void put_u32(std::ostream& os, std::uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i)
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  os.write(buf, 4);
}

void put_u64(std::ostream& os, std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i)
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  os.write(buf, 8);
}

void get_exact(std::istream& is, char* buf, std::size_t n) {
  is.read(buf, static_cast<std::streamsize>(n));
  support::check(static_cast<std::size_t>(is.gcount()) == n, "StreamingSink",
                 "truncated spill file");
}

std::uint32_t get_u32(std::istream& is) {
  char buf[4];
  get_exact(is, buf, 4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(buf[i]))
         << (8 * i);
  return v;
}

std::uint64_t get_u64(std::istream& is) {
  char buf[8];
  get_exact(is, buf, 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i]))
         << (8 * i);
  return v;
}

// One spilled record: kind, label id, bytes, raw t0/t1 bits.
constexpr std::size_t kSpillRecordBytes = 1 + 4 + 8 + 8 + 8;

}  // namespace

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
        i + static_cast<std::uint32_t>(splitmix64(state) % (total - i));
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
    spill_ring(rank, ring);
}

void StreamingSink::spill_ring(std::uint32_t rank, RankRing& ring) {
  if (ring.slots.empty()) return;
  // Intern labels per rank (tables are tiny — a handful of phase names),
  // then append one chunk under the spill lock. Per-rank chunk order in
  // the temporary is emission order: emits for one rank never race, so
  // the lock only serializes chunks of *different* ranks, whose relative
  // order the canonicalizing close() pass discards anyway.
  std::vector<std::uint32_t> label_ids(ring.slots.size());
  for (std::size_t i = 0; i < ring.slots.size(); ++i) {
    const std::string& label = ring.slots[i].label;
    std::uint32_t id = kUnsampled;
    for (std::uint32_t l = 0; l < ring.labels.size(); ++l)
      if (ring.labels[l] == label) {
        id = l;
        break;
      }
    if (id == kUnsampled) {
      id = static_cast<std::uint32_t>(ring.labels.size());
      ring.labels.push_back(label);
    }
    label_ids[i] = id;
  }
  const std::lock_guard<std::mutex> lock(spill_mutex_);
  put_u32(spill_tmp_, rank);
  put_u32(spill_tmp_, static_cast<std::uint32_t>(ring.slots.size()));
  for (std::size_t i = 0; i < ring.slots.size(); ++i) {
    const Record& r = ring.slots[i];
    spill_tmp_.put(static_cast<char>(r.kind));
    put_u32(spill_tmp_, label_ids[i]);
    put_u64(spill_tmp_, r.bytes);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &r.t0, sizeof(bits));
    put_u64(spill_tmp_, bits);
    std::memcpy(&bits, &r.t1, sizeof(bits));
    put_u64(spill_tmp_, bits);
  }
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
  for (std::uint32_t slot = 0; slot < rings_.size(); ++slot)
    spill_ring(sampled_[slot], rings_[slot]);
  spill_tmp_.close();

  // Pass 1: index the chunks. Per rank they already sit in emission
  // order; only the interleaving between ranks is timing-dependent.
  struct Chunk {
    std::uint64_t offset = 0;
    std::uint32_t count = 0;
  };
  std::vector<std::vector<Chunk>> chunks(rings_.size());
  std::vector<std::uint64_t> per_rank_records(rings_.size(), 0);
  std::uint64_t total_records = 0;
  {
    std::ifstream in(spill_tmp_path_, std::ios::binary);
    support::check(in.is_open(), "StreamingSink",
                   "cannot reopen spill file " + spill_tmp_path_);
    while (true) {
      if (in.peek() == std::ifstream::traits_type::eof()) break;
      const std::uint32_t rank = get_u32(in);
      const std::uint32_t count = get_u32(in);
      support::check(rank < rank_to_slot_.size() &&
                         rank_to_slot_[rank] != kUnsampled,
                     "StreamingSink", "corrupt spill chunk header");
      const std::uint32_t slot = rank_to_slot_[rank];
      const auto offset = static_cast<std::uint64_t>(in.tellg());
      chunks[slot].push_back({offset, count});
      per_rank_records[slot] += count;
      total_records += count;
      in.seekg(static_cast<std::streamoff>(count * kSpillRecordBytes),
               std::ios::cur);
    }
  }

  // Global label table: per-rank tables merged in ascending rank order —
  // deterministic because each per-rank table is.
  std::vector<std::string> table;
  std::vector<std::vector<std::uint32_t>> remap(rings_.size());
  for (std::uint32_t slot = 0; slot < rings_.size(); ++slot) {
    remap[slot].reserve(rings_[slot].labels.size());
    for (const auto& label : rings_[slot].labels) {
      std::uint32_t id = kUnsampled;
      for (std::uint32_t g = 0; g < table.size(); ++g)
        if (table[g] == label) {
          id = g;
          break;
        }
      if (id == kUnsampled) {
        id = static_cast<std::uint32_t>(table.size());
        table.push_back(label);
      }
      remap[slot].push_back(id);
    }
  }

  // Pass 2: write the canonical rank-major mb-trace file.
  MbTraceMeta meta;
  meta.tool_version = config_.tool_version;
  meta.seed = config_.seed;
  meta.total_ranks = total_ranks_;
  meta.sampled_ranks = sampled_;
  meta.dropped = 0;
  std::ofstream out(config_.spill_path, std::ios::binary | std::ios::trunc);
  support::check(out.is_open(), "StreamingSink",
                 "cannot open output file " + config_.spill_path);
  MbTraceWriter writer(out, meta, table, total_records);
  std::ifstream in(spill_tmp_path_, std::ios::binary);
  support::check(in.is_open(), "StreamingSink",
                 "cannot reopen spill file " + spill_tmp_path_);
  for (std::uint32_t slot = 0; slot < rings_.size(); ++slot) {
    for (const Chunk& chunk : chunks[slot]) {
      in.clear();
      in.seekg(static_cast<std::streamoff>(chunk.offset));
      for (std::uint32_t i = 0; i < chunk.count; ++i) {
        char kind_ch = 0;
        get_exact(in, &kind_ch, 1);
        const std::uint32_t label_id = get_u32(in);
        const std::uint64_t bytes = get_u64(in);
        const std::uint64_t t0_bits = get_u64(in);
        const std::uint64_t t1_bits = get_u64(in);
        double t0 = 0.0;
        double t1 = 0.0;
        std::memcpy(&t0, &t0_bits, sizeof(t0));
        std::memcpy(&t1, &t1_bits, sizeof(t1));
        support::check(label_id < remap[slot].size(), "StreamingSink",
                       "corrupt spill record");
        writer.append(sampled_[slot], static_cast<EventKind>(kind_ch),
                      remap[slot][label_id], bytes, t0, t1);
      }
    }
  }
  writer.finish();
  in.close();
  std::remove(spill_tmp_path_.c_str());
}

void StreamingSink::drain(Trace& out) {
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
