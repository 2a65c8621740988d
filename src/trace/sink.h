// Trace capture.
//
// Every run delivers its records to one StreamingSink: per-rank ring
// buffers with deterministic rank sampling, event-kind filters, and
// optional spill-to-disk into the compact mb-trace v1 format. By default
// it keeps every record of every rank (unbounded rings); capture options
// bound it to O(sampled_ranks × ring_capacity) regardless of run length.
// The sink drains rank-major, so in-memory traces and spilled files are
// byte-identical for any --sim-jobs.
//
// A full ring spills as one chunk of mb-trace records (mb_trace.h's
// codec, labels interned per rank) into `<path>.tmp`, and the sink notes
// the chunk's place. close() copies each rank's chunks in rank order
// into the final file in one read of the temporary; the file is the
// bytes write_mb_trace() writes for the drained trace.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "trace/mb_trace.h"

namespace mb::trace {

/// Bit for one EventKind in a SinkConfig kind mask.
constexpr std::uint32_t event_kind_bit(EventKind k) {
  return 1u << static_cast<std::uint32_t>(k);
}

/// All six event kinds enabled.
inline constexpr std::uint32_t kAllEventKinds =
    event_kind_bit(EventKind::kFault) * 2 - 1;

/// Parses "all" or a comma-separated list of event kind names
/// ("collective,compute") into a mask. Throws support::Error on unknown
/// names or an empty list.
std::uint32_t parse_event_kind_mask(std::string_view spec);

/// Deterministically samples `count` distinct ranks out of
/// [0, total): a seeded partial Fisher-Yates shuffle, result sorted
/// ascending. Same (total, count, seed) → same set, on every platform.
std::vector<std::uint32_t> sample_ranks(std::uint32_t total,
                                        std::uint32_t count,
                                        std::uint64_t seed);

struct SinkConfig {
  /// Rank selection: explicit `rank_list` wins; else `sample_count > 0`
  /// samples that many ranks with sample_ranks(seed); else all ranks.
  std::vector<std::uint32_t> rank_list;
  std::uint32_t sample_count = 0;
  std::uint64_t seed = 0;

  /// Records retained per sampled rank. Without a spill path the ring
  /// keeps the *newest* `ring_capacity` records (oldest are dropped and
  /// counted); with one, a full ring is flushed to disk as a chunk and
  /// nothing is lost. 0 = unbounded (keep every record).
  std::uint32_t ring_capacity = 65536;

  /// Which event kinds to capture (see event_kind_bit / kAllEventKinds).
  std::uint32_t kind_mask = kAllEventKinds;

  /// Non-empty: stream rings into this mb-trace v1 file. close() writes
  /// the canonical rank-major file via a `<path>.tmp` spill pass.
  std::string spill_path;

  /// Stamped into the mb-trace header and drained traces.
  std::string tool_version;
};

/// Where the MPI runtime delivers trace records. Typical lifecycle:
///
///   StreamingSink sink(total_ranks, config);
///   mpi::Runtime runtime(engine, network, hosts, mpi_config, &sink);
///   ... run ...
///   sink.close();                  // finalizes the spill file, if any
///   sink.drain(result.trace);      // no-spill mode: rank-major drain
///
/// Concurrency contract: emit() may be called concurrently for
/// *different* ranks (the sharded engine's workers own disjoint rank
/// sets) but never concurrently for the same rank. wants() is safe to
/// call concurrently and is a cheap pre-filter — callers may skip
/// building the Record entirely when it returns false.
class StreamingSink {
 public:
  StreamingSink(std::uint32_t total_ranks, SinkConfig config);
  ~StreamingSink();

  bool wants(std::uint32_t rank, EventKind kind) const;
  void emit(Record r);

  /// Finalizes the capture. With a spill path: flushes the remaining
  /// rings, canonicalizes the chunked `<path>.tmp` into the final
  /// rank-major mb-trace file and removes the temporary. Without one:
  /// a no-op. Idempotent; not safe concurrently with emit().
  void close();

  /// Moves every retained record to `out`, ranks ascending and
  /// oldest-first within a rank, freeing each rank's ring as it goes, and
  /// stamps provenance; `out` is sized once for all of them. Only
  /// meaningful without a spill path (spilled records live in the file);
  /// the rings are empty afterwards.
  void drain(Trace& out);

  const std::vector<std::uint32_t>& sampled_ranks() const {
    return sampled_;
  }
  std::uint64_t total_emitted() const;
  /// Records lost to ring overflow (always 0 when spilling).
  std::uint64_t total_dropped() const;
  std::uint64_t dropped(std::uint32_t rank) const;

 private:
  struct RankRing {
    std::vector<Record> slots;
    std::size_t head = 0;  ///< oldest slot once the ring has wrapped
    bool wrapped = false;
    std::uint64_t emitted = 0;
    std::uint64_t dropped = 0;
    LabelTable labels;  ///< spill mode: ids of this rank's spilled records
    /// Spill mode: (first record, record count) of each spilled chunk.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> chunks;
  };

  void spill_ring(RankRing& ring);
  void finalize_spill();

  SinkConfig config_;
  std::uint32_t total_ranks_ = 0;
  std::vector<std::uint32_t> sampled_;       ///< ascending rank ids
  std::vector<std::uint32_t> rank_to_slot_;  ///< kUnsampled when filtered
  std::vector<RankRing> rings_;              ///< one per sampled rank
  std::ofstream spill_tmp_;
  std::string spill_tmp_path_;
  std::mutex spill_mutex_;
  std::uint64_t spilled_ = 0;  ///< records in the temporary; spill_mutex_
  bool closed_ = false;

  static constexpr std::uint32_t kUnsampled = 0xFFFFFFFFu;
};

}  // namespace mb::trace
