// mb-trace v1 — compact binary trace interchange format.
//
// The Paraver-like text format is great for eyeballs and diffs, but at
// 4k-10k simulated ranks a traced run produces tens of millions of
// records; the text form is ~100 bytes/record and rounds times to whole
// microseconds. mb-trace stores the same records in ~33 bytes each with
// a shared label string table, and keeps timestamps as raw IEEE-754
// bits — so write → read → Chrome/Paraver export is byte-identical to
// exporting the original in-memory trace directly.
//
// Layout (all integers little-endian, fixed width):
//
//   "MBTR"                     4-byte magic
//   u32  version               support::kTraceSchema.version (1)
//   u32  tool_version length, bytes
//   u64  seed                  effective seed of the producing run
//   u32  total_ranks           ranks in the simulated run (0 = unknown)
//   u64  dropped               records lost to ring-buffer overflow
//   u32  sampled count, u32[]  traced rank ids (empty = every rank)
//   u32  string count, { u32 length, bytes }[]   label table
//   u64  record count
//   records: { u32 rank, u8 kind, u32 label_id, u64 bytes,
//              u64 t0_bits, u64 t1_bits }
//
// Record order is preserved verbatim; the trace sink writes rank-major,
// the same canonical order it drains in-memory traces in — so files are
// byte-identical for any --sim-jobs.
//
// This module is the format's one codec: the little-endian helpers, the
// record encoder and decoder, and the label interner serve the writer,
// the reader, write_mb_trace() and the streaming sink's spill alike.
// Readers accept ranks below kMaxTraceRanks only: total_ranks above it,
// or a record whose rank is not below total_ranks (kMaxTraceRanks when
// total_ranks is 0), is an error naming the record. So is a record whose
// times interval_error() rejects. The label table is held to the
// FileLabels bounds, and header counts allocate only as their entries
// are read, so a short file fails as truncated.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/trace.h"

namespace mb::trace {

/// One record as the file lays it out: the label is an id into the
/// file's label table.
struct MbTraceRecord {
  std::uint32_t rank = 0;
  EventKind kind = EventKind::kCompute;
  std::uint32_t label_id = 0;
  std::uint64_t bytes = 0;
  double t0 = 0.0;
  double t1 = 0.0;
};

/// Encoded size of one record (u32 + u8 + u32 + u64 + f64 + f64).
inline constexpr std::size_t kMbTraceRecordBytes = 33;

void write_record(std::ostream& os, const MbTraceRecord& r);

/// Throws support::Error on a short read or an unknown event kind.
MbTraceRecord read_record(std::istream& is);

/// A file's label table: ids count up from 0 in first-intern order.
/// Records carry interned labels, so a lookup hashes one pointer.
class LabelTable {
 public:
  std::uint32_t intern(support::Label label);
  const std::vector<std::string>& labels() const { return labels_; }

 private:
  std::unordered_map<support::Label, std::uint32_t> ids_;
  std::vector<std::string> labels_;
};

struct MbTraceMeta {
  std::string tool_version;
  std::uint64_t seed = 0;
  std::uint32_t total_ranks = 0;
  std::vector<std::uint32_t> sampled_ranks;  ///< empty = every rank traced
  std::uint64_t dropped = 0;  ///< records lost to ring overflow
};

/// Incremental writer: header and string table up front, then records
/// appended one at a time (the streaming sink finalizes spilled chunks
/// through this without materializing the whole trace). finish() checks
/// that exactly the declared number of records was appended.
class MbTraceWriter {
 public:
  MbTraceWriter(std::ostream& os, const MbTraceMeta& meta,
                const std::vector<std::string>& string_table,
                std::uint64_t record_count);

  void append(const MbTraceRecord& r);
  void finish();

 private:
  std::ostream& os_;
  std::uint64_t declared_ = 0;
  std::uint64_t written_ = 0;
};

/// One-shot writer: builds the label table in first-appearance order and
/// streams every record of `trace`.
void write_mb_trace(std::ostream& os, const Trace& trace,
                    const MbTraceMeta& meta);

struct MbTraceFile {
  Trace trace;  ///< provenance restored from the header
  MbTraceMeta meta;
};

/// Parses a file produced by write_mb_trace()/MbTraceWriter. Throws
/// support::Error on bad magic, unsupported version, a rank out of
/// bounds, a bad interval, a label beyond the FileLabels bounds or a
/// truncated or corrupt body. On a seekable stream the trace is sized
/// once, for no more records than the rest of the input can hold.
MbTraceFile read_mb_trace(std::istream& is);

/// True when the stream starts with the mb-trace magic. The stream
/// position is restored, so the same stream can then be handed to
/// read_mb_trace() or parse_paraver().
bool is_mb_trace(std::istream& is);

}  // namespace mb::trace
