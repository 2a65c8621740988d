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
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace mb::trace {

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

  void append(std::uint32_t rank, EventKind kind, std::uint32_t label_id,
              std::uint64_t bytes, double t0, double t1);
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
/// support::Error on bad magic, unsupported version or a truncated or
/// corrupt body.
MbTraceFile read_mb_trace(std::istream& is);

/// True when the stream starts with the mb-trace magic. The stream
/// position is restored, so the same stream can then be handed to
/// read_mb_trace() or parse_paraver().
bool is_mb_trace(std::istream& is);

}  // namespace mb::trace
