#include "trace/mb_trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "pipe_buf.h"
#include "support/check.h"

namespace mb::trace {
namespace {

Trace sample_trace() {
  Trace t;
  Record r;
  r.rank = 0;
  r.t0 = 0.1;
  r.t1 = 0.30000000000000004;  // survives only a bit-exact format
  r.kind = EventKind::kCompute;
  r.label = "convolution";
  t.add(r);
  r.rank = 2;
  r.t0 = 0.3;
  r.t1 = 0.5;
  r.kind = EventKind::kCollective;
  r.label = "alltoallv";
  r.bytes = 1 << 20;
  t.add(r);
  return t;
}

TEST(MbTrace, RoundTripIsBitExact) {
  Trace t = sample_trace();
  MbTraceMeta meta;
  meta.tool_version = "1.0.0";
  meta.seed = 42;
  meta.total_ranks = 4;
  meta.sampled_ranks = {0, 2};
  meta.dropped = 7;

  std::ostringstream os(std::ios::binary);
  write_mb_trace(os, t, meta);
  std::istringstream is(os.str(), std::ios::binary);
  const MbTraceFile file = read_mb_trace(is);

  EXPECT_EQ(file.meta.tool_version, "1.0.0");
  EXPECT_EQ(file.meta.seed, 42u);
  EXPECT_EQ(file.meta.total_ranks, 4u);
  EXPECT_EQ(file.meta.sampled_ranks, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(file.meta.dropped, 7u);

  ASSERT_EQ(file.trace.size(), 2u);
  const Record& a = file.trace.records()[0];
  EXPECT_EQ(a.rank, 0u);
  EXPECT_EQ(a.t0, 0.1);  // exact: raw IEEE-754 bits, no text rounding
  EXPECT_EQ(a.t1, 0.30000000000000004);
  EXPECT_EQ(a.label, "convolution");
  const Record& b = file.trace.records()[1];
  EXPECT_EQ(b.kind, EventKind::kCollective);
  EXPECT_EQ(b.bytes, static_cast<std::uint64_t>(1 << 20));

  // Provenance flows from the header into the in-memory trace.
  ASSERT_TRUE(file.trace.has_provenance());
  EXPECT_EQ(file.trace.tool_version(), "1.0.0");
  EXPECT_EQ(file.trace.seed(), 42u);
}

TEST(MbTrace, WriteIsDeterministic) {
  Trace t = sample_trace();
  MbTraceMeta meta;
  meta.tool_version = "1.0.0";
  meta.total_ranks = 4;
  std::ostringstream a(std::ios::binary);
  std::ostringstream b(std::ios::binary);
  write_mb_trace(a, t, meta);
  write_mb_trace(b, t, meta);
  EXPECT_EQ(a.str(), b.str());
}

TEST(MbTrace, IsMbTraceSniffsAndRestoresStream) {
  Trace t = sample_trace();
  MbTraceMeta meta;
  meta.total_ranks = 4;
  std::ostringstream os(std::ios::binary);
  write_mb_trace(os, t, meta);

  std::istringstream binary(os.str(), std::ios::binary);
  EXPECT_TRUE(is_mb_trace(binary));
  // The sniff must not consume the header: a full read still works.
  EXPECT_EQ(read_mb_trace(binary).trace.size(), 2u);

  std::istringstream text("0:compute:x:0:1:0\n");
  EXPECT_FALSE(is_mb_trace(text));
  std::string line;
  std::getline(text, line);
  EXPECT_EQ(line, "0:compute:x:0:1:0");  // stream position restored

  std::istringstream tiny("MB");
  EXPECT_FALSE(is_mb_trace(tiny));
}

TEST(MbTrace, RejectsCorruptInput) {
  Trace t = sample_trace();
  MbTraceMeta meta;
  meta.total_ranks = 4;
  std::ostringstream os(std::ios::binary);
  write_mb_trace(os, t, meta);
  const std::string good = os.str();

  {  // bad magic
    std::string bad = good;
    bad[0] = 'X';
    std::istringstream is(bad, std::ios::binary);
    EXPECT_THROW(read_mb_trace(is), support::Error);
  }
  {  // unsupported version
    std::string bad = good;
    bad[4] = static_cast<char>(0x7F);
    std::istringstream is(bad, std::ios::binary);
    EXPECT_THROW(read_mb_trace(is), support::Error);
  }
  {  // truncated mid-record
    std::istringstream is(good.substr(0, good.size() - 5),
                          std::ios::binary);
    EXPECT_THROW(read_mb_trace(is), support::Error);
  }
  {  // empty
    std::istringstream is(std::string{}, std::ios::binary);
    EXPECT_THROW(read_mb_trace(is), support::Error);
  }
}

std::string read_error(std::istream& is) {
  try {
    read_mb_trace(is);
  } catch (const support::Error& e) {
    return e.what();
  }
  return "no error";
}

std::string one_record_file(std::uint32_t total_ranks, std::uint32_t rank) {
  Trace t;
  Record r;
  r.rank = rank;
  r.t1 = 1.0;
  t.add(r);
  MbTraceMeta meta;
  meta.total_ranks = total_ranks;
  std::ostringstream os(std::ios::binary);
  write_mb_trace(os, t, meta);
  return os.str();
}

TEST(MbTrace, RejectsRanksOutOfBoundsNamingTheRecord) {
  {  // checked-in file: the header says 2 ranks, the record says 2^32 - 1
    std::ifstream in(std::string(MB_TRACE_FIXTURES) + "/rank_beyond_header.mbt",
                     std::ios::binary);
    ASSERT_TRUE(in.good());
    EXPECT_NE(read_error(in).find("record 0: rank 4294967295 is not below 2"),
              std::string::npos);
  }
  {
    std::istringstream is(one_record_file(4, 4), std::ios::binary);
    EXPECT_NE(read_error(is).find("record 0: rank 4 is not below 4"),
              std::string::npos);
  }
  {  // total_ranks 0 (unknown) bounds ranks by 2^24
    std::istringstream ok(one_record_file(0, (1u << 24) - 1),
                          std::ios::binary);
    EXPECT_EQ(read_mb_trace(ok).trace.records()[0].rank, (1u << 24) - 1);
    std::istringstream bad(one_record_file(0, 1u << 24), std::ios::binary);
    EXPECT_NE(read_error(bad).find("record 0: rank 16777216 is not below "
                                   "16777216"),
              std::string::npos);
  }
  {
    std::istringstream is(one_record_file((1u << 24) + 1, 0),
                          std::ios::binary);
    EXPECT_NE(read_error(is).find("implausible total_ranks 16777217"),
              std::string::npos);
  }
}

std::string fixture_error(const std::string& name) {
  std::ifstream in(std::string(MB_TRACE_FIXTURES) + "/" + name,
                   std::ios::binary);
  if (!in.good()) return "cannot open " + name;
  return read_error(in);
}

/// A file of the given label table and raw records, as MbTraceWriter
/// writes it whatever the records hold.
std::string raw_file(const std::vector<std::string>& labels,
                     const std::vector<MbTraceRecord>& records) {
  std::ostringstream os(std::ios::binary);
  MbTraceWriter writer(os, MbTraceMeta{}, labels, records.size());
  for (const MbTraceRecord& r : records) writer.append(r);
  writer.finish();
  return os.str();
}

TEST(MbTrace, RejectsTimesNoExportCanCarryNamingTheRecord) {
  // Checked-in files: record 0 is fine, record 1 is not.
  const std::pair<const char*, const char*> fixtures[] = {
      {"times_infinite.mbt", "record 1: timestamp is not finite"},
      {"times_negative.mbt", "record 1: timestamp is negative"},
      {"times_beyond_llround.mbt",
       "record 1: timestamp is not below 2^63 microseconds"},
  };
  for (const auto& [name, want] : fixtures)
    EXPECT_NE(fixture_error(name).find(std::string("read_mb_trace: ") + want),
              std::string::npos)
        << name << ": " << fixture_error(name);

  const MbTraceRecord fine{0, EventKind::kCompute, 0, 0, 0.0, 1.0};
  MbTraceRecord not_finite = fine;
  not_finite.t1 = std::nan("");
  MbTraceRecord backwards = fine;
  backwards.t0 = 2.0;
  for (const auto& [bad, want] :
       {std::pair{not_finite, "record 2: timestamp is not finite"},
        std::pair{backwards, "record 2: event ends before it starts"}}) {
    std::istringstream is(raw_file({"x"}, {fine, fine, bad}),
                          std::ios::binary);
    EXPECT_NE(read_error(is).find(want), std::string::npos) << want;
  }
}

/// A one-record file whose header carries `sampled` as written.
std::string sampled_file(std::uint32_t total_ranks,
                         std::vector<std::uint32_t> sampled) {
  MbTraceMeta meta;
  meta.total_ranks = total_ranks;
  meta.sampled_ranks = std::move(sampled);
  std::ostringstream os(std::ios::binary);
  MbTraceWriter writer(os, meta, {"x"}, 1);
  writer.append({0, EventKind::kCompute, 0, 0, 0.0, 1.0});
  writer.finish();
  return os.str();
}

TEST(MbTrace, SampledRanksAscendBelowTotalRanks) {
  // Checked-in file: total_ranks 2, sampled ranks [99, 5, 5].
  EXPECT_NE(fixture_error("sampled_ranks_unsorted.mbt")
                .find("read_mb_trace: sampled rank 0: rank 99 is not below 2"),
            std::string::npos)
      << fixture_error("sampled_ranks_unsorted.mbt");
  const std::pair<std::uint32_t, std::vector<std::uint32_t>> fine[] = {
      {4, {0, 2}}, {4, {0, 1, 2, 3}}, {0, {3, 99}}, {2, {}}};
  for (const auto& [total, ids] : fine) {
    std::istringstream is(sampled_file(total, ids), std::ios::binary);
    EXPECT_EQ(read_mb_trace(is).meta.sampled_ranks, ids);
  }
  const std::tuple<std::uint32_t, std::vector<std::uint32_t>, const char*>
      bad[] = {
          {4, {0, 4}, "sampled rank 1: rank 4 is not below 4"},
          {4, {2, 2}, "sampled rank 1: rank 2 does not follow rank 2"},
          {0, {7, 3}, "sampled rank 1: rank 3 does not follow rank 7"},
      };
  for (const auto& [total, ids, want] : bad) {
    std::istringstream is(sampled_file(total, ids), std::ios::binary);
    EXPECT_NE(read_error(is).find(want), std::string::npos) << want;
  }
}

TEST(MbTrace, HeaderCountsBeyondTheFileAreATruncatedFile) {
  // 40 bytes whose header declares 2^24 labels: the reader grows the
  // table as entries arrive, so the first missing entry is the error.
  // (The ctest mbctl_analyze_labels_beyond_file_ulimit runs this file
  // under an address-space limit the old up-front reserve broke.)
  EXPECT_NE(fixture_error("labels_beyond_file.mbt")
                .find("read_mb_trace: truncated file"),
            std::string::npos);
  // The same for a sampled-rank list of 2^24 entries: the header up to
  // its count (little-endian), and nothing after.
  const std::string sampled =
      raw_file({}, {}).substr(0, 32) + std::string("\x00\x00\x00\x01", 4);
  std::istringstream is(sampled, std::ios::binary);
  EXPECT_NE(read_error(is).find("read_mb_trace: truncated file"),
            std::string::npos);
}

TEST(MbTrace, RecordCountReservesNoMoreThanTheFileHolds) {
  const MbTraceRecord fine{0, EventKind::kCompute, 0, 0, 0.0, 1.0};
  const std::string exact = raw_file({"x"}, {fine, fine, fine});
  {  // sized once, to the count
    std::istringstream is(exact, std::ios::binary);
    const MbTraceFile file = read_mb_trace(is);
    EXPECT_EQ(file.trace.size(), 3u);
    EXPECT_EQ(file.trace.records().capacity(), 3u);
  }
  {  // bytes after the records do not raise the reservation
    std::istringstream is(exact + std::string(1000, '\0'), std::ios::binary);
    const MbTraceFile file = read_mb_trace(is);
    EXPECT_EQ(file.trace.records().capacity(), 3u);
  }
  // A count of 2^62 + 3 over the same three records: reserving it would
  // throw std::length_error, so the reader must reserve what the bytes
  // hold and then fail as truncated.
  std::string claims = exact;
  claims[claims.size() - 3 * kMbTraceRecordBytes - 1] = '\x40';
  {
    std::istringstream is(claims, std::ios::binary);
    EXPECT_NE(read_error(is).find("read_mb_trace: truncated file"),
              std::string::npos);
  }
  {  // a stream that cannot seek grows as records arrive
    PipeBuf pipe(claims);
    std::istream is(&pipe);
    EXPECT_NE(read_error(is).find("read_mb_trace: truncated file"),
              std::string::npos);
    PipeBuf whole(exact);
    std::istream in(&whole);
    EXPECT_EQ(read_mb_trace(in).trace.size(), 3u);
  }
}

TEST(MbTrace, BoundsItsLabelsNamingTheEntry) {
  const std::string longest(kMaxTraceLabelBytes, 'x');
  {
    std::istringstream is(raw_file({"a", longest}, {}), std::ios::binary);
    EXPECT_EQ(read_mb_trace(is).trace.size(), 0u);
  }
  {
    std::istringstream is(raw_file({"a", longest + "y"}, {}),
                          std::ios::binary);
    EXPECT_NE(read_error(is).find("read_mb_trace: label 1: label of 1025 "
                                  "bytes is longer than 1024"),
              std::string::npos);
  }
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < kMaxTraceLabels; ++i)
    labels.push_back("bound-" + std::to_string(i));
  {
    std::istringstream is(raw_file(labels, {}), std::ios::binary);
    EXPECT_EQ(read_mb_trace(is).trace.size(), 0u);
  }
  labels.push_back("one-too-many");
  std::istringstream is(raw_file(labels, {}), std::ios::binary);
  EXPECT_NE(read_error(is).find("read_mb_trace: label 65536: more than "
                                "65536 distinct labels in one file"),
            std::string::npos);
}

TEST(MbTrace, RecordCodecRoundTripsEveryField) {
  const MbTraceRecord r{0xDEADBEEF, EventKind::kWait, 0x01020304,
                        0xFFFFFFFFFFFFFFFF, -0.0, 1e300};
  std::ostringstream os(std::ios::binary);
  write_record(os, r);
  ASSERT_EQ(os.str().size(), kMbTraceRecordBytes);
  std::istringstream is(os.str(), std::ios::binary);
  const MbTraceRecord back = read_record(is);
  EXPECT_EQ(back.rank, r.rank);
  EXPECT_EQ(back.kind, r.kind);
  EXPECT_EQ(back.label_id, r.label_id);
  EXPECT_EQ(back.bytes, r.bytes);
  EXPECT_TRUE(std::signbit(back.t0));
  EXPECT_EQ(back.t1, r.t1);
}

TEST(MbTrace, LabelTableKeepsFirstInternOrder) {
  LabelTable table;
  EXPECT_EQ(table.intern("b"), 0u);
  EXPECT_EQ(table.intern("a"), 1u);
  EXPECT_EQ(table.intern("b"), 0u);
  EXPECT_EQ(table.intern(""), 2u);
  EXPECT_EQ(table.labels(), (std::vector<std::string>{"b", "a", ""}));
}

}  // namespace
}  // namespace mb::trace
