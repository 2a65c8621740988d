#include "trace/trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "pipe_buf.h"
#include "support/check.h"

namespace mb::trace {
namespace {

Record rec(std::uint32_t rank, double t0, double t1, EventKind kind,
           std::string label) {
  Record r;
  r.rank = rank;
  r.t0 = t0;
  r.t1 = t1;
  r.kind = kind;
  r.label = std::move(label);
  return r;
}

TEST(Trace, FilterByKindAndLabel) {
  Trace t;
  t.add(rec(0, 0, 1, EventKind::kCompute, "a"));
  t.add(rec(0, 1, 2, EventKind::kCollective, "alltoallv"));
  t.add(rec(1, 1, 3, EventKind::kCollective, "bcast"));
  EXPECT_EQ(t.filter(EventKind::kCollective).size(), 2u);
  EXPECT_EQ(t.filter(EventKind::kCollective, "bcast").size(), 1u);
  EXPECT_EQ(t.filter(EventKind::kSend).size(), 0u);
}

TEST(Trace, RanksAndEndTime) {
  Trace t;
  t.add(rec(3, 0, 5, EventKind::kCompute, "x"));
  t.add(rec(1, 2, 7, EventKind::kCompute, "x"));
  EXPECT_EQ(t.ranks(), 4u);
  EXPECT_DOUBLE_EQ(t.end_time(), 7.0);
}

TEST(Trace, RejectsNegativeDuration) {
  Trace t;
  EXPECT_THROW(t.add(rec(0, 2, 1, EventKind::kCompute, "x")),
               support::Error);
}

TEST(Trace, RejectsTimesNoExportCanCarry) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<double, double> bad[] = {
      {-inf, inf}, {0.0, inf}, {std::nan(""), 1.0}, {0.0, std::nan("")},
      {-5.0, -4.0}, {-1e-9, 1.0}, {0.0, 1e13}, {1e13, 1e13}};
  for (const auto& [t0, t1] : bad) {
    EXPECT_FALSE(interval_error(t0, t1).empty()) << t0 << ", " << t1;
    Trace t;
    EXPECT_THROW(t.add(rec(0, t0, t1, EventKind::kCompute, "x")),
                 support::Error)
        << t0 << ", " << t1;
  }
  // The edges that stay: zero, and the last microsecond count below 2^63
  // that llround rounds without overflow.
  EXPECT_TRUE(interval_error(0.0, 0.0).empty());
  EXPECT_TRUE(interval_error(-0.0, 0.0).empty());
  EXPECT_TRUE(interval_error(0.0, 9.2e12).empty());
  EXPECT_EQ(interval_error(-5.0, -4.0), "timestamp is negative");
  EXPECT_EQ(interval_error(2.0, 1.0), "event ends before it starts");
}

TEST(TraceRecord, HandWrittenOrderFillsEveryFieldAndSharesTheLabel) {
  // trace.h pins the 40-byte layout; the {rank, t0, t1, kind, label,
  // bytes} order of hand-written traces must still land in each field.
  const Record r{3, 0.25, 0.5, EventKind::kSend, "halo", 64};
  EXPECT_EQ(r.rank, 3u);
  EXPECT_EQ(r.t0, 0.25);
  EXPECT_EQ(r.t1, 0.5);
  EXPECT_EQ(r.kind, EventKind::kSend);
  EXPECT_EQ(r.label, "halo");
  EXPECT_EQ(r.bytes, 64u);
  const Record other{0, 0.0, 1.0, EventKind::kCompute, std::string("halo"), 0};
  EXPECT_EQ(&r.label.str(), &other.label.str());
}

TEST(Trace, ParaverExportFormat) {
  Trace t;
  t.add(rec(2, 0.5e-6, 1.5e-6, EventKind::kCollective, "alltoallv"));
  std::ostringstream os;
  t.write_paraver(os);
  // Microsecond timestamps are rounded, not truncated: 0.5 us -> 1 us,
  // 1.5 us -> 2 us (so a parsed dump re-exports byte-identically).
  EXPECT_NE(os.str().find("2:collective:alltoallv:1:2:0"),
            std::string::npos);
}

TEST(Trace, ParaverRoundTripIsFixpoint) {
  Trace t;
  t.add(rec(0, 0.0, 1.25e-3, EventKind::kCompute, "compute"));
  t.add(rec(1, 0.4999e-6, 2.5001e-6, EventKind::kCollective, "alltoallv"));
  t.add(rec(2, 3.0, 4.0, EventKind::kSend, "halo"));
  std::ostringstream first;
  t.write_paraver(first);

  const Trace parsed = parse_paraver(first.str());
  ASSERT_EQ(parsed.size(), t.size());
  std::ostringstream second;
  parsed.write_paraver(second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(Trace, ParaverCarriesProvenanceAndStaysFixpoint) {
  Trace t;
  t.add(rec(0, 0.0, 1.25e-3, EventKind::kCompute, "compute"));
  t.set_provenance("1.0.0", 2013);
  std::ostringstream first;
  t.write_paraver(first);
  EXPECT_NE(first.str().find("#provenance tool_version=1.0.0 seed=2013"),
            std::string::npos);

  const Trace parsed = parse_paraver(first.str());
  ASSERT_TRUE(parsed.has_provenance());
  EXPECT_EQ(parsed.tool_version(), "1.0.0");
  EXPECT_EQ(parsed.seed(), 2013u);
  std::ostringstream second;
  parsed.write_paraver(second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(Trace, ParaverWithoutProvenanceStaysFixpoint) {
  // Dumps from before provenance stamping parse (the line is absent, not
  // defaulted) and re-export byte-identically.
  const std::string dump =
      "#Paraver-like state records (rank:kind:label:t0_us:t1_us:bytes)\n"
      "0:compute:x:0:7:0\n";
  const Trace parsed = parse_paraver(dump);
  EXPECT_FALSE(parsed.has_provenance());
  std::ostringstream out;
  parsed.write_paraver(out);
  EXPECT_EQ(out.str(), dump);
}

TEST(Trace, ParseParaverReadsFieldsBack) {
  const Trace t = parse_paraver(
      "# comment line\n"
      "\n"
      "3:send:halo:10:25:4096\n");
  ASSERT_EQ(t.size(), 1u);
  const Record& r = t.records()[0];
  EXPECT_EQ(r.rank, 3u);
  EXPECT_EQ(r.kind, EventKind::kSend);
  EXPECT_EQ(r.label, "halo");
  EXPECT_DOUBLE_EQ(r.t0, 10e-6);
  EXPECT_DOUBLE_EQ(r.t1, 25e-6);
  EXPECT_EQ(r.bytes, 4096u);
}

TEST(Trace, ParseParaverSizesItsTraceOnceWhenTheStreamSeeks) {
  // Past the 64 KiB the line count reads at a time: a record line starts
  // exactly at 64 KiB and another spans 128 KiB, between comments, empty
  // lines and a last line without its newline.
  std::string dump = "#Paraver-like state records\n\n";
  std::size_t records = 0;
  const auto add_until = [&](std::size_t size) {
    while (dump.size() < size) {
      const std::size_t i = records++;
      dump += std::to_string(i % 7) + ":compute:phase" +
              std::to_string(i % 5) + ":" + std::to_string(i) + ":" +
              std::to_string(i + 3) + ":0\n";
      if (records % 1000 == 0) dump += "\n# a comment\n";
    }
  };
  const auto comment_until = [&](std::size_t size) {
    dump += "#" + std::string(size - dump.size() - 2, 'p') + "\n";
  };
  add_until(65536 - 64);
  comment_until(65536);
  add_until(131072 - 64);
  comment_until(131072 - 5);
  add_until(150000);
  dump += "1:send:last:5:9:64";
  ++records;

  std::istringstream seekable(dump);
  const Trace sized = parse_paraver(seekable);
  ASSERT_EQ(sized.size(), records);
  EXPECT_EQ(sized.records().capacity(), records);

  PipeBuf pipe(dump);
  std::istream unseekable(&pipe);
  const Trace grown = parse_paraver(unseekable);
  ASSERT_EQ(grown.size(), records);
  std::ostringstream a;
  std::ostringstream b;
  sized.write_paraver(a);
  grown.write_paraver(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(grown.records().back().label, "last");
}

TEST(Trace, ParseParaverAllowsColonInLabel) {
  const Trace t = parse_paraver("0:compute:phase:outer:loop:0:7:0\n");
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.records()[0].label, "phase:outer:loop");
  EXPECT_EQ(t.records()[0].kind, EventKind::kCompute);
}

TEST(Trace, ParaverRefusesLabelsWithLineBreaks) {
  // A label read from a hostile mb-trace file may hold a line break; the
  // dump would split that record into lines parse_paraver() rejects.
  for (const char* label : {"bad\nlabel", "bad\rlabel", "trailing\n"}) {
    Trace t;
    t.add(rec(0, 0.0, 1.0, EventKind::kCompute, "fine"));
    t.add(rec(3, 1.0, 2.0, EventKind::kCompute, label));
    std::ostringstream os;
    try {
      t.write_paraver(os);
      ADD_FAILURE() << "label with a line break was written";
    } catch (const support::Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("record 1 (rank 3)"), std::string::npos) << what;
      EXPECT_NE(what.find("line break"), std::string::npos) << what;
    }
    EXPECT_TRUE(os.str().empty());  // nothing half-written
  }
}

TEST(Trace, ParseParaverErrorsNameTheLine) {
  const auto message = [](const std::string& dump) {
    try {
      parse_paraver(dump);
    } catch (const support::Error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::string header = "# header\n0:compute:x:0:1:0\n";
  EXPECT_NE(message(header + "0:compute:x:1a:2:0\n")
                .find("line 3: non-numeric field '1a'"),
            std::string::npos);
  EXPECT_NE(message(header + "0:compute:x::2:0\n")
                .find("line 3: empty numeric field"),
            std::string::npos);
  EXPECT_NE(message(header + "0:compute:x:5:2:0\n")
                .find("line 3: event ends before it starts"),
            std::string::npos);
  EXPECT_NE(message(header + "0:compute:x:5\n").find("line 3: too few fields"),
            std::string::npos);
}

TEST(Trace, ParseParaverRejectsMalformedLines) {
  EXPECT_THROW(parse_paraver("not a record\n"), support::Error);
  EXPECT_THROW(parse_paraver("0:compute:x:1\n"), support::Error);       // too few
  EXPECT_THROW(parse_paraver("0:warp:x:0:1:0\n"), support::Error);      // bad kind
  EXPECT_THROW(parse_paraver("0:compute:x:5:1:0\n"), support::Error);   // t1 < t0
  EXPECT_THROW(parse_paraver("0:compute:x:a:1:0\n"), support::Error);   // non-digit
  EXPECT_THROW(parse_paraver("-1:compute:x:0:1:0\n"), support::Error);  // sign
}

// Checked-in two-line dumps whose rank or bytes field used to crash,
// hang or silently wrap in the readers' consumers.
TEST(Trace, ParseParaverRejectsHostileNumbersNamingTheLine) {
  const std::pair<const char*, const char*> cases[] = {
      {"rank_u32_max.prv", "line 2: rank 4294967295 is not below 2^24"},
      {"rank_u32_max_collective.prv",
       "line 2: rank 4294967295 is not below 2^24"},
      {"rank_below_u32_max.prv", "line 2: rank 4294967294 is not below 2^24"},
      {"rank_wraps_u32.prv", "line 2: rank 4294967297 is not below 2^24"},
      {"bytes_overflow_u64.prv",
       "line 2: numeric field '18446744073709551617' overflows 64 bits"},
  };
  for (const auto& [file, want] : cases) {
    std::ifstream in(std::string(MB_TRACE_FIXTURES) + "/" + file);
    ASSERT_TRUE(in.good()) << file;
    try {
      parse_paraver(in);
      ADD_FAILURE() << file << " parsed";
    } catch (const support::Error& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << file << ": " << e.what();
    }
  }
  // A microsecond count of 2^63 or more has no llround result to write
  // back, so it is rejected although it fits 64 bits.
  try {
    parse_paraver("#\n0:compute:x:0:18446744073705551616:0\n");
    ADD_FAILURE() << "a time of 2^64 - 4e6 us parsed";
  } catch (const support::Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "line 2: timestamp is not below 2^63 microseconds"),
              std::string::npos)
        << e.what();
  }
  // The bounds themselves: the largest rank and the largest u64 parse.
  const Trace t =
      parse_paraver("16777215:send:x:0:1:18446744073709551615\n");
  EXPECT_EQ(t.records()[0].rank, 16777215u);
  EXPECT_EQ(t.records()[0].bytes, 18446744073709551615u);
  EXPECT_THROW(parse_paraver("16777216:send:x:0:1:0\n"), support::Error);
}

/// The error parse_paraver() or read_mb_trace() throws, or "no error".
template <typename Read>
std::string error_of(Read read) {
  try {
    read();
  } catch (const support::Error& e) {
    return e.what();
  }
  return "no error";
}

TEST(Trace, ParseParaverBoundsItsLabelsNamingTheLine) {
  const std::string longest(kMaxTraceLabelBytes, 'x');
  EXPECT_EQ(parse_paraver("0:compute:" + longest + ":0:1:0\n")
                .records()[0]
                .label,
            longest);
  EXPECT_NE(error_of([&] {
              parse_paraver("0:compute:x:0:1:0\n0:compute:" + longest +
                            "y:0:1:0\n");
            }).find("parse_paraver: line 2: label of 1025 bytes is longer "
                    "than 1024"),
            std::string::npos);

  // kMaxTraceLabels distinct labels parse, however often each repeats;
  // one more is an error naming its line.
  std::string dump = "#\n";
  for (std::size_t i = 0; i < kMaxTraceLabels; ++i)
    dump += "0:compute:bound-" + std::to_string(i) + ":0:1:0\n";
  dump += "1:compute:bound-0:0:1:0\n";
  EXPECT_EQ(parse_paraver(dump).size(), kMaxTraceLabels + 1);
  dump += "1:compute:one-too-many:0:1:0\n";
  EXPECT_NE(error_of([&] { parse_paraver(dump); })
                .find("parse_paraver: line 65539: more than 65536 distinct "
                      "labels in one file"),
            std::string::npos);
}

TEST(Trace, ParseEventKindInvertsNames) {
  for (const EventKind k :
       {EventKind::kCompute, EventKind::kSend, EventKind::kRecv,
        EventKind::kCollective, EventKind::kWait})
    EXPECT_EQ(parse_event_kind(event_kind_name(k)), k);
  EXPECT_THROW(parse_event_kind("warp"), support::Error);
}

TEST(AnalyzeCollectives, AllNormalWhenUniform) {
  Trace t;
  for (std::uint32_t rank = 0; rank < 4; ++rank)
    for (int i = 0; i < 10; ++i)
      t.add(rec(rank, i, i + 0.1, EventKind::kCollective, "alltoallv"));
  const auto report = analyze_collectives(t, "alltoallv");
  EXPECT_EQ(report.instances.size(), 10u);
  EXPECT_EQ(report.delayed_count, 0u);
  EXPECT_NEAR(report.median_duration, 0.1, 1e-12);
}

TEST(AnalyzeCollectives, DetectsDelayedInstance) {
  Trace t;
  for (std::uint32_t rank = 0; rank < 4; ++rank) {
    for (int i = 0; i < 10; ++i) {
      const double dur = (i == 7) ? 1.0 : 0.1;  // instance 7 is delayed
      t.add(rec(rank, i * 2.0, i * 2.0 + dur, EventKind::kCollective,
                "alltoallv"));
    }
  }
  const auto report = analyze_collectives(t, "alltoallv");
  EXPECT_EQ(report.delayed_count, 1u);
  EXPECT_TRUE(report.instances[7].delayed);
  EXPECT_EQ(report.instances[7].slow_ranks, 4u);
  EXPECT_FALSE(report.has_partial_delays);
}

TEST(AnalyzeCollectives, DetectsPartialDelays) {
  // Only rank 2 is slow in instance 3: "in some cases all the nodes are
  // delayed while in other, only part of them" (paper Sec. IV).
  Trace t;
  for (std::uint32_t rank = 0; rank < 4; ++rank) {
    for (int i = 0; i < 8; ++i) {
      const double dur = (i == 3 && rank == 2) ? 1.0 : 0.1;
      t.add(rec(rank, i * 2.0, i * 2.0 + dur, EventKind::kCollective,
                "alltoallv"));
    }
  }
  const auto report = analyze_collectives(t, "alltoallv");
  EXPECT_EQ(report.delayed_count, 1u);
  EXPECT_EQ(report.instances[3].slow_ranks, 1u);
  EXPECT_TRUE(report.has_partial_delays);
}

TEST(AnalyzeCollectives, EmptyTraceYieldsEmptyReport) {
  Trace t;
  const auto report = analyze_collectives(t, "alltoallv");
  EXPECT_TRUE(report.instances.empty());
  EXPECT_EQ(report.delayed_count, 0u);
}

TEST(AnalyzeCollectives, RejectsBadFactor) {
  Trace t;
  EXPECT_THROW(analyze_collectives(t, "x", 0.5), support::Error);
}

TEST(EventKindNames, AllDistinct) {
  EXPECT_EQ(event_kind_name(EventKind::kCompute), "compute");
  EXPECT_EQ(event_kind_name(EventKind::kCollective), "collective");
  EXPECT_EQ(event_kind_name(EventKind::kWait), "wait");
}

}  // namespace
}  // namespace mb::trace
