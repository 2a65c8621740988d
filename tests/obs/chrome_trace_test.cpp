#include "obs/chrome_trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <set>
#include <sstream>
#include <streambuf>

#include "obs/profiler.h"
#include "support/json.h"

namespace mb::obs {
namespace {

trace::Record rec(std::uint32_t rank, double t0, double t1,
                  trace::EventKind kind, std::string label,
                  std::uint64_t bytes = 0) {
  trace::Record r;
  r.rank = rank;
  r.t0 = t0;
  r.t1 = t1;
  r.kind = kind;
  r.label = std::move(label);
  r.bytes = bytes;
  return r;
}

/// Two ranks, four alltoallv instances (the last one 10x slow on both
/// ranks), plus compute and a p2p send carrying bytes.
trace::Trace sample_trace() {
  trace::Trace t;
  for (std::uint32_t rank = 0; rank < 2; ++rank) {
    t.add(rec(rank, 0.0, 1.0, trace::EventKind::kCompute, "compute"));
    for (int i = 0; i < 4; ++i) {
      const double t0 = 1.0 + i * 2.0;
      const double dur = (i == 3) ? 1.0 : 0.1;
      t.add(rec(rank, t0, t0 + dur, trace::EventKind::kCollective,
                "alltoallv", 4096));
    }
  }
  t.add(rec(0, 9.0, 9.5, trace::EventKind::kSend, "halo", 256));
  return t;
}

support::JsonValue export_and_parse(const trace::Trace& t,
                                    const ChromeTraceOptions& opt = {}) {
  std::ostringstream os;
  write_chrome_trace(os, t, opt);
  return support::parse_json(os.str());
}

TEST(ChromeTrace, DocumentParsesAndHasEventArray) {
  const auto doc = export_and_parse(sample_trace());
  ASSERT_TRUE(doc.is_object());
  const auto& events = doc.at("traceEvents").as_array();
  EXPECT_GT(events.size(), 0u);
  EXPECT_EQ(doc.at("otherData").at("tool").as_string(), "montblanc");
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
}

TEST(ChromeTrace, OneNamedTrackPerRank) {
  const auto doc = export_and_parse(sample_trace());
  std::set<double> named_tids;
  std::set<double> event_tids;
  for (const auto& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() == "M") {
      if (e.at("name").as_string() == "thread_name")
        named_tids.insert(e.at("tid").as_number());
      continue;
    }
    event_tids.insert(e.at("tid").as_number());
  }
  EXPECT_EQ(named_tids.size(), 2u);  // ranks 0 and 1
  // Every track that carries events has a rank name.
  for (const double tid : event_tids) EXPECT_TRUE(named_tids.count(tid));
}

TEST(ChromeTrace, CompleteEventsUseMicrosecondTimestamps) {
  const auto doc = export_and_parse(sample_trace());
  bool found_compute = false;
  for (const auto& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "X") continue;
    if (e.at("name").as_string() != "compute") continue;
    found_compute = true;
    EXPECT_DOUBLE_EQ(e.at("ts").as_number(), 0.0);
    EXPECT_DOUBLE_EQ(e.at("dur").as_number(), 1e6);  // 1 s
    EXPECT_EQ(e.at("cat").as_string(), "compute");
  }
  EXPECT_TRUE(found_compute);
}

TEST(ChromeTrace, DelayedCollectivesAreFlagged) {
  const auto doc = export_and_parse(sample_trace());
  std::size_t delayed = 0;
  std::size_t normal = 0;
  for (const auto& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "X") continue;
    if (e.at("cat").as_string() != "collective") continue;
    const auto& args = e.at("args");
    EXPECT_EQ(args.at("bytes").as_number(), 4096.0);
    if (args.at("delayed").as_bool()) {
      ++delayed;
      EXPECT_DOUBLE_EQ(args.at("instance").as_number(), 3.0);
      EXPECT_TRUE(args.at("rank_slow").as_bool());
      EXPECT_EQ(e.at("cname").as_string(), "terrible");
    } else {
      ++normal;
    }
  }
  EXPECT_EQ(delayed, 2u);  // instance 3 on both ranks
  EXPECT_EQ(normal, 6u);
}

TEST(ChromeTrace, ProfilerSpansGetTheirOwnProcessTrack) {
  Profiler p;
  double t = 0.0;
  p.set_clock([&t] { return t; });
  p.set_enabled(true);
  p.enter("run");
  p.enter("inner");
  t = 1.0;
  p.exit();
  t = 1.5;
  p.exit();

  ChromeTraceOptions opt;
  opt.spans = &p.root();
  const auto doc = export_and_parse(sample_trace(), opt);

  bool saw_profiler_process = false;
  bool saw_run = false;
  bool saw_inner = false;
  for (const auto& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() == "M" &&
        e.at("name").as_string() == "process_name" &&
        e.at("args").at("name").as_string() == "profiler (aggregated)")
      saw_profiler_process = true;
    if (e.at("ph").as_string() != "X" || e.at("pid").as_number() != 1.0)
      continue;
    if (e.at("name").as_string() == "run") {
      saw_run = true;
      EXPECT_DOUBLE_EQ(e.at("dur").as_number(), 1.5e6);
    }
    if (e.at("name").as_string() == "inner") {
      saw_inner = true;
      // Sequential layout: the child starts where its parent starts.
      EXPECT_DOUBLE_EQ(e.at("ts").as_number(), 0.0);
      EXPECT_DOUBLE_EQ(e.at("dur").as_number(), 1e6);
    }
  }
  EXPECT_TRUE(saw_profiler_process);
  EXPECT_TRUE(saw_run);
  EXPECT_TRUE(saw_inner);
}

TEST(ChromeTrace, EmptyTraceStillValid) {
  const auto doc = export_and_parse(trace::Trace{});
  // Only the cluster process_name metadata; still a well-formed document.
  EXPECT_EQ(doc.at("traceEvents").as_array().size(), 1u);
}

/// Counts what a stream writes without keeping it: the total and the
/// largest single write handed to the buffer.
class CountingBuf : public std::streambuf {
 public:
  std::size_t total = 0;
  std::size_t largest = 0;

 protected:
  std::streamsize xsputn(const char* /*s*/, std::streamsize n) override {
    note(static_cast<std::size_t>(n));
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) note(1);
    return traits_type::not_eof(c);
  }

 private:
  void note(std::size_t n) {
    total += n;
    largest = std::max(largest, n);
  }
};

TEST(ChromeTrace, StreamsInBoundedWrites) {
  // 256 ranks x 401 records: compute, a send and a collective per step,
  // with every 50th alltoallv slow so delayed instances carry args too.
  trace::Trace t;
  constexpr std::uint32_t kRanks = 256;
  for (std::uint32_t rank = 0; rank < kRanks; ++rank) {
    double clock = rank * 1e-6;
    for (int step = 0; step < 134; ++step) {
      t.add(rec(rank, clock, clock + 1e-3, trace::EventKind::kCompute,
                "compute"));
      clock += 1e-3;
      t.add(rec(rank, clock, clock + 2e-6, trace::EventKind::kSend, "halo",
                4096));
      clock += 2e-6;
      if (step == 133) break;
      const double dur = step % 50 == 49 ? 5e-3 : 1e-4;
      t.add(rec(rank, clock, clock + dur, trace::EventKind::kCollective,
                "alltoallv", 1 << 20));
      clock += dur;
    }
  }
  ASSERT_GE(t.size(), 100'000u);

  CountingBuf buf;
  std::ostream os(&buf);
  write_chrome_trace(os, t);
  ASSERT_TRUE(os.good());
  EXPECT_GT(buf.total, std::size_t{16} << 20);
  // The document is never handed over whole: no single write reaches
  // 1 MiB, whatever the trace's size.
  EXPECT_LT(buf.largest, std::size_t{1} << 20);
}

}  // namespace
}  // namespace mb::obs
