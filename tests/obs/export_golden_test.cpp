// Byte-exact goldens for the two text exporters. The checked-in files in
// tests/obs/golden/ pin the Chrome JSON and Paraver output of a small
// fixed trace, so a change to number formatting, string escaping or record
// layout shows up as a diff against the files rather than only as a
// disagreement between two fresh exports.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "obs/chrome_trace.h"
#include "trace/trace.h"

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

/// Eight ranks, two collective labels (alltoallv instance 4 is delayed on
/// ranks 2 and 3 only), one fault mark, one label that needs JSON escaping
/// and one empty label. Timestamps are not round microseconds, so most of
/// them need the full 17 significant digits in JSON.
trace::Trace golden_trace() {
  using trace::EventKind;
  trace::Trace t;
  t.set_provenance("0.0.0-golden", 2013);
  for (std::uint32_t rank = 0; rank < 8; ++rank) {
    const double skew = rank * 3.3e-6;
    t.add(rec(rank, skew, skew + 0.0123 + rank * 1e-5 / 3,
              EventKind::kCompute, "compute"));
    for (int i = 0; i < 6; ++i) {
      const double t0 = 0.05 * (i + 1) + rank * 1.1e-7;
      const bool slow = i == 4 && (rank == 2 || rank == 3);
      const double dur = (slow ? 10.0 : 1.0) * 1e-3 / 7;
      t.add(rec(rank, t0, t0 + dur, EventKind::kCollective, "alltoallv",
                4096u * (rank + 1)));
    }
    for (int i = 0; i < 4; ++i) {
      const double t0 = 0.4 + 0.01 * i + rank / 3e6;
      t.add(rec(rank, t0, t0 + 2e-4 / 3, EventKind::kCollective,
                "allreduce", 8));
    }
    if (rank % 2 == 0)
      t.add(rec(rank, 0.45 + rank * 1e-6, 0.45 + rank * 1e-6 + 1 / 3e5,
                EventKind::kSend, "halo \"ghost\"\\zone\t#1", 512));
  }
  t.add(rec(7, 0.46, 0.46 + 1e-4 / 9, EventKind::kRecv, "", 512));
  t.add(rec(5, 0.31, 0.31, EventKind::kFault, "slowdown node=2 factor=4"));
  return t;
}

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(MB_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << name;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(ExportGolden, ChromeMatchesCheckedInFile) {
  std::ostringstream os;
  write_chrome_trace(os, golden_trace());
  EXPECT_EQ(os.str(), read_golden("export_trace.json"));
}

TEST(ExportGolden, ParaverMatchesCheckedInFile) {
  std::ostringstream os;
  golden_trace().write_paraver(os);
  EXPECT_EQ(os.str(), read_golden("export_trace.prv"));
}

TEST(ExportGolden, ParaverGoldenIsParseWriteFixpoint) {
  const std::string golden = read_golden("export_trace.prv");
  std::ostringstream os;
  trace::parse_paraver(golden).write_paraver(os);
  EXPECT_EQ(os.str(), golden);
}

}  // namespace
}  // namespace mb::obs
