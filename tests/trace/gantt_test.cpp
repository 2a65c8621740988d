#include "trace/gantt.h"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "support/check.h"

namespace mb::trace {
namespace {

Record rec(std::uint32_t rank, double t0, double t1, EventKind kind,
           std::string label = {}) {
  Record r;
  r.rank = rank;
  r.t0 = t0;
  r.t1 = t1;
  r.kind = kind;
  r.label = std::move(label);
  return r;
}

TEST(Gantt, RendersOneRowPerRank) {
  Trace t;
  t.add(rec(0, 0, 1, EventKind::kCompute));
  t.add(rec(1, 0, 1, EventKind::kCompute));
  const std::string g = render_gantt(t, GanttOptions{});
  EXPECT_NE(g.find(" 0 |"), std::string::npos);
  EXPECT_NE(g.find(" 1 |"), std::string::npos);
  EXPECT_EQ(g.find(" 2 |"), std::string::npos);
}

TEST(Gantt, ComputeFillsTheRow) {
  Trace t;
  t.add(rec(0, 0, 1, EventKind::kCompute));
  GanttOptions opt;
  opt.width = 20;
  const std::string g = render_gantt(t, opt);
  EXPECT_NE(g.find("####################"), std::string::npos);
}

TEST(Gantt, DelayedCollectiveGetsCapitalA) {
  Trace t;
  // Nine fast collectives and one 10x outlier.
  for (int i = 0; i < 9; ++i)
    t.add(rec(0, i, i + 0.1, EventKind::kCollective, "a2a"));
  t.add(rec(0, 9, 10.5, EventKind::kCollective, "a2a"));
  GanttOptions opt;
  opt.width = 40;
  const std::string g = render_gantt(t, opt);
  EXPECT_NE(g.find('A'), std::string::npos);
  EXPECT_NE(g.find('a'), std::string::npos);
}

/// The rank rows of a rendering, without the legend and footers.
std::vector<std::string> rows(const std::string& gantt) {
  std::vector<std::string> out;
  std::istringstream lines(gantt);
  std::string line;
  while (std::getline(lines, line))
    if (line.find(" |") != std::string::npos)
      out.push_back(line.substr(line.find('|')));
  return out;
}

TEST(Gantt, EachLabelIsJudgedAgainstItsOwnMedian) {
  // Many short allreduces and a few long alltoallvs, each label uniform:
  // the Fig. 4 classifier delays nothing, so no row may show 'A'.
  Trace t;
  for (std::uint32_t rank = 0; rank < 2; ++rank) {
    for (int i = 0; i < 20; ++i)
      t.add(rec(rank, i, i + 0.05, EventKind::kCollective, "allreduce"));
    for (int i = 0; i < 5; ++i)
      t.add(rec(rank, 20 + 2 * i, 20 + 2 * i + 0.5, EventKind::kCollective,
                "alltoallv"));
  }
  GanttOptions opt;
  opt.width = 60;
  for (const std::string& row : rows(render_gantt(t, opt))) {
    EXPECT_EQ(row.find('A'), std::string::npos) << row;
    EXPECT_NE(row.find('a'), std::string::npos) << row;
  }
}

TEST(Gantt, EveryRankOfADelayedInstanceGetsCapitalA) {
  // Instance 3 is delayed: ranks 0 and 1 wait a full second for rank 2,
  // whose own record is as short as a normal instance. The whole
  // instance is marked, the late rank included.
  Trace t;
  for (std::uint32_t rank = 0; rank < 3; ++rank) {
    for (int i = 0; i < 6; ++i) {
      const double base = 2.0 * i;
      const double enter = (i == 3 && rank == 2) ? base + 0.9 : base;
      const double leave = i == 3 ? base + 1.0 : base + 0.1;
      t.add(rec(rank, enter, leave, EventKind::kCollective, "a2a"));
    }
  }
  GanttOptions opt;
  opt.width = 101;
  const std::vector<std::string> shown = rows(render_gantt(t, opt));
  ASSERT_EQ(shown.size(), 3u);
  for (const std::string& row : shown) {
    EXPECT_NE(row.find('A'), std::string::npos) << row;
    EXPECT_NE(row.find('a'), std::string::npos) << row;  // the others
  }
}

TEST(Gantt, WindowClipsEvents) {
  Trace t;
  t.add(rec(0, 0, 1, EventKind::kCompute));
  t.add(rec(0, 5, 6, EventKind::kSend));
  GanttOptions opt;
  opt.width = 10;
  opt.t1 = 2.0;  // the send is outside the window
  const std::string g = render_gantt(t, opt);
  // The rank rows (lines with a '|') must show compute but not the send;
  // the clip must be announced in the footer instead of silent.
  std::istringstream lines(g);
  std::string line;
  bool saw_compute = false;
  while (std::getline(lines, line)) {
    if (line.find('|') == std::string::npos) continue;  // legend / footer
    EXPECT_EQ(line.find('s'), std::string::npos) << line;
    if (line.find('#') != std::string::npos) saw_compute = true;
  }
  EXPECT_TRUE(saw_compute);
  EXPECT_NE(g.find("1 events outside window"), std::string::npos);
}

TEST(Gantt, MaxRanksCut) {
  Trace t;
  for (std::uint32_t r = 0; r < 20; ++r)
    t.add(rec(r, 0, 1, EventKind::kCompute));
  GanttOptions opt;
  opt.max_ranks = 4;
  const std::string g = render_gantt(t, opt);
  EXPECT_NE(g.find("16 ranks not shown"), std::string::npos);
}

TEST(Gantt, NoFooterWhenNothingTruncated) {
  Trace t;
  t.add(rec(0, 0, 1, EventKind::kCompute));
  t.add(rec(1, 0, 1, EventKind::kSend));
  const std::string g = render_gantt(t, GanttOptions{});
  EXPECT_EQ(g.find("not shown"), std::string::npos);
  EXPECT_EQ(g.find("outside window"), std::string::npos);
}

TEST(Gantt, EmptyTraceHandled) {
  Trace t;
  EXPECT_EQ(render_gantt(t, GanttOptions{}), "(empty trace)\n");
}

TEST(Gantt, TooNarrowRejected) {
  Trace t;
  t.add(rec(0, 0, 1, EventKind::kCompute));
  GanttOptions opt;
  opt.width = 4;
  EXPECT_THROW(render_gantt(t, opt), support::Error);
}

}  // namespace
}  // namespace mb::trace
