// Digests of the timeline analysis and the Chrome document over seeded
// multi-label traces. The digests were recorded from the exporters as
// they stood before the collective-instance index replaced their
// per-label grouping, so any change to the bytes either writes shows up
// here, not only the changes the two small golden files cover.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "obs/analysis.h"
#include "obs/chrome_trace.h"
#include "support/hash.h"
#include "support/rng.h"
#include "trace/trace.h"

namespace mb::obs {
namespace {

/// 2-4 collective labels over 2-24 ranks, every rank entering each
/// instance with its own skew, a few instances delayed on some or all
/// ranks, ranks with fewer instances than their peers, and compute, p2p,
/// wait and fault records in between.
trace::Trace seeded_trace(std::uint64_t seed) {
  using trace::EventKind;
  support::Rng rng(seed);
  const std::vector<std::string> pool = {"alltoallv", "allreduce", "bcast",
                                         "energy_allreduce"};
  const std::size_t labels = 2 + rng.index(3);
  const auto ranks = static_cast<std::uint32_t>(2 + rng.index(23));
  const std::size_t instances = 3 + rng.index(8);
  trace::Trace t;
  t.set_provenance("0.0.0-digest", seed);
  for (std::uint32_t rank = 0; rank < ranks; ++rank) {
    const std::size_t skip = rng.bernoulli(0.2) ? 1 + rng.index(2) : 0;
    double clock = rng.uniform(0.0, 1e-3);
    for (std::size_t i = 0; i + skip < instances; ++i) {
      const double work = rng.uniform(1e-3, 4e-3);
      t.add({rank, clock, clock + work, EventKind::kCompute, "compute", 0});
      clock += work;
      if (rng.bernoulli(0.3)) {
        const double d = rng.uniform(1e-5, 1e-4);
        t.add({rank, clock, clock + d,
               rng.bernoulli(0.5) ? EventKind::kSend : EventKind::kRecv,
               "halo", 4096});
        clock += d;
      }
      for (std::size_t l = 0; l < labels; ++l) {
        const double enter = clock + rng.uniform(0.0, 2e-4);
        double dur =
            1e-3 * static_cast<double>(l + 1) * rng.uniform(0.95, 1.05);
        if (i % 4 == 2 && (l == 0 || rank % 3 == 0)) dur *= 4.0;
        t.add({rank, enter, enter + dur, EventKind::kCollective, pool[l],
               1024u * (l + 1)});
        clock = enter + dur;
        if (rng.bernoulli(0.1)) {
          t.add({rank, clock, clock + 1e-4, EventKind::kWait, "wait", 0});
          clock += 1e-4;
        }
      }
    }
    if (rank == ranks / 2)
      t.add({rank, clock / 2, clock / 2, EventKind::kFault,
             "slowdown node=1 factor=3", 0});
  }
  return t;
}

std::string chrome_document(const trace::Trace& t, double factor) {
  ChromeTraceOptions options;
  options.delay_factor = factor;
  std::ostringstream os;
  write_chrome_trace(os, t, options);
  return os.str();
}

TEST(ExportDigest, AnalysisAndChromeBytesMatchRecordedDigests) {
  // {analysis, chrome} per seed, recorded before the index landed.
  const std::vector<std::pair<std::string, std::string>> recorded = {
      {"b9b7866d79d5323e", "760f2dcc9f4d8862"},
      {"c45ead248aa1e663", "1ca77238f84a54d1"},
      {"2d7f54af3f6b0d50", "f9e16813e46cfa08"},
      {"bddd36e010503192", "e7780bd91b6f8512"},
      {"3f723d69260160b2", "ed55fad75d901752"},
      {"49e874cbd6a62fe0", "8556d0e24ed56d81"},
      {"f98ca17123a8916b", "2a87a8356e3df50f"},
      {"be9c6f48f24f0f6f", "d636ac0b339efbda"},
      {"2cc5d3fda9898c12", "50de2c74c5db7b50"},
      {"81cd7c39f813e64f", "aeb6a8875b7f25eb"},
      {"2f6ed64a58884d67", "b8137e3aeaa7079c"},
      {"e7a42baa61dcafe5", "c3be3725091e791f"},
      {"742bd151bce1f40b", "575276755f059c76"},
      {"2259d5fe6513dc6e", "c3a3b8ed1ad9d147"},
      {"cb54a0169b67a7b3", "72264b440e8b0c00"},
      {"5d37bee89d9ceeb8", "422b012a6f36caf4"},
      {"d8e074c3e78d7098", "4d55903c133ab748"},
      {"ce271ae57a6316bd", "196c2cb9c39312ad"},
      {"a1c4fac626c26395", "8cbffb6ba1167874"},
      {"4a0c7a1d685a17cf", "1be206d42bc47d25"},
  };
  std::size_t delayed = 0;
  std::size_t stragglers = 0;
  for (std::uint64_t seed = 0; seed < recorded.size(); ++seed) {
    const trace::Trace t = seeded_trace(seed);
    AnalysisOptions options;
    options.delay_factor = seed % 3 == 0 ? 1.5 : 2.0;
    const Analysis a = analyze_timeline(t, nullptr, options);
    for (const CollectiveStats& c : a.collectives) delayed += c.delayed;
    stragglers += a.stragglers.size();
    const std::string analysis = support::hex64(support::fnv1a64(to_json(a)));
    const std::string chrome = support::hex64(
        support::fnv1a64(chrome_document(t, options.delay_factor)));
    EXPECT_EQ(analysis, recorded[seed].first) << "seed " << seed;
    EXPECT_EQ(chrome, recorded[seed].second) << "seed " << seed;
  }
  // The traces must reach the delayed and straggler branches.
  EXPECT_GT(delayed, 40u);
  EXPECT_GT(stragglers, 5u);
}

}  // namespace
}  // namespace mb::obs
