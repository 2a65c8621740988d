// Programs built on several threads at once, as fuzz and campaign workers
// build them: label interning hands every thread the same identity for
// the same string, and generated programs do not depend on which thread
// built them. The tsan CI job runs this suite.
#include <cstdint>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generator.h"
#include "mpi/program.h"

namespace mb::gen {
namespace {

using mpi::Label;

constexpr unsigned kInterners = 4;
constexpr unsigned kReaders = 2;
constexpr unsigned kLabelsPerInterner = 96;
constexpr unsigned kOverlap = 32;  ///< labels shared with the next interner
constexpr unsigned kStride = kLabelsPerInterner - kOverlap;

std::string shared_text(unsigned i) {
  return "shared-label-" + std::to_string(i);
}

TEST(LabelInterning, ThreadsAgreeOnIdentity) {
  std::vector<std::string> early_text;
  std::vector<Label> early;
  for (unsigned i = 0; i < 64; ++i) {
    early_text.push_back("early-label-" + std::to_string(i));
    early.emplace_back(early_text.back());
  }

  // Interner t takes labels [t * kStride, t * kStride + 96): each overlaps
  // the next by 32, and every label is new to the process.
  std::vector<std::vector<Label>> got(kInterners);
  std::vector<unsigned> reader_mismatches(kReaders, 0);
  std::latch start(kInterners + kReaders);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kInterners; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      const unsigned first = t * kStride;
      for (unsigned i = 0; i < kLabelsPerInterner; ++i)
        got[t].emplace_back(shared_text(first + i));
    });
  }
  for (unsigned t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (unsigned round = 0; round < 50; ++round) {
        for (std::size_t i = 0; i < early.size(); ++i) {
          if (early[i].str() != early_text[i]) ++reader_mismatches[t];
          if (!(Label(early_text[i]) == early[i])) ++reader_mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (unsigned t = 0; t < kReaders; ++t) EXPECT_EQ(reader_mismatches[t], 0u);
  for (unsigned t = 0; t < kInterners; ++t) {
    const unsigned first = t * kStride;
    ASSERT_EQ(got[t].size(), kLabelsPerInterner);
    for (unsigned i = 0; i < kLabelsPerInterner; ++i) {
      const std::string text = shared_text(first + i);
      EXPECT_EQ(got[t][i].str(), text);
      EXPECT_EQ(got[t][i], Label(text)) << text;
      if (t + 1 < kInterners && i >= kStride) {
        // The same string interned by the next thread.
        EXPECT_EQ(got[t][i], got[t + 1][i - kStride]) << text;
      }
    }
  }
}

TEST(ConcurrentGenerate, DigestsMatchASerialLoop) {
  constexpr std::uint64_t kSeeds = 64;
  constexpr unsigned kThreads = 4;
  const SweepSpec spec;
  const auto digest = [&spec](std::uint64_t seed) {
    return program_digest(generate(seed, sweep_params(seed, spec)).program);
  };

  // Threaded first, so the generator's labels are interned under
  // contention rather than found in the set.
  std::vector<std::uint64_t> threaded(kSeeds);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t seed = t; seed < kSeeds; seed += kThreads)
        threaded[seed] = digest(seed);
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::uint64_t seed = 0; seed < kSeeds; ++seed)
    EXPECT_EQ(threaded[seed], digest(seed)) << "seed " << seed;
}

}  // namespace
}  // namespace mb::gen
