// Programs built on several threads at once, as fuzz and campaign workers
// build them: generated programs do not depend on which thread built
// them, although their labels are interned under contention
// (tests/support/label_test.cpp checks the interner itself). The tsan CI
// job runs this suite.
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generator.h"

namespace mb::gen {
namespace {

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
