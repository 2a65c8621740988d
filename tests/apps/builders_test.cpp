// The application builders size every rank's op vector exactly: hpl's
// panel loop runs a count pass before its append pass, and specfem and
// bigdft reserve their per-rank op counts in closed form. The digests
// were recorded from the builders as they were before the sizing, so
// the programs themselves must not change by a single op.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "apps/bigdft.h"
#include "apps/hpl.h"
#include "apps/specfem.h"
#include "gen/generator.h"
#include "support/hash.h"

namespace mb::apps {
namespace {

struct Built {
  std::string name;
  mpi::Program program;
  std::uint64_t digest;  ///< gen::program_digest before the sizing
};

Built hpl(std::uint32_t ranks, std::uint32_t n, std::uint32_t block,
          std::uint64_t digest) {
  HplParams p;
  p.ranks = ranks;
  p.n = n;
  p.block = block;
  return {"hpl ranks=" + std::to_string(ranks) + " n=" + std::to_string(n) +
              " block=" + std::to_string(block),
          hpl_program(p), digest};
}

Built specfem(std::uint32_t ranks, std::uint32_t steps,
              std::uint64_t digest) {
  SpecfemParams p;
  p.ranks = ranks;
  p.steps = steps;
  p.seed = 2013;
  return {"specfem ranks=" + std::to_string(ranks) +
              " steps=" + std::to_string(steps),
          specfem_program(p), digest};
}

Built bigdft(std::uint32_t ranks, std::uint32_t iterations,
             std::uint32_t transposes, std::uint32_t allreduces,
             std::uint64_t digest) {
  BigDftParams p;
  p.ranks = ranks;
  p.iterations = iterations;
  p.transposes = transposes;
  p.allreduces = allreduces;
  p.seed = 2013;
  return {"bigdft ranks=" + std::to_string(ranks) +
              " iterations=" + std::to_string(iterations) +
              " transposes=" + std::to_string(transposes) +
              " allreduces=" + std::to_string(allreduces),
          bigdft_program(p), digest};
}

TEST(ProgramBuilders, ExactCapacityAndUnchangedOps) {
  const Built table[] = {
      // HPL: square and ragged grids (5 and 17 ranks leave one rank
      // idle), n not a multiple of block (1100/200, 1000/96, 3000/128),
      // and column panels broadcast in several 1 MB segments (1.76 MB at
      // 2 ranks, 8 MB at 16, 2 MB at 64).
      hpl(1, 1024, 64, 0xabcdce99e3c0538c),
      hpl(2, 1100, 200, 0x09b70fc95915b899),
      hpl(3, 2048, 128, 0x2a9213cd0f68a1b1),
      hpl(5, 1000, 96, 0xdd5fa5f195e195e8),
      hpl(16, 16384, 256, 0x84c25e338cf4a00a),
      hpl(17, 3000, 128, 0xc46b7a97119a8fc4),
      hpl(64, 8192, 256, 0x91504ea3bdaf7911),
      hpl(1024, 4096, 128, 0x01d210dc72912979),
      specfem(4, 3, 0x5b5af0a950cef164),
      specfem(64, 8, 0x9315502c8d58848d),
      specfem(1024, 2, 0x3eafb5c516fedbbd),
      bigdft(1, 2, 2, 1, 0x5f41bf9bc046b807),
      bigdft(16, 3, 3, 2, 0x51433088766c4836),
      bigdft(64, 1, 1, 0, 0x9ac4995b2bd8e8fc),
  };
  for (const Built& b : table) {
    SCOPED_TRACE(b.name);
    for (std::uint32_t r = 0; r < b.program.ranks(); ++r) {
      const auto& ops = b.program.rank(r);
      ASSERT_EQ(ops.capacity(), ops.size()) << "rank " << r;
    }
    EXPECT_EQ(support::hex64(gen::program_digest(b.program)),
              support::hex64(b.digest));
  }
}

}  // namespace
}  // namespace mb::apps
