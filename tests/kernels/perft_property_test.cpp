// Move-generator correctness sweep: perft node counts against the
// canonical oracle values for the standard test positions (CPW suite).
// Any bug in move generation, legality filtering, castling, en passant or
// promotion shifts at least one of these counts.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>

#include "kernels/chess/position.h"

namespace mb::kernels::chess {
namespace {

struct PerftCase {
  const char* name;
  const char* fen;
  int depth;
  std::uint64_t nodes;
};

// Without this gtest prints the raw bytes, pointers included, so the
// discovered ctest names would change with every run under ASLR.
void PrintTo(const PerftCase& c, std::ostream* os) {
  *os << "depth=" << c.depth << " nodes=" << c.nodes;
}

class PerftOracle : public ::testing::TestWithParam<PerftCase> {};

TEST_P(PerftOracle, NodeCountMatches) {
  const auto& c = GetParam();
  const Position pos = Position::from_fen(c.fen);
  EXPECT_EQ(perft(pos, c.depth), c.nodes);
}

constexpr const char* kStart =
    "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq -";
constexpr const char* kKiwipete =
    "r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq -";
constexpr const char* kPos3 = "8/2p5/3p4/KP5r/1R3p1k/8/4P1P1/8 w - -";
constexpr const char* kPos4 =
    "r3k2r/Pppp1ppp/1b3nbN/nP6/BBP1P3/q4N2/Pp1P2PP/R2Q1RK1 w kq -";
constexpr const char* kPos5 =
    "rnbq1k1r/pp1Pbppp/2p5/8/2B5/8/PPP1NnPP/RNBQK2R w KQ -";
constexpr const char* kPos6 =
    "r4rk1/1pp1qppp/p1np1n2/2b1p1B1/2B1P1b1/P1NP1N2/1PP1QPPP/R4RK1 w - -";

INSTANTIATE_TEST_SUITE_P(
    CpwSuite, PerftOracle,
    ::testing::Values(
        PerftCase{"start_d1", kStart, 1, 20},
        PerftCase{"start_d2", kStart, 2, 400},
        PerftCase{"start_d3", kStart, 3, 8902},
        PerftCase{"start_d4", kStart, 4, 197281},
        PerftCase{"kiwipete_d1", kKiwipete, 1, 48},
        PerftCase{"kiwipete_d2", kKiwipete, 2, 2039},
        PerftCase{"kiwipete_d3", kKiwipete, 3, 97862},
        PerftCase{"pos3_d1", kPos3, 1, 14},
        PerftCase{"pos3_d2", kPos3, 2, 191},
        PerftCase{"pos3_d3", kPos3, 3, 2812},
        PerftCase{"pos3_d4", kPos3, 4, 43238},
        PerftCase{"pos3_d5", kPos3, 5, 674624},
        PerftCase{"pos4_d1", kPos4, 1, 6},
        PerftCase{"pos4_d2", kPos4, 2, 264},
        PerftCase{"pos4_d3", kPos4, 3, 9467},
        PerftCase{"pos5_d1", kPos5, 1, 44},
        PerftCase{"pos5_d2", kPos5, 2, 1486},
        PerftCase{"pos5_d3", kPos5, 3, 62379},
        PerftCase{"pos6_d1", kPos6, 1, 46},
        PerftCase{"pos6_d2", kPos6, 2, 2079},
        PerftCase{"pos6_d3", kPos6, 3, 89890}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace mb::kernels::chess
