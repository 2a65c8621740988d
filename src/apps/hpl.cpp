#include "apps/hpl.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "support/check.h"

namespace mb::apps {

void HplParams::validate() const {
  support::check(ranks >= 1, "HplParams", "ranks must be >= 1");
  support::check(n >= block && block >= 1, "HplParams",
                 "need n >= block >= 1");
  support::check(seconds_per_flop > 0.0, "HplParams",
                 "seconds_per_flop must be positive");
}

double HplParams::total_flops() const {
  const double nn = n;
  return 2.0 * nn * nn * nn / 3.0;
}

namespace {

/// Emits a pipelined (segmented) ring broadcast among `members` rooted at
/// members[0]: the owner streams segments to the next member, every member
/// forwards while receiving. Critical path ~ one transfer time plus a
/// pipeline fill — the shape HPL's row/column broadcasts are tuned to.
template <class Emit>
void ring_bcast(const std::vector<std::uint32_t>& members,
                std::uint64_t bytes, std::int32_t tag_base,
                std::uint64_t segment_bytes, Emit& emit) {
  if (members.size() < 2 || bytes == 0) return;
  const std::uint64_t segments =
      std::max<std::uint64_t>(1, (bytes + segment_bytes - 1) / segment_bytes);
  for (std::size_t m = 0; m < members.size(); ++m) {
    for (std::uint64_t s = 0; s < segments; ++s) {
      const auto tag = static_cast<std::int32_t>(
          (tag_base + static_cast<std::int32_t>(s)) % (1 << 15));
      const std::uint64_t seg =
          s + 1 == segments ? bytes - s * segment_bytes : segment_bytes;
      if (m > 0) emit(members[m], mpi::Op::recv(members[m - 1], tag));
      if (m + 1 < members.size())
        emit(members[m], mpi::Op::send(members[m + 1], seg, tag));
    }
  }
}

/// The panel loop: hands every op of the program to `emit(rank, op)`, in
/// each rank's program order.
template <class Emit>
void hpl_panels(const HplParams& params, Emit&& emit) {
  const std::uint32_t p = params.ranks;
  const mpi::Label panel_factor("panel_factor");
  const mpi::Label trailing_update("trailing_update");

  // 2-D process grid prow x pcol (prow ~ sqrt(p)); rank = r + c * prow.
  const auto prow = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::floor(std::sqrt(p))));
  const std::uint32_t pcol = p / prow;  // ranks beyond prow*pcol idle
  const std::uint32_t grid = prow * pcol;

  const std::uint64_t segment = 1u << 20;  // 1 MB broadcast segments
  const std::uint32_t panels = params.n / params.block;

  for (std::uint32_t k = 0; k < panels; ++k) {
    const double nk = static_cast<double>(params.n) -
                      static_cast<double>(k) * params.block;
    if (nk <= 0) break;
    const std::uint32_t owner_col = k % pcol;
    const std::uint32_t owner_row = k % prow;

    // --- panel factorization: parallel down the owning column (prow
    // ranks share the column block). ---
    const double panel_flops =
        2.0 * nk * params.block * params.block / prow;
    for (std::uint32_t r = 0; r < prow; ++r) {
      emit(r + owner_col * prow,
           mpi::Op::compute(panel_flops * params.seconds_per_flop,
                            panel_factor));
    }

    // --- broadcast the column panel along each process row. ---
    const auto panel_bytes =
        static_cast<std::uint64_t>(nk) * params.block * 8 / prow;
    for (std::uint32_t r = 0; r < prow; ++r) {
      std::vector<std::uint32_t> row;
      row.push_back(r + owner_col * prow);  // owner first
      for (std::uint32_t c = 0; c < pcol; ++c)
        if (c != owner_col) row.push_back(r + c * prow);
      ring_bcast(row, panel_bytes, static_cast<std::int32_t>(k * 64),
                 segment, emit);
    }

    // --- broadcast the U12 row block along each process column. ---
    const auto u_bytes =
        static_cast<std::uint64_t>(nk) * params.block * 8 / pcol;
    for (std::uint32_t c = 0; c < pcol; ++c) {
      std::vector<std::uint32_t> col;
      col.push_back(owner_row + c * prow);
      for (std::uint32_t r = 0; r < prow; ++r)
        if (r != owner_row) col.push_back(r + c * prow);
      ring_bcast(col, u_bytes, static_cast<std::int32_t>(k * 64 + 32),
                 segment, emit);
    }

    // --- trailing update, spread over the whole grid. ---
    const double update_flops = 2.0 * nk * nk * params.block / grid;
    for (std::uint32_t rank = 0; rank < grid; ++rank) {
      emit(rank, mpi::Op::compute(update_flops * params.seconds_per_flop,
                                  trailing_update));
    }
  }
}

}  // namespace

mpi::Program hpl_program(const HplParams& params) {
  params.validate();
  mpi::Program program(params.ranks);
  // The panel loop runs twice: once to count each rank's ops, once to
  // append them to vectors reserved to exactly that size.
  std::vector<std::size_t> sizes(params.ranks, 0);
  hpl_panels(params,
             [&sizes](std::uint32_t rank, const mpi::Op&) { ++sizes[rank]; });
  for (std::uint32_t r = 0; r < params.ranks; ++r)
    program.rank(r).reserve(sizes[r]);
  hpl_panels(params, [&program](std::uint32_t rank, const mpi::Op& op) {
    program.rank(rank).push_back(op);
  });
  return program;
}

AppRunResult run_hpl(const ClusterConfig& cluster, const HplParams& params) {
  return run_on_cluster(cluster, hpl_program(params));
}

double hpl_gflops(const HplParams& params, double makespan_s) {
  support::check(makespan_s > 0.0, "hpl_gflops",
                 "makespan must be positive");
  return params.total_flops() / makespan_s / 1e9;
}

}  // namespace mb::apps
