#include "apps/bigdft.h"

#include <cmath>
#include <cstddef>
#include <vector>

#include "support/check.h"
#include "support/rng.h"

namespace mb::apps {

void BigDftParams::validate() const {
  support::check(ranks >= 1, "BigDftParams", "ranks must be >= 1");
  support::check(iterations >= 1, "BigDftParams", "iterations must be >= 1");
  support::check(compute_s_per_iter > 0.0 && std::isfinite(compute_s_per_iter),
                 "BigDftParams", "compute time must be positive and finite");
  support::check(imbalance >= 0.0 && imbalance < 0.5, "BigDftParams",
                 "imbalance must be in [0, 0.5)");
}

mpi::Program bigdft_program(const BigDftParams& params) {
  params.validate();
  const std::uint32_t p = params.ranks;
  mpi::Program program(p);
  // Per iteration, every rank gets a convolution and an alltoallv per
  // transpose, then the allreduces.
  const std::size_t ops_per_rank =
      std::size_t{params.iterations} *
      (2 * std::size_t{params.transposes} + params.allreduces);
  for (std::uint32_t r = 0; r < p; ++r) program.rank(r).reserve(ops_per_rank);
  const mpi::Label convolution("convolution");

  // Per-pair transpose payload: the array is scattered from p row-slabs
  // to p column-slabs, each rank exchanging 1/p^2 of the volume with
  // every other rank ("these communications should be small").
  const std::uint64_t per_pair =
      std::max<std::uint64_t>(1, params.transpose_bytes /
                                     (static_cast<std::uint64_t>(p) * p));
  std::vector<std::uint64_t> counts(p, per_pair);

  // Conv -> transpose -> conv -> transpose ... per iteration, as the axis-
  // by-axis wavelet transform does. The per-(iteration, rank) compute skew
  // models ordinary OS/load noise; it desynchronizes the ranks' entry into
  // each alltoallv by varying amounts, which is why only *some* instances
  // hit the switch-buffer incast and get delayed (paper Fig. 4).
  support::Rng rng(params.seed);
  const double slice =
      params.compute_s_per_iter / params.transposes / p;
  for (std::uint32_t iter = 0; iter < params.iterations; ++iter) {
    for (std::uint32_t k = 0; k < params.transposes; ++k) {
      for (std::uint32_t r = 0; r < p; ++r) {
        const double skew =
            1.0 + rng.uniform(-params.imbalance, params.imbalance);
        program.rank(r).push_back(mpi::Op::compute(slice * skew, convolution));
      }
      program.append_all(mpi::Op::alltoallv(counts, "alltoallv"));
    }
    for (std::uint32_t k = 0; k < params.allreduces; ++k)
      program.append_all(mpi::Op::allreduce(64, "energy_allreduce"));
  }
  return program;
}

AppRunResult run_bigdft(const ClusterConfig& cluster,
                        const BigDftParams& params) {
  return run_on_cluster(cluster, bigdft_program(params));
}

}  // namespace mb::apps
