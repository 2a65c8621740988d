#include "apps/specfem.h"

#include <cstddef>
#include <vector>

#include "support/check.h"
#include "support/rng.h"

namespace mb::apps {

void SpecfemParams::validate() const {
  support::check(ranks >= 2, "SpecfemParams",
                 "the halo exchange needs at least 2 ranks");
  support::check(steps >= 1, "SpecfemParams", "steps must be >= 1");
  support::check(compute_s_per_step > 0.0, "SpecfemParams",
                 "compute time must be positive");
}

std::uint32_t SpecfemParams::min_ranks(std::uint32_t cores_per_node) const {
  const std::uint64_t nodes =
      (instance_bytes + node_memory_bytes - 1) / node_memory_bytes;
  return static_cast<std::uint32_t>(nodes) * cores_per_node;
}

mpi::Program specfem_program(const SpecfemParams& params) {
  params.validate();
  support::check(params.ranks >= params.min_ranks(), "specfem_program",
                 "instance does not fit in memory on this few nodes "
                 "(the paper's use-case cannot run on less than 2 nodes)");
  const std::uint32_t p = params.ranks;
  mpi::Program program(p);
  // Five ops per rank and step: a compute, two sends, two receives.
  for (std::uint32_t r = 0; r < p; ++r)
    program.rank(r).reserve(std::size_t{params.steps} * 5);
  const mpi::Label element_compute("element_compute");

  support::Rng rng(params.seed);
  std::vector<double> skew(p);
  for (auto& s : skew) s = 1.0 + rng.uniform(-params.imbalance,
                                             params.imbalance);

  for (std::uint32_t step = 0; step < params.steps; ++step) {
    for (std::uint32_t r = 0; r < p; ++r) {
      auto& ops = program.rank(r);
      ops.push_back(mpi::Op::compute(
          params.compute_s_per_step / p * skew[r], element_compute));
      // Halo exchange with ring neighbours; buffered sends first so the
      // symmetric receives cannot deadlock. Tags encode direction.
      const std::uint32_t right = (r + 1) % p;
      const std::uint32_t left = (r + p - 1) % p;
      const auto tag_r = static_cast<std::int32_t>(2 * step);
      const auto tag_l = static_cast<std::int32_t>(2 * step + 1);
      ops.push_back(mpi::Op::send(right, params.halo_bytes, tag_r));
      ops.push_back(mpi::Op::send(left, params.halo_bytes, tag_l));
      ops.push_back(mpi::Op::recv(left, tag_r));
      ops.push_back(mpi::Op::recv(right, tag_l));
    }
  }
  return program;
}

AppRunResult run_specfem(const ClusterConfig& cluster,
                         const SpecfemParams& params) {
  return run_on_cluster(cluster, specfem_program(params));
}

}  // namespace mb::apps
