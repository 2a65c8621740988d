#include "apps/scenario.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <type_traits>

#include "support/check.h"

namespace mb::apps {
namespace {

// Constant-initialized: no constructor runs, so a reader in another
// translation unit may call scenario() during its own static
// initialization. Ranks and seeds are filled in per call.
constexpr Scenario kScenarios[] = {
    // The paper's Fig. 4 profiling run: the borderline-incast transpose.
    {"fig4", BigDftParams{.iterations = 12,
                          .compute_s_per_iter = 2.0,
                          .transpose_bytes = 12ull << 20}},
    // Fig. 3a: HPL at memory-filling N, as it is run in practice; 1 MiB
    // frames for month-long runs (the broadcast/update overlap matters,
    // not per-frame congestion).
    {"fig3/hpl", HplParams{.n = 32768, .block = 128}, 1u << 20},
    {"fig3/specfem", SpecfemParams{.steps = 10, .compute_s_per_step = 3.0}},
    // Fig. 3c: the congestion-bound instance.
    {"fig3/bigdft", BigDftParams{.iterations = 5,
                                 .compute_s_per_iter = 2.0,
                                 .transpose_bytes = 24ull << 20}},
    // The scaling suite exaggerates communication density (tiny compute
    // between large transfers) so that DES event throughput, not model
    // arithmetic, dominates: honest wall-clock probes of the engine.
    {"scaling/specfem", SpecfemParams{.steps = 8,
                                      .compute_s_per_step = 200.0,
                                      .halo_bytes = 64 * 1024}},
    {"scaling/hpl", HplParams{.n = 4096, .block = 128}, 1u << 20},
    {"scaling/bigdft", BigDftParams{.iterations = 1,
                                    .compute_s_per_iter = 100.0,
                                    .transpose_bytes = 64ull << 20,
                                    .transposes = 1,
                                    .allreduces = 0}},
};

}  // namespace

mpi::Program build_program(const AppParams& params) {
  return std::visit(
      [](const auto& p) {
        using P = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<P, BigDftParams>) {
          return bigdft_program(p);
        } else if constexpr (std::is_same_v<P, HplParams>) {
          return hpl_program(p);
        } else {
          return specfem_program(p);
        }
      },
      params);
}

std::uint32_t Scenario::ranks() const {
  return std::visit([](const auto& p) { return p.ranks; }, params);
}

Scenario scenario(std::string_view name, std::uint32_t ranks,
                  std::uint64_t seed) {
  const auto* it = std::find_if(
      std::begin(kScenarios), std::end(kScenarios),
      [&](const Scenario& s) { return s.name == name; });
  if (it == std::end(kScenarios))
    support::fail("apps::scenario",
                  "unknown scenario '" + std::string(name) + "'");
  Scenario s = *it;
  std::visit(
      [&](auto& p) {
        p.ranks = ranks;
        if constexpr (requires { p.seed; }) p.seed = seed;
      },
      s.params);
  return s;
}

std::vector<Scenario> scaling_suite(std::uint32_t ranks, std::uint64_t seed) {
  std::vector<Scenario> suite{scenario("scaling/specfem", ranks, seed),
                              scenario("scaling/hpl", ranks, seed)};
  if (ranks <= 1024) suite.push_back(scenario("scaling/bigdft", ranks, seed));
  return suite;
}

ClusterConfig cluster_for(const Scenario& s) {
  ClusterConfig cluster = tibidabo_cluster(std::max(1u, s.ranks() / 2));
  cluster.mtu_bytes = s.mtu_bytes;
  return cluster;
}

}  // namespace mb::apps
