// Named runs: the one place that says which parameters define the paper's
// Fig. 3 and Fig. 4 runs and the scaling suite that probes the engine at
// 1k-4k ranks (the table is in scenario.cpp). Each is one function of the
// rank count and, for the apps that draw noise, of the seed, so mbctl, the
// bench binaries and the tests build the same program from the same name.
#pragma once

#include <cstdint>
#include <string_view>
#include <variant>
#include <vector>

#include "apps/bigdft.h"
#include "apps/cluster.h"
#include "apps/hpl.h"
#include "apps/specfem.h"
#include "mpi/program.h"

namespace mb::apps {

/// The parameters of one of the three application models.
using AppParams = std::variant<BigDftParams, HplParams, SpecfemParams>;

/// Builds the per-rank program of whichever app `params` holds.
mpi::Program build_program(const AppParams& params);

/// One named run at one rank count.
struct Scenario {
  std::string_view name;
  AppParams params;
  /// Frame granularity of the run's network (ClusterConfig::mtu_bytes).
  std::uint32_t mtu_bytes = net::Network::kMtuBytes;

  std::uint32_t ranks() const;
};

/// The named run `name` at `ranks` ranks; BigDFT and SPECFEM3D draw their
/// noise from `seed`. Throws support::Error on an unknown name.
Scenario scenario(std::string_view name, std::uint32_t ranks,
                  std::uint64_t seed);

/// The scaling suite at one rank count: specfem and hpl, and bigdft only
/// up to 1024 ranks. BigDFT's transpose is O(ranks^2) messages; past 1024
/// ranks it stops probing the engine and just burns minutes.
std::vector<Scenario> scaling_suite(std::uint32_t ranks, std::uint64_t seed);

/// The Tibidabo cluster sized for `s` (two ranks per board) with its MTU.
ClusterConfig cluster_for(const Scenario& s);

}  // namespace mb::apps
