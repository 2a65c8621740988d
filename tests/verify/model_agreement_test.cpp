// The machine and network models judge their own validity, and every
// reader of a model must give the same verdict: lint reports an error
// exactly when Platform::validate() or net::build_tree refuses the model,
// and the static pass refuses exactly the trees and MTUs the simulator
// refuses. Each table row edits one field of a valid built-in model; the
// rows cover every check the models make, plus boundary values they
// still accept and values only lint's plausibility warnings flag.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/cluster.h"
#include "arch/platforms.h"
#include "mpi/program.h"
#include "net/topology.h"
#include "sim/sharded.h"
#include "support/check.h"
#include "verify/platform_lint.h"
#include "verify/static_cost.h"

namespace mb::verify {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// One edit of a valid model and whether the model still accepts it.
template <typename Model>
struct Edit {
  std::string name;
  std::function<void(Model&)> apply;
  bool valid = false;
};

/// Names a row in test parameters (gtest would print its bytes).
template <typename Model>
void PrintTo(const Edit<Model>& edit, std::ostream* os) {
  *os << edit.name;
}

using PlatformEdit = Edit<arch::Platform>;
using TreeEdit = Edit<net::TreeParams>;

bool refuses(const std::function<void()>& f) {
  try {
    f();
    return false;
  } catch (const support::Error&) {
    return true;
  }
}

void set_geometry(arch::CacheConfig& c, std::uint64_t size,
                  std::uint32_t line, std::uint32_t ways) {
  c.size_bytes = size;
  c.line_bytes = line;
  c.associativity = ways;
}

std::vector<PlatformEdit> platform_edits() {
  using P = arch::Platform;
  const auto recip = [](arch::OpClass c) {
    return static_cast<std::size_t>(c);
  };
  return {
      {"unchanged", [](P&) {}, true},
      // Only the plausibility warnings flag these; the model accepts them.
      {"freq_1mhz", [](P& p) { p.core.freq_hz = 1e6; }, true},
      {"power_2500w", [](P& p) { p.power_w = 2500.0; }, true},
      {"l2_half_of_l1",
       [](P& p) {
         p.caches[1] = p.caches[0];
         p.caches[1].size_bytes /= 2;
       },
       true},
      // One row per check of Platform::violations(), in its order.
      {"name_empty", [](P& p) { p.name.clear(); }},
      {"freq_zero", [](P& p) { p.core.freq_hz = 0.0; }},
      {"freq_nan", [](P& p) { p.core.freq_hz = kNaN; }},
      {"cores_zero", [](P& p) { p.cores = 0; }},
      {"issue_width_zero", [](P& p) { p.core.issue_width = 0; }},
      {"miss_overlap_nan", [](P& p) { p.core.miss_overlap = kNaN; }},
      {"miss_overlap_above_one", [](P& p) { p.core.miss_overlap = 1.5; }},
      {"mshr_below_one", [](P& p) { p.core.mshr = 0.5; }},
      {"mispredict_rate_above_one",
       [](P& p) { p.core.branch_mispredict_rate = 2.0; }},
      {"mispredict_penalty_negative",
       [](P& p) { p.core.branch_mispredict_penalty = -1.0; }},
      {"fp_dep_latency_negative",
       [](P& p) { p.core.fp_dep_latency_cycles = -1.0; }},
      {"recip_fp_mul_dp_negative",
       [recip](P& p) {
         p.core.recip_throughput[recip(arch::OpClass::kFpMulDp)] = -1.0;
       }},
      {"caches_empty", [](P& p) { p.caches.clear(); }},
      {"l1_size_zero", [](P& p) { p.caches[0].size_bytes = 0; }},
      {"l1_line_zero", [](P& p) { p.caches[0].line_bytes = 0; }},
      {"l1_ways_zero", [](P& p) { p.caches[0].associativity = 0; }},
      {"l1_line_48", [](P& p) { p.caches[0].line_bytes = 48; }},
      {"l1_line_2", [](P& p) { p.caches[0].line_bytes = 2; }},
      {"l1_size_not_whole_sets",
       [](P& p) { set_geometry(p.caches[0], 1000, 64, 4); }},
      {"l1_three_sets", [](P& p) { set_geometry(p.caches[0], 768, 64, 4); }},
      {"llc_line_48", [](P& p) { p.caches.back().line_bytes = 48; }},
      {"mem_bandwidth_zero",
       [](P& p) { p.mem.bandwidth_bytes_per_s = 0.0; }},
      {"mem_latency_zero", [](P& p) { p.mem.latency_ns = 0.0; }},
      {"mem_latency_negative", [](P& p) { p.mem.latency_ns = -1.0; }},
      {"page_zero", [](P& p) { p.mem.page_bytes = 0; }},
      {"page_3000", [](P& p) { p.mem.page_bytes = 3000; }},
      {"tlb_entries_zero", [](P& p) { p.core.tlb_entries = 0; }},
      {"tlb_ways_zero", [](P& p) { p.core.tlb_associativity = 0; }},
      {"tlb_entries_not_multiple",
       [](P& p) {
         p.core.tlb_entries = 30;
         p.core.tlb_associativity = 4;
       }},
      {"tlb_three_sets",
       [](P& p) {
         p.core.tlb_entries = 24;
         p.core.tlb_associativity = 8;
       }},
      {"power_zero", [](P& p) { p.power_w = 0.0; }},
      {"power_nan", [](P& p) { p.power_w = kNaN; }},
      {"total_bytes_zero", [](P& p) { p.mem.total_bytes = 0; }},
  };
}

std::vector<TreeEdit> tree_edits() {
  using T = net::TreeParams;
  std::vector<TreeEdit> edits = {
      {"unchanged", [](T&) {}, true},
      {"two_ports", [](T& t) { t.switch_ports = 2; }, true},
      {"nodes_zero", [](T& t) { t.nodes = 0; }},
      {"ports_zero", [](T& t) { t.switch_ports = 0; }},
      {"ports_one", [](T& t) { t.switch_ports = 1; }},
  };
  // Both link specs are checked whether the tree uses them or not: the
  // eight-node trees here have a single switch and no uplink.
  for (const auto& [name, link] : {std::pair{"host_link", &T::host_link},
                                    std::pair{"uplink", &T::uplink}}) {
    const std::string n = name;
    const auto edit = [link = link](auto set) {
      return [link, set](T& t) { set(t.*link); };
    };
    using L = net::LinkSpec;
    const std::vector<TreeEdit> per_link = {
        {n + "_latency_zero", edit([](L& l) { l.latency_s = 0.0; }), true},
        {n + "_retransmits_2_31",
         edit([](L& l) { l.max_retransmits = 1u << 31; }), true},
        {n + "_bandwidth_zero",
         edit([](L& l) { l.bandwidth_bytes_per_s = 0.0; })},
        {n + "_bandwidth_nan",
         edit([](L& l) { l.bandwidth_bytes_per_s = kNaN; })},
        {n + "_latency_negative", edit([](L& l) { l.latency_s = -1e-6; })},
        {n + "_latency_nan", edit([](L& l) { l.latency_s = kNaN; })},
        {n + "_latency_inf", edit([](L& l) { l.latency_s = kInf; })},
        {n + "_buffer_zero", edit([](L& l) { l.buffer_bytes = 0.0; })},
        {n + "_timeout_zero",
         edit([](L& l) { l.retransmit_timeout_s = 0.0; })},
        {n + "_retransmits_above_2_31",
         edit([](L& l) { l.max_retransmits = (1u << 31) + 1; })},
    };
    edits.insert(edits.end(), per_link.begin(), per_link.end());
  }
  return edits;
}

const std::vector<std::pair<std::string, arch::Platform>>& platforms() {
  static const std::vector<std::pair<std::string, arch::Platform>> all = {
      {"snowball", arch::snowball()},
      {"xeon", arch::xeon_x5550()},
      {"tegra2", arch::tegra2_node()},
      {"exynos5", arch::exynos5()},
  };
  return all;
}

const std::vector<std::pair<std::string, net::TreeParams>>& trees() {
  static const std::vector<std::pair<std::string, net::TreeParams>> all = {
      {"tibidabo", net::tibidabo_tree(8)},
      {"upgraded", net::upgraded_tree(8)},
  };
  return all;
}

// --- Platforms: lint errs exactly when validate() throws ------------------

using PlatformParam = std::tuple<std::size_t, PlatformEdit>;

class PlatformAgreement : public ::testing::TestWithParam<PlatformParam> {};

TEST_P(PlatformAgreement, LintErrsExactlyWhenValidateThrows) {
  const auto& [index, edit] = GetParam();
  arch::Platform p = platforms()[index].second;
  edit.apply(p);
  const bool thrown = refuses([&] { p.validate(); });
  const Report report = lint_platform(p);
  EXPECT_EQ(report.has_errors(), thrown) << render_diagnostics(report);
  EXPECT_EQ(thrown, !edit.valid);
}

INSTANTIATE_TEST_SUITE_P(
    Builtins, PlatformAgreement,
    ::testing::Combine(::testing::Range<std::size_t>(0, 4),
                       ::testing::ValuesIn(platform_edits())),
    [](const ::testing::TestParamInfo<PlatformParam>& info) {
      return platforms()[std::get<0>(info.param)].first + "_" +
             std::get<1>(info.param).name;
    });

// --- Trees: lint errs exactly when build_tree throws, and the static pass
// refuses exactly what the simulator refuses ------------------------------

/// A small program that crosses the network: a shifted ring exchange
/// between neighbouring nodes, then an allreduce. Two ranks per node.
mpi::Program ring_program(std::uint32_t nodes) {
  const std::uint32_t ranks = 2 * nodes;
  mpi::Program program(ranks);
  for (std::uint32_t r = 0; r < ranks; ++r) {
    program.append(r, mpi::Op::compute(1e-4));
    program.append(r, mpi::Op::send((r + 2) % ranks, 4000, 1));
    program.append(r, mpi::Op::recv((r + ranks - 2) % ranks, 1));
    program.append(r, mpi::Op::allreduce(64));
  }
  return program;
}

/// Whether analyze_cost and run_on_cluster refuse `tree` at `mtu`.
std::pair<bool, bool> static_and_des_refusals(const net::TreeParams& tree,
                                              std::uint32_t mtu) {
  const mpi::Program program = ring_program(tree.nodes);
  CostDescriptor d;
  d.tree = tree;
  d.mtu_bytes = mtu;
  apps::ClusterConfig cluster;
  cluster.nodes = tree.nodes;
  cluster.tree = tree;
  cluster.mtu_bytes = mtu;
  return {refuses([&] { analyze_cost(program, d); }),
          refuses([&] { apps::run_on_cluster(cluster, program); })};
}

using TreeParam = std::tuple<std::size_t, TreeEdit>;

std::string tree_param_name(const ::testing::TestParamInfo<TreeParam>& info) {
  return trees()[std::get<0>(info.param)].first + "_" +
         std::get<1>(info.param).name;
}

class TreeAgreement : public ::testing::TestWithParam<TreeParam> {
 protected:
  net::TreeParams edited() const {
    const auto& [index, edit] = GetParam();
    net::TreeParams t = trees()[index].second;
    edit.apply(t);
    return t;
  }
};

TEST_P(TreeAgreement, LintErrsExactlyWhenBuildTreeThrows) {
  const net::TreeParams t = edited();
  const bool thrown = refuses([&] {
    sim::ShardedEngine engine(0);
    net::Network network(engine);
    net::build_tree(network, t);
  });
  const Report report = lint_tree(t, "tree");
  EXPECT_EQ(report.has_errors(), thrown) << render_diagnostics(report);
  EXPECT_EQ(thrown, !std::get<1>(GetParam()).valid);
}

INSTANTIATE_TEST_SUITE_P(
    Builtins, TreeAgreement,
    ::testing::Combine(::testing::Range<std::size_t>(0, 2),
                       ::testing::ValuesIn(tree_edits())),
    tree_param_name);

class TreeCostAgreement : public TreeAgreement {};

TEST_P(TreeCostAgreement, StaticPassRefusesExactlyWhatTheSimulatorRefuses) {
  const auto [static_refuses, des_refuses] =
      static_and_des_refusals(edited(), net::Network::kMtuBytes);
  EXPECT_EQ(static_refuses, des_refuses);
  EXPECT_EQ(des_refuses, !std::get<1>(GetParam()).valid);
}

/// The edits that leave at least one node, since a cluster program needs
/// ranks. The accepted retry budget of 2^31 is left to the lint test
/// above: analyze_cost sums the backoff schedule once per allowed
/// attempt, which takes seconds at 2^31.
std::vector<TreeEdit> cost_edits() {
  std::vector<TreeEdit> edits;
  for (TreeEdit& e : tree_edits()) {
    net::TreeParams t = net::tibidabo_tree(8);
    e.apply(t);
    const std::uint32_t budget =
        std::max(t.host_link.max_retransmits, t.uplink.max_retransmits);
    const bool slow = e.valid && budget >= (1u << 31);
    if (t.nodes >= 1 && !slow) edits.push_back(std::move(e));
  }
  return edits;
}

INSTANTIATE_TEST_SUITE_P(
    Builtins, TreeCostAgreement,
    ::testing::Combine(::testing::Range<std::size_t>(0, 2),
                       ::testing::ValuesIn(cost_edits())),
    tree_param_name);

// --- MTUs: the static pass refuses exactly what the network refuses -------

using MtuParam = std::tuple<std::size_t, std::uint32_t>;

class MtuAgreement : public ::testing::TestWithParam<MtuParam> {};

TEST_P(MtuAgreement, StaticPassRefusesExactlyWhatTheSimulatorRefuses) {
  const auto& [index, mtu] = GetParam();
  const auto [static_refuses, des_refuses] =
      static_and_des_refusals(trees()[index].second, mtu);
  EXPECT_EQ(static_refuses, des_refuses);
  EXPECT_EQ(des_refuses, mtu < 64);
}

INSTANTIATE_TEST_SUITE_P(
    Builtins, MtuAgreement,
    ::testing::Combine(::testing::Range<std::size_t>(0, 2),
                       ::testing::Values(63u, 64u)),
    [](const ::testing::TestParamInfo<MtuParam>& info) {
      return trees()[std::get<0>(info.param)].first + "_mtu_" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace mb::verify
