// Cluster topology builders.
//
// Tibidabo (paper Sec. II-B): boards with 1 GbE NICs "interconnected
// hierarchically using 48-port 1 GbE switches". The hierarchical tree with
// single-GbE uplinks is heavily oversubscribed — the root of the delayed
// collectives in Fig. 4. The "upgraded switches" variant (Sec. IV: "this
// problem is to be fixed by upgrading the Ethernet switches") widens the
// uplinks and cuts switch latency.
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.h"

namespace mb::net {

/// A built cluster: the network plus the host vertex for every node.
struct ClusterTopology {
  std::vector<NodeId> hosts;
  NodeId root_switch = 0;
  std::vector<NodeId> leaf_switches;
};

struct TreeParams {
  std::uint32_t nodes = 32;
  std::uint32_t switch_ports = 48;      ///< host ports per leaf switch
  LinkSpec host_link{};                 ///< node NIC <-> leaf switch
  LinkSpec uplink{};                    ///< leaf switch <-> root switch

  /// Every field the tree model refuses: nodes >= 1, switch_ports >= 2,
  /// and each link spec's own checks (LinkSpec::append_violations) under
  /// "host_link." and "uplink.", whether the tree uses an uplink or not.
  /// build_tree throws the first; verify::lint_tree and
  /// verify::analyze_cost report the same list.
  std::vector<support::Violation> violations() const;
};

/// Builds a two-level tree: hosts -> leaf switches -> root switch. With
/// nodes <= switch_ports a single switch is built (no root hop). Throws
/// the first of params.violations(), if any. finalize_routes() is called
/// before returning.
ClusterTopology build_tree(Network& net, const TreeParams& params);

/// The Tibidabo interconnect as studied in the paper: 1 GbE everywhere,
/// cheap store-and-forward switches, one GbE uplink per leaf switch.
TreeParams tibidabo_tree(std::uint32_t nodes);

/// The post-upgrade interconnect (Sec. IV / Sec. VI: "high speed Ethernet
/// network"): 10 GbE uplinks and lower switch latency.
TreeParams upgraded_tree(std::uint32_t nodes);

}  // namespace mb::net
