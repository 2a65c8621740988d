#include "net/topology.h"

#include "support/check.h"
#include "support/units.h"

namespace mb::net {

std::vector<support::Violation> TreeParams::violations() const {
  std::vector<support::Violation> out;
  if (nodes < 1) out.push_back({"nodes", "need at least one node"});
  if (switch_ports < 2)
    out.push_back({"switch_ports", "switches need at least two ports"});
  host_link.append_violations(out, "host_link.");
  uplink.append_violations(out, "uplink.");
  return out;
}

ClusterTopology build_tree(Network& net, const TreeParams& params) {
  support::check_none(params.violations(), "build_tree");

  ClusterTopology topo;
  const std::uint32_t leaves =
      (params.nodes + params.switch_ports - 1) / params.switch_ports;

  if (leaves <= 1) {
    const NodeId sw = net.add_node("switch0", /*is_switch=*/true);
    topo.root_switch = sw;
    topo.leaf_switches = {sw};
    for (std::uint32_t n = 0; n < params.nodes; ++n) {
      const NodeId host =
          net.add_node("node" + std::to_string(n), /*is_switch=*/false);
      net.add_link(host, sw, params.host_link);
      topo.hosts.push_back(host);
    }
  } else {
    topo.root_switch = net.add_node("root", /*is_switch=*/true);
    for (std::uint32_t l = 0; l < leaves; ++l) {
      const NodeId sw =
          net.add_node("switch" + std::to_string(l), /*is_switch=*/true);
      topo.leaf_switches.push_back(sw);
      net.add_link(sw, topo.root_switch, params.uplink);
    }
    for (std::uint32_t n = 0; n < params.nodes; ++n) {
      const NodeId host =
          net.add_node("node" + std::to_string(n), /*is_switch=*/false);
      net.add_link(host, topo.leaf_switches[n / params.switch_ports],
                   params.host_link);
      topo.hosts.push_back(host);
    }
  }
  net.finalize_routes();
  return topo;
}

TreeParams tibidabo_tree(std::uint32_t nodes) {
  using support::Gbit;
  TreeParams p;
  p.nodes = nodes;
  p.switch_ports = 48;
  // Tegra2's PCIe GbE NIC sustains well under line rate; cheap switches
  // add tens of microseconds of store-and-forward + kernel stack latency.
  p.host_link.bandwidth_bytes_per_s = support::bits_to_bytes_per_s(0.7 * Gbit);
  p.host_link.latency_s = support::us(45);
  p.host_link.buffer_bytes = 128 * 1024.0;  // cheap switch: ~128KB per port
  // Drop recovery at the MPI/transport layer: fast retransmit + eager
  // retry rather than a full TCP minimum RTO.
  p.host_link.retransmit_timeout_s = 0.025;
  p.uplink.bandwidth_bytes_per_s = support::bits_to_bytes_per_s(1.0 * Gbit);
  p.uplink.latency_s = support::us(30);
  p.uplink.buffer_bytes = 128 * 1024.0;
  p.uplink.retransmit_timeout_s = 0.025;
  return p;
}

TreeParams upgraded_tree(std::uint32_t nodes) {
  using support::Gbit;
  TreeParams p;
  p.nodes = nodes;
  p.switch_ports = 48;
  p.host_link.bandwidth_bytes_per_s = support::bits_to_bytes_per_s(0.9 * Gbit);
  p.host_link.latency_s = support::us(20);
  p.host_link.buffer_bytes = 2e6;  // deep-buffered managed switch
  p.uplink.bandwidth_bytes_per_s = support::bits_to_bytes_per_s(10.0 * Gbit);
  p.uplink.latency_s = support::us(8);
  p.uplink.buffer_bytes = 8e6;
  return p;
}

}  // namespace mb::net
