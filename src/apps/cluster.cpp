#include "apps/cluster.h"

#include <limits>
#include <utility>

#include "obs/rollup.h"
#include "obs/timeseries.h"
#include "sim/sharded.h"
#include "support/check.h"
#include "trace/sink.h"

namespace mb::apps {

ClusterConfig tibidabo_cluster(std::uint32_t nodes) {
  ClusterConfig c;
  c.nodes = nodes;
  c.cores_per_node = 2;
  c.tree = net::tibidabo_tree(nodes);
  return c;
}

ClusterConfig upgraded_cluster(std::uint32_t nodes) {
  ClusterConfig c;
  c.nodes = nodes;
  c.cores_per_node = 2;
  c.tree = net::upgraded_tree(nodes);
  return c;
}

namespace {

void aggregate_link(AppRunResult& result, const net::Network& network,
                    net::NodeId a, net::NodeId b) {
  for (const auto& [src, dst] : {std::pair{a, b}, std::pair{b, a}}) {
    const net::LinkStats& stats = network.link_stats(src, dst);
    result.network_drops += stats.drops;
    result.network_retransmits += stats.retransmits;
    result.injected_losses += stats.injected_losses;
  }
}

/// Partitions the tree topology for the engine. Split: each leaf-switch
/// subtree (the switch plus its hosts) is one shard, the root switch is
/// its own shard. Unsplit runs and single-switch clusters are one shard:
/// the serial engine, a single unbounded window.
void configure_sharding(sim::ShardedEngine& engine, const net::Network& net,
                        const net::ClusterTopology& topo,
                        const ClusterConfig& config, bool split) {
  if (!split || topo.leaf_switches.size() <= 1) {
    engine.configure({}, 1, std::numeric_limits<double>::infinity());
    return;
  }
  const auto nshards =
      static_cast<std::uint32_t>(topo.leaf_switches.size()) + 1;
  std::vector<std::uint32_t> node_to_shard(net.nodes(), 0);
  for (std::size_t i = 0; i < topo.leaf_switches.size(); ++i)
    node_to_shard[topo.leaf_switches[i]] = static_cast<std::uint32_t>(i);
  node_to_shard[topo.root_switch] = nshards - 1;
  for (std::uint32_t n = 0; n < config.nodes; ++n)
    node_to_shard[topo.hosts[n]] = n / config.tree.switch_ports;
  // Conservative lookahead: no shard can affect another sooner than the
  // fastest cross-shard link delivers.
  double lookahead = std::numeric_limits<double>::infinity();
  for (std::size_t li = 0; li < net.link_count(); ++li) {
    if (node_to_shard[net.link_from(li)] != node_to_shard[net.link_to(li)])
      lookahead = std::min(lookahead, net.link_latency_s(li));
  }
  engine.configure(std::move(node_to_shard), nshards, lookahead);
}

/// Registers the time-series probes: global gauges always, per-link
/// counters when the topology is small enough that the series tables
/// stay bounded (a 10k-rank tree has thousands of host links; sampling
/// them all would defeat the memory budget — uplinks alone carry the
/// congestion signal there).
void register_probes(obs::TimeSampler& sampler,
                     const sim::ShardedEngine& engine,
                     const net::Network& network,
                     const net::ClusterTopology& topo,
                     const ClusterConfig& config) {
  sampler.add_probe("sim.pending_events", [&engine] {
    return static_cast<double>(engine.stats().pending);
  });
  sampler.add_probe("net.in_flight_messages", [&network] {
    return static_cast<double>(network.in_flight_messages());
  });

  std::vector<std::pair<net::NodeId, net::NodeId>> links;
  if (topo.leaf_switches.size() > 1) {
    for (const net::NodeId sw : topo.leaf_switches) {
      links.emplace_back(sw, topo.root_switch);
      links.emplace_back(topo.root_switch, sw);
    }
  }
  constexpr std::size_t kMaxLinkProbePairs = 2048;
  if (links.size() + 2 * config.nodes <= kMaxLinkProbePairs) {
    for (std::uint32_t n = 0; n < config.nodes; ++n) {
      const net::NodeId host = topo.hosts[n];
      const net::NodeId sw =
          topo.leaf_switches.size() == 1
              ? topo.leaf_switches[0]
              : topo.leaf_switches[n / config.tree.switch_ports];
      links.emplace_back(host, sw);
      links.emplace_back(sw, host);
    }
  }
  for (const auto& [src, dst] : links) {
    const net::LinkStats& stats = network.link_stats(src, dst);
    const obs::Labels labels{
        {"link", std::to_string(src) + "->" + std::to_string(dst)}};
    sampler.add_probe("net.link.retransmits", labels, [&stats] {
      return static_cast<double>(stats.retransmits);
    });
    sampler.add_probe("net.link.drops", labels, [&stats] {
      return static_cast<double>(stats.drops);
    });
  }
}

// Validates an explicit rank_map: every rank lands on a real node and no
// node is oversubscribed past its core count.
void check_rank_map(const ClusterConfig& config, std::uint32_t ranks) {
  support::check(config.rank_map.size() == ranks, "run_on_cluster",
                 "rank_map must have one entry per program rank");
  std::vector<std::uint32_t> occupancy(config.nodes, 0);
  for (std::uint32_t node : config.rank_map) {
    support::check(node < config.nodes, "run_on_cluster",
                   "rank_map entry names a node outside the cluster");
    support::check(++occupancy[node] <= config.cores_per_node,
                   "run_on_cluster",
                   "rank_map oversubscribes a node past cores_per_node");
  }
}

}  // namespace

std::vector<std::uint32_t> ranks_on_node(const ClusterConfig& config,
                                         std::uint32_t node) {
  std::vector<std::uint32_t> ranks;
  if (config.rank_map.empty()) {
    for (std::uint32_t c = 0; c < config.cores_per_node; ++c)
      ranks.push_back(node * config.cores_per_node + c);
  } else {
    for (std::uint32_t r = 0; r < config.rank_map.size(); ++r)
      if (config.rank_map[r] == node) ranks.push_back(r);
  }
  return ranks;
}

AppRunResult run_on_cluster(const ClusterConfig& config,
                            const mpi::Program& program,
                            const RunHooks& hooks) {
  if (config.rank_map.empty()) {
    support::check(program.ranks() == config.nodes * config.cores_per_node,
                   "run_on_cluster",
                   "program ranks must equal nodes * cores_per_node");
  } else {
    check_rank_map(config, program.ranks());
  }

  // Fault injection (hooks, failure detector) and the time sampler touch
  // cross-shard state at arbitrary times: they run on one shard.
  const bool split = config.sim_jobs > 0 && !hooks.on_ready &&
                     config.mpi.recv_timeout_s == 0.0 &&
                     !config.timeseries.enabled;
  sim::ShardedEngine engine(config.sim_jobs);
  net::Network network(engine, config.mtu_bytes);
  const net::ClusterTopology topo = net::build_tree(network, config.tree);
  configure_sharding(engine, network, topo, config, split);

  std::vector<net::NodeId> rank_to_host;
  rank_to_host.reserve(program.ranks());
  for (std::uint32_t r = 0; r < program.ranks(); ++r) {
    const std::uint32_t node =
        config.rank_map.empty() ? r / config.cores_per_node
                                : config.rank_map[r];
    rank_to_host.push_back(topo.hosts[node]);
  }

  // Without capture options the sink keeps every record of every rank.
  trace::SinkConfig keep_all;
  keep_all.ring_capacity = 0;
  const trace::SinkConfig& capture =
      config.streaming_trace ? config.trace_sink : keep_all;
  trace::StreamingSink sink(program.ranks(), capture);
  mpi::Runtime runtime(engine, network, std::move(rank_to_host), config.mpi,
                       &sink);
  obs::TimeSampler sampler;
  if (config.timeseries.enabled) {
    register_probes(sampler, engine, network, topo, config);
    sampler.arm(engine, config.timeseries.interval_s);
  }

  if (hooks.on_ready) hooks.on_ready(engine, network, topo, runtime);
  const mpi::RunOutcome outcome = runtime.run_outcome(program);
  AppRunResult result;
  result.completed = outcome.completed;
  result.makespan_s = outcome.makespan_s;
  result.failed_at_s = outcome.drained_s;
  result.failure = outcome.failure;

  sink.close();
  if (capture.spill_path.empty()) sink.drain(result.trace);
  if (config.streaming_trace) {
    result.trace_sampled_ranks = sink.sampled_ranks();
    result.trace_dropped = sink.total_dropped();
  }
  if (config.timeseries.enabled) {
    // Per-link series kept per metric (all-zero ones are always dropped).
    constexpr std::size_t kLinkSeriesKept = 16;
    result.timeseries = sampler.take();
    obs::prune_series(result.timeseries, "net.link.", kLinkSeriesKept);
  }

  // The engine dies with this scope — publish its DES statistics now so a
  // profile snapshot taken after the run still sees them.
  obs::publish_scheduler(obs::metrics(), engine);

  // Aggregate link counters over host links (both directions) and uplinks.
  for (std::uint32_t n = 0; n < config.nodes; ++n) {
    const net::NodeId host = topo.hosts[n];
    const net::NodeId sw =
        topo.leaf_switches.size() == 1
            ? topo.leaf_switches[0]
            : topo.leaf_switches[n / config.tree.switch_ports];
    aggregate_link(result, network, host, sw);
  }
  if (topo.leaf_switches.size() > 1) {
    for (const net::NodeId sw : topo.leaf_switches)
      aggregate_link(result, network, sw, topo.root_switch);
  }
  return result;
}

AppRunResult run_on_cluster(const ClusterConfig& config,
                            const mpi::Program& program) {
  AppRunResult result = run_on_cluster(config, program, RunHooks{});
  support::check(result.completed, "run_on_cluster",
                 "deadlock: some ranks never completed their program\n" +
                     result.failure.to_string());
  return result;
}

}  // namespace mb::apps
