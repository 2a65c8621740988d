// Cluster harness: wires a topology, an MPI runtime and a trace together
// so application models can be launched with one call.
//
// Every run builds one sim::ShardedEngine and one trace::StreamingSink.
// The engine runs one shard (the serial engine) unless sim_jobs > 0 and
// nothing needs global state mid-run; the sink keeps every record of
// every rank unless a capture option bounds it. Records drain rank-major,
// so traces are byte-identical whichever way the engine was split.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mpi/program.h"
#include "mpi/runtime.h"
#include "net/topology.h"
#include "obs/timeseries.h"
#include "trace/sink.h"
#include "trace/trace.h"

namespace mb::apps {

/// Metrics time-series sampling during the run (obs::TimeSampler).
/// Enabling it forces one shard: the probes read global state (queue
/// depth, link counters) that has no single owner once the topology is
/// split across shards.
struct TimeSeriesConfig {
  bool enabled = false;
  double interval_s = 0.1;  ///< simulated seconds between samples
};

struct ClusterConfig {
  std::uint32_t nodes = 16;
  std::uint32_t cores_per_node = 2;  ///< Tegra2: dual Cortex-A9
  net::TreeParams tree;              ///< interconnect parameters
  mpi::RuntimeConfig mpi;
  /// Frame granularity (see net::Network): raise for long-running apps
  /// (HPL at realistic N) where per-Ethernet-frame simulation is overkill.
  std::uint32_t mtu_bytes = net::Network::kMtuBytes;
  /// 0 = one shard, the serial engine. >0 = one shard per leaf-switch
  /// subtree plus the root switch (sim::ShardedEngine), drained by this
  /// many worker threads; results are byte-identical for any value.
  /// Ignored — one shard — when RunHooks::on_ready is set, recv_timeout_s
  /// is nonzero or the time series is enabled, since those touch
  /// cross-shard state at arbitrary times.
  std::uint32_t sim_jobs = 0;
  /// Capture options: when true the sink is configured by `trace_sink`
  /// (bounded per-rank rings, deterministic rank sampling, event-kind
  /// filters, optional mb-trace spill) instead of keeping every record
  /// of every rank. See the AppRunResult trace fields for where the
  /// records end up.
  bool streaming_trace = false;
  trace::SinkConfig trace_sink;
  /// Metrics time series; forces one shard when enabled.
  TimeSeriesConfig timeseries;
  /// Explicit rank -> node placement. Empty = node-major packing (rank r
  /// on node r / cores_per_node). When set it must have one entry per
  /// program rank, every entry < nodes, and at most cores_per_node ranks
  /// per node; nodes may be left empty (spare nodes the advisor migrates
  /// ranks onto when one node degrades).
  std::vector<std::uint32_t> rank_map;
};

/// Ranks placed on `node` under the config's mapping (rank_map when set,
/// node-major packing otherwise). Empty for a spare node.
std::vector<std::uint32_t> ranks_on_node(const ClusterConfig& config,
                                         std::uint32_t node);

/// The Tibidabo cluster as studied in the paper (Sec. II-B / IV).
ClusterConfig tibidabo_cluster(std::uint32_t nodes);

/// Tibidabo after the switch upgrade the paper announces.
ClusterConfig upgraded_cluster(std::uint32_t nodes);

struct AppRunResult {
  double makespan_s = 0.0;
  trace::Trace trace;
  std::uint64_t network_drops = 0;  ///< buffer-overflow retransmissions
  // Failure-aware extensions (fault injection, see src/fault):
  bool completed = true;
  double failed_at_s = 0.0;  ///< event-loop drain time of a failed run
  mpi::FailureReport failure;
  std::uint64_t network_retransmits = 0;
  std::uint64_t injected_losses = 0;
  // Capture bookkeeping (streaming_trace runs only). When the sink
  // spilled to an mb-trace file, `trace` stays empty — read the file
  // (trace::read_mb_trace) instead.
  std::vector<std::uint32_t> trace_sampled_ranks;
  std::uint64_t trace_dropped = 0;  ///< records lost to ring overflow
  /// Sampled gauges; empty unless config.timeseries.enabled. The caller
  /// stamps the seed (the harness does not know the run seed).
  obs::TimeSeries timeseries;
};

/// Hook point for fault injectors: called after the cluster is wired but
/// before the program runs, with every moving part exposed. Injectors
/// schedule their events on the engine (crash_rank, set_link_state, ...)
/// so they fire at simulated times inside the run, and leave trace marks
/// through Runtime::mark_fault. Setting on_ready forces one shard
/// regardless of sim_jobs.
struct RunHooks {
  std::function<void(sim::ShardedEngine&, net::Network&,
                     const net::ClusterTopology&, mpi::Runtime&)>
      on_ready;
};

/// Runs `program` on a freshly built cluster. The program's rank count
/// must equal nodes * cores_per_node; ranks are packed node-major
/// (ranks 2k and 2k+1 share node k on the dual-core Tibidabo boards).
/// Throws on deadlock/failure (use the hooks overload to observe
/// failures structurally).
AppRunResult run_on_cluster(const ClusterConfig& config,
                            const mpi::Program& program);

/// Like above, but invokes `hooks.on_ready` before the run and never
/// throws on a failed run: `completed` is false and `failure` names the
/// dead ranks and blocked ops instead.
AppRunResult run_on_cluster(const ClusterConfig& config,
                            const mpi::Program& program,
                            const RunHooks& hooks);

}  // namespace mb::apps
