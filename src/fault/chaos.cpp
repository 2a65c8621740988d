#include "fault/chaos.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "support/check.h"
#include "verify/fault_lint.h"

namespace mb::fault {
namespace {

net::NodeId leaf_of(const net::ClusterTopology& topo,
                    const apps::ClusterConfig& config, std::uint32_t node) {
  return topo.leaf_switches.size() == 1
             ? topo.leaf_switches[0]
             : topo.leaf_switches[node / config.tree.switch_ports];
}

/// Arms every remaining fault on the freshly wired cluster. Injection
/// events are ordinary engine events, so they fire at their simulated
/// times inside the run, interleaved with the application. Fault marks
/// go through the runtime's trace sink: an instant kFault record on the
/// first rank of the affected node (viewers render them as global
/// instants, the rank only picks a track). `carried` holds the marks of
/// failed attempts, re-emitted before the run so a recovered run still
/// shows what it recovered from.
apps::RunHooks make_injector(const apps::ClusterConfig& config,
                             const FaultPlan& plan,
                             std::vector<trace::Record> carried) {
  // The scheduled lambdas below fire inside engine.run_all(), long after
  // on_ready has returned: they may only capture by value, or reference
  // the hook parameters (whose referents live through the run).
  apps::RunHooks hooks;
  hooks.on_ready = [&config, plan, carried = std::move(carried)](
                       sim::ShardedEngine& engine, net::Network& network,
                       const net::ClusterTopology& topo,
                       mpi::Runtime& runtime) {
    for (const trace::Record& r : carried)
      runtime.mark_fault(r.rank, r.t0, r.label);

    // Faults target *nodes*; which ranks that hits depends on the
    // placement (rank_map-aware). A spare node carries no ranks, so a
    // slowdown or crash there only drops the host link / leaves a mark.
    const auto node_ranks = [&config](std::uint32_t node) {
      return apps::ranks_on_node(config, node);
    };
    const auto mark_rank = [](const std::vector<std::uint32_t>& ranks) {
      return ranks.empty() ? 0u : ranks.front();
    };

    for (const NodeCrash& c : plan.crashes) {
      const net::NodeId host = topo.hosts[c.node];
      const net::NodeId leaf = leaf_of(topo, config, c.node);
      const std::uint32_t node = c.node;
      const std::vector<std::uint32_t> ranks = node_ranks(node);
      const std::uint32_t track = mark_rank(ranks);
      engine.schedule(host, c.at_s, [&engine, &network, &runtime, host, leaf,
                                     node, ranks, track] {
        for (std::uint32_t r : ranks) runtime.crash_rank(r);
        network.set_link_state(host, leaf, false);
        runtime.mark_fault(track, engine.now(),
                           "crash:node" + std::to_string(node));
        obs::metrics().counter("fault.crashes").add(1.0);
      });
    }

    for (const NodeSlowdown& s : plan.slowdowns) {
      const net::NodeId host = topo.hosts[s.node];
      const std::uint32_t node = s.node;
      const double factor = s.factor;
      const std::vector<std::uint32_t> ranks = node_ranks(node);
      const std::uint32_t track = mark_rank(ranks);
      engine.schedule(host, s.at_s, [&engine, &runtime, node, ranks, track,
                                     factor] {
        for (std::uint32_t r : ranks) runtime.set_rank_slowdown(r, factor);
        runtime.mark_fault(track, engine.now(),
                           "slowdown:node" + std::to_string(node));
        obs::metrics().counter("fault.slowdowns").add(1.0);
      });
      engine.schedule(host, s.until_s, [&engine, &runtime, node, ranks,
                                        track] {
        for (std::uint32_t r : ranks) runtime.set_rank_slowdown(r, 1.0);
        runtime.mark_fault(track, engine.now(),
                           "slowdown_end:node" + std::to_string(node));
      });
    }

    for (const LinkDownWindow& d : plan.link_downs) {
      const net::NodeId host = topo.hosts[d.node];
      const net::NodeId leaf = leaf_of(topo, config, d.node);
      const std::uint32_t node = d.node;
      const std::uint32_t track = mark_rank(node_ranks(node));
      engine.schedule(host, d.at_s, [&engine, &network, &runtime, host, leaf,
                                     node, track] {
        network.set_link_state(host, leaf, false);
        runtime.mark_fault(track, engine.now(),
                           "link_down:node" + std::to_string(node));
        obs::metrics().counter("fault.link_downs").add(1.0);
      });
      engine.schedule(host, d.until_s, [&engine, &network, &runtime, host,
                                        leaf, node, track] {
        network.set_link_state(host, leaf, true);
        runtime.mark_fault(track, engine.now(),
                           "link_up:node" + std::to_string(node));
      });
    }

    for (const FrameLoss& l : plan.losses) {
      // Loss applies from t=0; each link derives its own RNG stream from
      // the plan seed so scenarios replay bit-identically.
      network.set_link_loss(
          topo.hosts[l.node], leaf_of(topo, config, l.node), l.probability,
          plan.seed ^ (0x9E3779B97F4A7C15ULL * (l.node + 1)));
      obs::metrics().counter("fault.loss_links").add(1.0);
    }
  };
  return hooks;
}

}  // namespace

ChaosResult run_chaos(const ChaosScenario& scenario,
                      const mpi::Program& program) {
  // Defensive lint: callers should have gated on this already, but an
  // unchecked plan (crash of a nonexistent node) must not become an
  // out-of-bounds topo access.
  const verify::Report lint =
      verify::lint_fault_plan(scenario.plan, scenario.cluster.nodes);
  support::check(!lint.has_errors(), "run_chaos",
                 "fault plan failed lint:\n" + render_diagnostics(lint));

  const CheckpointConfig& cp = scenario.plan.checkpoint;
  const double write_s = cp.enabled ? cp.cost_s() : 0.0;
  const double read_s =
      cp.enabled ? cp.state_bytes_per_rank / cp.read_bandwidth_bytes_per_s
                 : 0.0;

  FaultPlan remaining = scenario.plan;
  ChaosResult result;
  // Fault marks of failed attempts, carried into the next attempt's sink.
  std::vector<trace::Record> past_faults;
  for (std::uint32_t attempt = 1;; ++attempt) {
    result.attempts = attempt;
    apps::AppRunResult run = apps::run_on_cluster(
        scenario.cluster, program,
        make_injector(scenario.cluster, remaining, past_faults));
    result.network_drops += run.network_drops;
    result.retransmits += run.network_retransmits;
    result.injected_losses += run.injected_losses;
    result.trace = std::move(run.trace);
    result.trace_sampled_ranks = std::move(run.trace_sampled_ranks);
    result.trace_dropped = run.trace_dropped;
    result.timeseries = std::move(run.timeseries);

    if (run.completed) {
      result.completed = true;
      result.recovered = attempt > 1;
      result.app_makespan_s = run.makespan_s;
      // The successful attempt still pays for its periodic checkpoints.
      if (cp.enabled) {
        result.recovery.checkpoint_write_s +=
            std::floor(run.makespan_s / cp.interval_s) * write_s;
      }
      break;
    }

    result.failure = run.failure;
    const bool recoverable = cp.enabled && !run.failure.dead_ranks.empty() &&
                             !remaining.crashes.empty() &&
                             attempt <= scenario.max_restarts;
    if (!recoverable) break;

    // The earliest remaining crash is what brought the attempt down. The
    // job is declared dead when the failure detector last fired; without
    // detection (recv_timeout_s == 0) that only happens at event-loop
    // drain — after every retransmit timer has run its course.
    double t_crash = remaining.crashes.front().at_s;
    for (const NodeCrash& c : remaining.crashes)
      t_crash = std::min(t_crash, c.at_s);
    const double detect = run.failure.detected_s > 0.0
                              ? run.failure.detected_s
                              : run.failed_at_s;
    const double t_detect = std::max(detect, t_crash);
    const double completed_cps = std::floor(t_crash / cp.interval_s);
    const double last_cp = completed_cps * cp.interval_s;

    result.recovery.lost_work_s += t_crash - last_cp;
    result.recovery.detection_s += t_detect - t_crash;
    result.recovery.restart_s += cp.restart_overhead_s + read_s;
    result.recovery.checkpoint_write_s += completed_cps * write_s;

    // Rebuild from the current trace (it already holds the carried
    // marks) rather than appending — avoids duplicates across attempts.
    // Marks the capture options filtered out stay out.
    past_faults.clear();
    for (const trace::Record& r : result.trace.records())
      if (r.kind == trace::EventKind::kFault) past_faults.push_back(r);

    // Crashes that already fired stay dead history — the restarted run
    // faces only the faults still ahead of it. Slowdowns, link windows
    // and loss persist (the hardware did not heal).
    remaining.crashes.erase(
        std::remove_if(remaining.crashes.begin(), remaining.crashes.end(),
                       [t_detect](const NodeCrash& c) {
                         return c.at_s <= t_detect;
                       }),
        remaining.crashes.end());
  }

  result.time_to_solution_s = result.app_makespan_s + result.recovery.total();

  obs::Registry& registry = obs::metrics();
  registry.counter("recovery.restarts")
      .add(static_cast<double>(result.attempts - 1));
  registry.counter("recovery.lost_work_s").add(result.recovery.lost_work_s);
  registry.counter("recovery.checkpoint_write_s")
      .add(result.recovery.checkpoint_write_s);
  registry.counter("recovery.restart_s").add(result.recovery.restart_s);
  registry.counter("recovery.detection_s").add(result.recovery.detection_s);
  return result;
}

}  // namespace mb::fault
