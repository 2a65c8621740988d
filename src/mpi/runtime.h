// MPI-like runtime executing rank programs over the network simulator.
//
// Each rank is a little state machine advancing through its op list:
// compute schedules a wakeup, buffered sends hand the payload to the
// (simulated) NIC and complete after the software send overhead,
// receives block until the matching (source, tag) message arrives in the
// rank's mailbox (mpi/mailbox.h). Collectives are lowered to
// point-to-point ops on the fly, one step at a time, by each rank's
// schedule cursor (mpi::Cursor in mpi/program.h), and traced as single
// intervals; no lowered op list is ever stored.
//
// Failure semantics (fault-injection support): ranks can be crashed
// mid-run (fail-stop) or slowed down; a configurable receive timeout
// turns a lost peer into a structured FailureReport — naming the dead
// rank and every blocked op — instead of a hung event loop, and sends
// can opt into retry-with-backoff when the network abandons a message.
// Fault injection requires a one-shard engine (see below).
//
// Engine notes: the runtime schedules on the sim::ShardedEngine, homing
// every event on the host of the rank whose state it touches, so it runs
// unchanged on one shard (the serial engine) and on many. Per-rank state
// is only ever touched by the owning shard's worker; cross-rank effects
// travel through Network::send. Metric updates accumulate in per-rank
// buckets flushed to the obs registry rank-major after the run (the
// registry is single-threaded by design), and trace records go to a
// trace::StreamingSink whose contract matches shard ownership: emits may
// race across ranks but never within one, and the sink keeps one ring
// per rank that the caller drains rank-major — deterministic for any
// shard or worker count.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mpi/mailbox.h"
#include "mpi/program.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "sim/sharded.h"
#include "trace/sink.h"
#include "trace/trace.h"

namespace mb::mpi {

struct RuntimeConfig {
  double send_overhead_s = 25e-6;  ///< software cost to post a send
  double recv_overhead_s = 20e-6;  ///< software cost to complete a receive
  /// Intra-node transfers (ranks on the same host) bypass the network:
  double intra_latency_s = 3e-6;
  double intra_bandwidth_bytes_per_s = 1.2e9;
  /// Statically verify the program before executing it (verify::
  /// verify_program). Error findings abort the run with the rendered
  /// diagnostics — naming the rank, op and wait-for cycle — instead of
  /// the event loop draining into an opaque "deadlock" failure. Opt out
  /// for programs known-clean when re-running in a hot loop.
  bool verify = true;
  /// Failure detector: a receive blocked longer than this is declared
  /// dead (the rank stops, the blocked op lands in the FailureReport).
  /// 0 disables detection — a lost peer then only surfaces when the
  /// event loop drains. Set it above the longest legitimate wait.
  /// Must be 0 with more than one shard (one-shard engine only).
  double recv_timeout_s = 0.0;
  /// Opt-in send retry: when the network abandons a message (link down
  /// past the retransmit budget), re-post it up to this many times with
  /// exponential backoff (the delay doubles per attempt). 0 = a failed
  /// send is simply lost.
  std::uint32_t max_send_retries = 0;
  double send_retry_base_s = 0.05;
};

/// One receive that never completed in a failed run.
struct BlockedOp {
  std::uint32_t rank = 0;
  std::uint32_t peer = 0;   ///< the (dead or silent) rank waited on
  std::int32_t tag = 0;
  /// Index in the rank's lowered sequence (mpi::Cursor::index): user
  /// ops count one each, a collective its steps plus two group markers.
  std::size_t op_index = 0;
  double since_s = 0.0;     ///< when the rank blocked
  bool timed_out = false;   ///< detected by the failure detector
};

/// Structured account of why a run did not complete: which ranks were
/// crashed (fail-stop injection) and which receives were left blocked —
/// on the dead ranks directly or transitively (peer-death propagation).
struct FailureReport {
  std::vector<std::uint32_t> dead_ranks;
  std::vector<BlockedOp> blocked;
  /// Simulation time the failure detector last fired (0 when detection
  /// was disabled and the failure only surfaced at event-loop drain).
  double detected_s = 0.0;

  bool failed() const { return !dead_ranks.empty() || !blocked.empty(); }
  std::string to_string() const;
};

/// Non-throwing run result: completion flag, makespan and — when ranks
/// were lost — the failure report. `drained_s` is the simulation time at
/// which the event loop ran dry (failure-detection latency included);
/// checkpoint/restart models use it as the moment recovery can begin.
struct RunOutcome {
  bool completed = false;
  double makespan_s = 0.0;
  double drained_s = 0.0;
  FailureReport failure;
};

class Runtime {
 public:
  /// `rank_to_host[r]` is the network vertex hosting rank r (several
  /// ranks may share one host — the dual-core Tibidabo nodes).
  /// `sink` receives the trace records and may be null (no tracing); it
  /// must outlive the runtime, and the caller closes/drains it after the
  /// run.
  Runtime(sim::ShardedEngine& engine, net::Network& network,
          std::vector<net::NodeId> rank_to_host, RuntimeConfig config,
          trace::StreamingSink* sink);

  /// Runs `program` to completion; returns the makespan (seconds from
  /// start to the last rank finishing). Throws on deadlock.
  double run(const Program& program);

  /// Like run(), but a non-completing program yields a structured
  /// RunOutcome instead of throwing (static verification errors still
  /// throw — a malformed program is a bug, not a simulated failure, and
  /// so do, before the first event and with verification off too, user
  /// tags >= kUserTagLimit, alltoallv counts that do not name every rank,
  /// send peers and the roots of bcast, reduce, gather and scatter outside
  /// the program, and more collectives than the tag space holds; each
  /// such error names the rank and the op index). The program must
  /// outlive the run.
  RunOutcome run_outcome(const Program& program);

  /// Fault injection: fail-stop `rank` at the current simulation time.
  /// The rank executes nothing further; messages to it are dropped.
  /// Only valid while a run is in flight (schedule it on the engine).
  void crash_rank(std::uint32_t rank);

  /// Fault injection: multiplies the duration of `rank`'s subsequent
  /// compute ops by `factor` (>= 1 slows, 1 restores). Models the Fig. 5
  /// two-state degraded mode at cluster scope. Only valid while a run is
  /// in flight.
  void set_rank_slowdown(std::uint32_t rank, double factor);

  /// Fault injection: records an instant kFault mark at `t_s` on
  /// `rank`'s track, through the sink like every other record (capture
  /// filters apply).
  void mark_fault(std::uint32_t rank, double t_s, Label label);

 private:
  /// Metric deltas accumulated on the owning shard, flushed rank-major
  /// to the single-threaded obs registry after the run.
  struct RankMetrics {
    double bytes_sent = 0.0;
    double bytes_received = 0.0;
    double time_collective = 0.0;
    double time_p2p = 0.0;
    double time_wait = 0.0;
    double retries = 0.0;
    double recv_timeouts = 0.0;
  };

  struct RankState {
    RankState(const Program& program, std::uint32_t rank)
        : cursor(program, rank) {}
    Cursor cursor;  ///< the rank's position in its lowered schedule
    bool crashed = false;
    bool timed_out = false;
    bool done = false;
    double slow_factor = 1.0;
    double finish_time = 0.0;
    double group_start = 0.0;
    double wait_start = 0.0;  ///< when the rank last blocked on a recv
    std::size_t wait_op = 0;  ///< op index of the blocking receive
    std::uint64_t wait_epoch = 0;  ///< guards stale timeout events
    bool in_group = false;  ///< inside a labelled collective: no p2p records
    // Arrived-but-unmatched messages (payload sizes, FIFO per key) and
    // the receive each op waits for. Receives take the size from the
    // matched message — recv ops carry no byte count of their own.
    Mailbox<std::uint64_t> mailbox;
    std::optional<std::pair<std::uint32_t, std::int32_t>> waiting;
  };

  void advance(std::uint32_t rank);
  void deliver(std::uint32_t dst_rank, std::uint32_t src_rank,
               std::int32_t tag, std::uint64_t bytes);
  void post_send(std::uint32_t src_rank, std::uint32_t dst_rank,
                 std::int32_t tag, std::uint64_t bytes,
                 std::uint32_t attempt);
  void on_recv_timeout(std::uint32_t rank, std::uint64_t epoch);
  void record(std::uint32_t rank, double t0, double t1,
              trace::EventKind kind, Label label, std::uint64_t bytes);
  void schedule_for(std::uint32_t rank, double delay_s,
                    sim::ShardedEngine::Callback cb);
  void flush_observability(std::uint32_t ranks);

  sim::ShardedEngine& engine_;
  net::Network& network_;
  std::vector<net::NodeId> rank_to_host_;
  RuntimeConfig config_;
  trace::StreamingSink* sink_;  ///< where record() delivers; null = none
  // Registry instrumentation (handles resolved once in the constructor;
  // updates deferred to the post-run flush). Per-rank traffic plus the
  // collective / p2p-overhead / blocked-receive time split the paper's
  // Fig. 4 analysis needs. Wait time overlaps collective time when a
  // lowered collective blocks internally — they are different lenses,
  // not a partition.
  std::vector<obs::Counter*> bytes_sent_;
  std::vector<obs::Counter*> bytes_received_;
  obs::Counter* time_collective_;
  obs::Counter* time_p2p_;
  obs::Counter* time_wait_;
  obs::Counter* retries_;
  obs::Counter* recv_timeouts_;
  std::vector<RankState> states_;
  std::vector<RankMetrics> metrics_;
  FailureReport failure_;
};

}  // namespace mb::mpi
