// Pass 3: abstract cost interpretation of mpi::Program schedules.
//
// The DES answers "how long does this app take on this cluster" exactly,
// but running it costs minutes at scale. This pass answers the same
// question approximately in milliseconds, walking the *lowered* program
// through the schedule cursor and mailbox the runtime and the verifier
// use (mpi::Cursor, mpi::Mailbox) against the network's published cost
// model (net/network.cpp): frames of mtu bytes, 38 bytes of Ethernet
// overhead per frame, store-and-forward latency per hop, per-link
// serialization.
//
// What it computes, without running the DES:
//
//  * per-rank and aggregate bytes sent/received and message counts —
//    exact for fault-free runs (the lowering is deterministic and the
//    runtime counts payload bytes only, never retransmissions);
//  * a makespan LOWER bound: optimistic timed abstract execution. Each
//    rank advances through its lowered schedule with the runtime's
//    overhead constants; a network message is delivered no earlier than
//    route latency + wire bytes / bottleneck bandwidth, i.e. contention
//    and queueing are ignored. Every per-op cost is <= the DES cost and
//    the dependence edges are the same, so the resulting finish times
//    bound the DES from below;
//  * a makespan UPPER bound: the fully-serialized sum — all compute, all
//    software overheads, every message's per-hop latency + transmission
//    cost as if nothing ever overlapped — plus, for links whose total
//    traffic could overflow their buffer (no-drop certificate fails), the
//    worst-case retransmit cost per frame-hop (capped exponential backoff
//    schedule + one retransmission per attempt). Any completed DES run
//    fits under it;
//  * per-link-class traffic totals and in-flight high-water estimates
//    (peak concurrent bytes assuming each collective occurrence bursts at
//    once) — the congestion facts the PERF rule pack keys on.
//
// Two walks, each lowering through mpi::Cursor as the runtime does:
//
//  1. rank-major, one rank's whole program after another: the exact
//     counts, the per-link totals, the serialized sum, the per-rank p2p
//     send runs and each collective occurrence's burst per link (a rank
//     enters occurrence k at its k-th kBeginGroup marker; rank 0's ops
//     name the occurrences);
//  2. the verifier's fixpoint (mpi::run_to_fixpoint), with per-rank
//     clocks and arrival times in the mailboxes: the lower bound.
//
// They stay two walks on purpose. makespan_serialized_s and
// total_compute_s are doubles summed in rank-major op order; the fixpoint
// visits ops in another order, which changes their last bits, and those
// bits are pinned (the fuzz digest hashes both bounds and the serialized
// sum, and perfbench checks static/upper bit for bit). The integer sums,
// bursts included, could live in either walk; the doubles cannot move.
//
// The interpreter requires a program that passes verify_program (the
// bounds of a deadlocked schedule are meaningless); analyze_cost throws
// when the abstract execution stalls or the collective sequences differ.
// It also throws, naming the rank and op, where the DES would refuse a
// network message (2^32 or more frames) and where a byte or frame total
// would pass 2^64 - 1, so every count it reports is exact. Bounds assume
// fault-free execution.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mpi/program.h"
#include "mpi/runtime.h"
#include "net/topology.h"
#include "verify/diagnostics.h"

namespace mb::verify {

/// The platform half of the question: the switch tree the program runs
/// on, how ranks pack onto nodes, and the runtime's software costs.
/// Mirrors apps::ClusterConfig (ranks are packed node-major, ranks 2k and
/// 2k+1 share node k) without depending on the apps layer.
struct CostDescriptor {
  net::TreeParams tree;
  std::uint32_t cores_per_node = 2;
  std::uint32_t mtu_bytes = net::Network::kMtuBytes;
  mpi::RuntimeConfig mpi;
};

/// Static cost facts for one rank. Byte and message counts are exact;
/// times come from the optimistic (lower-bound) schedule.
struct RankCost {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  double compute_s = 0.0;
  double finish_lower_s = 0.0;   ///< optimistic completion time
  double wait_p2p_lower_s = 0.0; ///< blocked-in-p2p-recv time, lower bound
  /// The user-visible op with the largest single p2p wait (for PERF003).
  std::size_t worst_wait_op = 0;
  double worst_wait_s = 0.0;
};

/// Aggregated traffic for one class of directed links in the tree.
struct LinkClassCost {
  std::string name;             ///< "host-up", "host-down", "uplink-up", ...
  std::uint32_t links = 0;      ///< directed links in the class
  std::uint64_t messages = 0;
  std::uint64_t wire_bytes = 0; ///< payload + 38 B/frame, summed
  std::uint64_t max_link_wire_bytes = 0;  ///< busiest single link
  /// Peak concurrent bytes on the busiest link: the largest single
  /// collective-occurrence burst plus the sum of per-rank consecutive
  /// p2p send runs. An estimate (assumes bursts arrive at once), not a
  /// bound — it drives the PERF002 incast heuristic.
  std::uint64_t max_inflight_est = 0;
  double buffer_bytes = 0.0;    ///< drop threshold per link (w/ 4*mtu floor)
  std::uint32_t congested_links = 0;  ///< links with inflight_est > buffer
  /// True when no link in the class can ever drop a frame: total wire
  /// bytes through each link fit in its buffer (frames on a message's
  /// first hop never drop, so source-side classes certify trivially).
  bool no_drop_certified = true;
};

/// One collective occurrence with its per-class burst profile (PERF002 /
/// PERF006 input). op_index is rank 0's user-visible index.
struct CollectiveCost {
  mpi::Op::Kind kind = mpi::Op::Kind::kBarrier;
  std::size_t op_index = 0;
  std::string label;
  std::uint64_t payload_bytes = 0;      ///< summed over all lowered sends
  std::uint64_t worst_host_down = 0;    ///< peak burst into one host link
  std::uint64_t worst_uplink = 0;       ///< peak burst on one uplink
};

struct CostReport {
  std::uint32_t ranks = 0;
  std::uint32_t nodes = 0;
  std::uint32_t leaves = 0;
  std::uint32_t mtu_bytes = 0;

  std::vector<RankCost> per_rank;
  std::uint64_t total_bytes = 0;        ///< payload bytes, all sends
  std::uint64_t total_messages = 0;
  std::uint64_t intra_messages = 0;     ///< same-node, bypass the network
  std::uint64_t net_messages = 0;
  std::uint64_t total_frames = 0;       ///< network frames (mtu-sized)
  double total_compute_s = 0.0;

  double makespan_lower_s = 0.0;
  double makespan_upper_s = 0.0;        ///< sound for completed runs
  /// The serialized sum without the retransmit allowance: a valid upper
  /// bound only when every link class certifies no-drop; informational
  /// otherwise (the DES can exceed it through retransmit backoff).
  double makespan_serialized_s = 0.0;
  double retransmit_allowance_s = 0.0;  ///< upper - serialized
  bool no_drop_certified = false;       ///< all classes certified

  std::vector<LinkClassCost> link_classes;
  std::vector<CollectiveCost> collectives;

  // Convenience summaries over per_rank (payload bytes).
  std::uint64_t max_rank_bytes = 0;
  double mean_rank_bytes = 0.0;
};

/// Runs the abstract cost interpretation. Requires ranks ==
/// tree.nodes * cores_per_node and a program that terminates under
/// abstract execution (verify_program clean of errors); throws otherwise.
CostReport analyze_cost(const mpi::Program& program,
                        const CostDescriptor& descriptor);

/// Human rendering: a summary block plus per-link-class and top-rank
/// tables.
std::string render_cost(const CostReport& report);

/// JSON rendering — the "mb-static-analysis" schema, version 1. `source`
/// names the analyzed app, `seed` its effective seed. `findings` (may be
/// empty) embeds a diagnostics report in the mb-diagnostics findings
/// shape so one artifact carries both the bounds and the PERF findings.
std::string static_analysis_to_json(const CostReport& report,
                                    std::string_view source,
                                    std::uint64_t seed,
                                    const Report& findings);

}  // namespace mb::verify
