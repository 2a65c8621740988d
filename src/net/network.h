// Packet-level Ethernet network simulator.
//
// Models the Tibidabo interconnect of Section IV: nodes with GbE NICs wired
// through store-and-forward switches (48-port 1 GbE in the paper). Messages
// are cut into MTU-sized frames; every directed link serializes frames
// (busy-until bookkeeping on the event queue), so output-port contention —
// the cause of the delayed all_to_all_v collectives in Fig. 4 — emerges
// naturally from concurrent flows sharing an uplink.
//
// Engine notes: every frame hop is an event on the sim::ShardedEngine,
// homed on the link's receiving endpoint, so the same model runs on one
// shard (the serial engine) or on one shard per leaf-switch subtree.
//
// Layout notes (DESIGN.md §10): per-link state lives in parallel arrays
// keyed by directed-link index — the hot fields a frame touches
// (busy_until, bandwidth, latency, buffer limit) are separate from cold
// spec/stats/fault state, so the forward() inner loop stays in cache at
// 10k+ simulated ranks. Frames carry no path: each hop looks up the next
// link from compact routing rows (only nodes with degree > 1 get a row;
// leaf hosts take their only link), and in-flight messages are pooled
// (support::Pool) instead of heap-allocated per send. A pooled message is
// 64 bytes: counters plus the inline delivery callback. The rarely set
// failure hook lives out of line (see Network::Message).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/sharded.h"
#include "support/arena.h"
#include "support/rng.h"

namespace mb::net {

/// One direction of a cable: bandwidth, propagation+processing latency,
/// and the output-port buffering of the upstream device. When the queue in
/// front of the link exceeds `buffer_bytes`, newly arriving frames are
/// dropped and retransmitted — the TCP-over-cheap-GbE behaviour behind the
/// paper's "sometimes delayed" collectives (incast on all_to_all_v
/// overflows the switch buffers). Retransmission uses capped exponential
/// backoff: attempt k waits retransmit_timeout_s * retransmit_backoff^k,
/// clamped to retransmit_timeout_max_s; after max_retransmits consecutive
/// failed attempts at one hop the frame is abandoned and the whole
/// message fails (see Network::send's on_failed).
struct LinkSpec {
  double bandwidth_bytes_per_s = 0.0;
  double latency_s = 0.0;
  double buffer_bytes = 1e18;          ///< effectively infinite by default
  double retransmit_timeout_s = 0.2;   ///< base RTO (Linux TCP minimum)
  double retransmit_backoff = 2.0;     ///< per-attempt delay multiplier
  double retransmit_timeout_max_s = 5.0;  ///< backoff cap
  std::uint32_t max_retransmits = 16;  ///< give-up threshold per hop, <= 2^31
};

/// Vertex id in the network graph (hosts and switches share the space).
using NodeId = std::uint32_t;

/// Statistics per directed link (for congestion analysis).
struct LinkStats {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t drops = 0;    ///< buffer-overflow drops (retransmitted)
  std::uint64_t retransmits = 0;     ///< frames rescheduled with backoff
  std::uint64_t injected_losses = 0; ///< Bernoulli losses (fault injection)
  std::uint64_t down_drops = 0;      ///< frames hitting a downed link
  std::uint64_t gave_up = 0;         ///< frames abandoned after max retries
  double busy_s = 0.0;        ///< cumulated transmission time
  double queued_s = 0.0;      ///< cumulated waiting-for-link time
  double max_queue_s = 0.0;   ///< worst single-frame queueing delay
};

class Network {
 public:
  static constexpr std::uint32_t kMtuBytes = 1500;

  /// `mtu_bytes` sets frame granularity. 1500 (Ethernet) gives full
  /// congestion fidelity; large values coarsen messages into few frames —
  /// used to make month-long HPL runs simulable while keeping link
  /// serialization and queueing behaviour.
  explicit Network(sim::ShardedEngine& engine,
                   std::uint32_t mtu_bytes = kMtuBytes);

  std::uint32_t mtu() const { return mtu_; }

  /// Adds a vertex; `is_switch` only matters for reporting.
  NodeId add_node(std::string name, bool is_switch);

  /// Adds a full-duplex edge (two directed links with `spec` each).
  void add_link(NodeId a, NodeId b, LinkSpec spec);

  /// Computes routes (BFS shortest path; the topologies here are trees).
  /// Must be called after the graph is final and before send().
  void finalize_routes();

  using Callback = sim::EventQueue::Callback;

  /// Sends `bytes` from `src` to `dst`; invokes `on_delivered` when the
  /// last frame arrives. Zero-byte messages are sent as one header frame;
  /// a message of 2^32 or more frames is rejected before anything is
  /// scheduled. When any frame exhausts its per-hop retransmit budget the
  /// message is abandoned: `on_failed` (if given) fires once and
  /// `on_delivered` never does. Without `on_failed` an abandoned message
  /// is simply lost — the caller's own timeout must notice. Abandonment
  /// is a hard error with more than one shard (fault injection needs the
  /// one-shard engine), so there `on_failed` could never run and is
  /// dropped.
  void send(NodeId src, NodeId dst, std::uint64_t bytes,
            Callback on_delivered, Callback on_failed = nullptr);

  /// Fault injection: degrades both directions of the a-b cable —
  /// bandwidth is multiplied by `bandwidth_factor` (in (0, 1]) and
  /// `extra_latency_s` is added per frame. Models a renegotiated-down or
  /// error-prone link (a failing NIC, a bad cable): the straggler-maker
  /// of real clusters. May be called after finalize_routes().
  void degrade_link(NodeId a, NodeId b, double bandwidth_factor,
                    double extra_latency_s);

  /// Fault injection: takes both directions of the a-b cable down (or back
  /// up). A downed link transmits nothing; frames queued on it retry with
  /// backoff and either survive the outage or exhaust their retransmit
  /// budget. May be called after finalize_routes().
  void set_link_state(NodeId a, NodeId b, bool up);

  /// True when the directed link a->b is up. Throws if absent.
  bool link_up(NodeId a, NodeId b) const;

  /// Fault injection: every frame crossing either direction of the a-b
  /// cable is independently lost with `probability` (in [0, 1)). Lost
  /// frames consumed wire time and are retransmitted with backoff. The
  /// per-direction RNG streams derive from `seed`, so identical seeds
  /// reproduce identical loss patterns.
  void set_link_loss(NodeId a, NodeId b, double probability,
                     std::uint64_t seed);

  std::size_t nodes() const { return names_.size(); }
  const std::string& name(NodeId n) const { return names_[n]; }
  bool is_switch(NodeId n) const { return is_switch_[n]; }

  /// Messages accepted by send() whose frames are still somewhere on the
  /// wire (delivery or abandonment pending). A live congestion gauge for
  /// the metrics time-series sampler; atomic because messages complete
  /// on their destination's shard.
  std::uint64_t in_flight_messages() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

  /// Stats of the directed link a->b. Throws if absent.
  const LinkStats& link_stats(NodeId a, NodeId b) const;

  /// Number of hops of the current route (for tests).
  std::size_t route_hops(NodeId src, NodeId dst) const;

  /// Directed-link enumeration, used by the sharded engine to derive its
  /// conservative lookahead (min latency over cross-shard links).
  std::size_t link_count() const { return from_.size(); }
  NodeId link_from(std::size_t li) const { return from_[li]; }
  NodeId link_to(std::size_t li) const { return to_[li]; }
  double link_latency_s(std::size_t li) const { return latency_[li]; }

 private:
  /// Shared fate of one message's frames: delivery fires when the last
  /// frame lands; a single abandoned frame fails the whole message.
  /// Pool-allocated; `refs` counts in-flight frame chains (plus a pending
  /// on_failed dispatch) and frees the record when it reaches zero. All
  /// touches of one message happen on the destination's shard (or, for
  /// failures, on the one-shard engine), so the counters stay plain.
  /// send() caps a message at 2^32 - 1 frames, so both counters fit 32
  /// bits. `on_failed` is not here: `hook` indexes failed_hooks_, or is
  /// kNoHook when the sender gave none (or the engine has several shards).
  struct Message {
    std::uint32_t remaining = 0;
    std::uint32_t refs = 0;
    std::uint32_t hook = 0;
    bool failed = false;
    Callback on_delivered;
  };
  static_assert(sizeof(Message) == 64,
                "~482k messages are in flight at bigdft/1024's peak");

  static constexpr std::uint32_t kNoHop = ~std::uint32_t{0};
  static constexpr std::uint32_t kNoHook = ~std::uint32_t{0};

  std::size_t link_index(NodeId a, NodeId b) const;
  /// Next directed link from `cur` toward `dst`; kNoHop when unroutable.
  std::uint32_t hop_link(NodeId cur, NodeId dst) const;
  /// Validates reachability and returns the first link of the route.
  std::uint32_t route_first_link(NodeId src, NodeId dst, const char* where) const;
  void forward(std::uint32_t li, std::uint32_t frame_bytes, NodeId dst,
               std::uint32_t attempt, bool first_hop, Message* msg);
  void retransmit(std::uint32_t li, std::uint32_t frame_bytes, NodeId dst,
                  std::uint32_t attempt, bool first_hop, Message* msg);
  void release_ref(Message* msg);
  /// Parks `on_failed` in a free failed_hooks_ entry and returns its index.
  std::uint32_t park_hook(Callback on_failed);

  sim::ShardedEngine& engine_;
  std::uint32_t mtu_;
  std::vector<std::string> names_;
  std::vector<bool> is_switch_;
  std::vector<std::vector<std::uint32_t>> adjacency_;  // node -> link idxs

  // Directed links, struct-of-arrays. Hot (read per frame per hop):
  std::vector<NodeId> from_;
  std::vector<NodeId> to_;
  std::vector<double> busy_until_;
  std::vector<double> bandwidth_;      ///< bytes/s, tracks degrade_link
  std::vector<double> latency_;        ///< seconds, tracks degrade_link
  std::vector<double> buffer_limit_;   ///< max(spec.buffer_bytes, 4*mtu)
  std::vector<double> loss_prob_;
  std::vector<std::uint8_t> up_;
  // Cold (faults, reporting):
  std::vector<LinkSpec> spec_;
  std::vector<support::Rng> loss_rng_;
  std::vector<LinkStats> stats_;

  // Routing: row_of_[n] indexes rows_ for nodes with degree > 1
  // (kNoHop otherwise — degree-1 nodes take their only link).
  std::vector<std::uint32_t> row_of_;
  std::vector<std::vector<std::uint32_t>> rows_;  // row -> dst -> link
  bool routed_ = false;

  support::Pool<Message, true> msg_pool_;
  std::atomic<std::uint64_t> in_flight_{0};
  // Failure hooks of in-flight messages, with a free list. Filled only on
  // a one-shard engine (with more shards abandonment throws before any
  // hook could run), so the store is single-threaded and needs no lock.
  // Revisit when abandonment learns to cross shards (ROADMAP, "Every run
  // can shard").
  std::vector<Callback> failed_hooks_;
  std::vector<std::uint32_t> free_hooks_;
};

}  // namespace mb::net
