#include "net/network.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <utility>

#include "support/check.h"

namespace mb::net {

namespace {

constexpr std::uint32_t kMaxRetransmits = 1u << 31;

double backoff_delay(const LinkSpec& spec, std::uint32_t attempt) {
  const double raw = spec.retransmit_timeout_s *
                     std::pow(spec.retransmit_backoff,
                              static_cast<double>(attempt));
  return std::min(raw, spec.retransmit_timeout_max_s);
}
}  // namespace

Network::Network(sim::ShardedEngine& engine, std::uint32_t mtu_bytes)
    : engine_(engine), mtu_(mtu_bytes) {
  support::check(mtu_bytes >= 64, "Network", "MTU must be at least 64 bytes");
}

NodeId Network::add_node(std::string name, bool is_switch) {
  support::check(!routed_, "Network::add_node",
                 "graph is frozen after finalize_routes");
  names_.push_back(std::move(name));
  is_switch_.push_back(is_switch);
  adjacency_.emplace_back();
  return static_cast<NodeId>(names_.size() - 1);
}

void Network::add_link(NodeId a, NodeId b, LinkSpec spec) {
  support::check(!routed_, "Network::add_link",
                 "graph is frozen after finalize_routes");
  support::check(a < names_.size() && b < names_.size(), "Network::add_link",
                 "unknown node");
  support::check(a != b, "Network::add_link", "no self links");
  support::check(spec.bandwidth_bytes_per_s > 0.0, "Network::add_link",
                 "bandwidth must be positive");
  // A pending retransmit packs its attempt and first-hop bit in one word.
  support::check(spec.max_retransmits <= kMaxRetransmits, "Network::add_link",
                 "max_retransmits must be at most 2^31");
  for (auto [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    adjacency_[from].push_back(static_cast<std::uint32_t>(from_.size()));
    from_.push_back(from);
    to_.push_back(to);
    busy_until_.push_back(0.0);
    bandwidth_.push_back(spec.bandwidth_bytes_per_s);
    latency_.push_back(spec.latency_s);
    buffer_limit_.push_back(
        std::max<double>(spec.buffer_bytes, 4.0 * mtu_));
    loss_prob_.push_back(0.0);
    up_.push_back(1);
    spec_.push_back(spec);
    loss_rng_.emplace_back();
    stats_.emplace_back();
  }
}

void Network::finalize_routes() {
  support::check(!routed_, "Network::finalize_routes", "already routed");
  const std::size_t n = names_.size();
  // Routing rows only where there is a choice: one BFS per degree>1 node,
  // recording the first link out of it on the shortest path to every
  // destination (the BFS-root-child trick). O(rows * n) space instead of
  // the old O(n^2) next-hop matrix — the difference between megabytes and
  // gigabytes at 16k simulated ranks.
  row_of_.assign(n, kNoHop);
  rows_.clear();
  std::vector<std::uint32_t> via(n, kNoHop);
  std::vector<bool> seen(n, false);
  for (NodeId u = 0; u < n; ++u) {
    if (adjacency_[u].size() <= 1) continue;
    row_of_[u] = static_cast<std::uint32_t>(rows_.size());
    via.assign(n, kNoHop);
    seen.assign(n, false);
    seen[u] = true;
    std::deque<NodeId> frontier{u};
    while (!frontier.empty()) {
      const NodeId cur = frontier.front();
      frontier.pop_front();
      for (const std::uint32_t li : adjacency_[cur]) {
        const NodeId nb = to_[li];
        if (seen[nb]) continue;
        seen[nb] = true;
        via[nb] = cur == u ? li : via[cur];
        frontier.push_back(nb);
      }
    }
    rows_.push_back(via);
  }
  routed_ = true;
}

std::size_t Network::link_index(NodeId a, NodeId b) const {
  for (const std::uint32_t li : adjacency_[a])
    if (to_[li] == b) return li;
  support::fail("Network::link_index", "no such link");
}

std::uint32_t Network::hop_link(NodeId cur, NodeId dst) const {
  if (row_of_[cur] != kNoHop) return rows_[row_of_[cur]][dst];
  const auto& adj = adjacency_[cur];
  return adj.size() == 1 ? adj[0] : kNoHop;
}

std::uint32_t Network::route_first_link(NodeId src, NodeId dst,
                                        const char* where) const {
  const std::uint32_t first = hop_link(src, dst);
  std::uint32_t li = first;
  std::size_t hops = 0;
  NodeId cur = src;
  while (cur != dst) {
    support::check(li != kNoHop && hops < names_.size(), where, "no route");
    cur = to_[li];
    ++hops;
    if (cur != dst) li = hop_link(cur, dst);
  }
  return first;
}

const LinkStats& Network::link_stats(NodeId a, NodeId b) const {
  return stats_[link_index(a, b)];
}

void Network::degrade_link(NodeId a, NodeId b, double bandwidth_factor,
                           double extra_latency_s) {
  support::check(bandwidth_factor > 0.0 && bandwidth_factor <= 1.0,
                 "Network::degrade_link",
                 "bandwidth factor must be in (0, 1]");
  support::check(extra_latency_s >= 0.0, "Network::degrade_link",
                 "extra latency must be non-negative");
  for (auto [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    const std::size_t li = link_index(from, to);
    spec_[li].bandwidth_bytes_per_s *= bandwidth_factor;
    spec_[li].latency_s += extra_latency_s;
    bandwidth_[li] = spec_[li].bandwidth_bytes_per_s;
    latency_[li] = spec_[li].latency_s;
  }
}

void Network::set_link_state(NodeId a, NodeId b, bool up) {
  for (auto [from, to] : {std::pair{a, b}, std::pair{b, a}})
    up_[link_index(from, to)] = up ? 1 : 0;
}

bool Network::link_up(NodeId a, NodeId b) const {
  return up_[link_index(a, b)] != 0;
}

void Network::set_link_loss(NodeId a, NodeId b, double probability,
                            std::uint64_t seed) {
  support::check(probability >= 0.0 && probability < 1.0,
                 "Network::set_link_loss",
                 "loss probability must be in [0, 1)");
  for (auto [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    const std::size_t li = link_index(from, to);
    loss_prob_[li] = probability;
    // Decorrelate the two directions (and distinct cables sharing a seed)
    // by folding the directed link index into the stream seed.
    std::uint64_t state = seed + 0x9E3779B97F4A7C15ULL * (li + 1);
    loss_rng_[li] = support::Rng(support::splitmix64(state));
  }
}

std::size_t Network::route_hops(NodeId src, NodeId dst) const {
  support::check(routed_, "Network::route_hops", "call finalize_routes first");
  std::size_t hops = 0;
  NodeId cur = src;
  while (cur != dst) {
    const std::uint32_t li = hop_link(cur, dst);
    support::check(li != kNoHop && hops < names_.size(), "Network::route_hops",
                   "no route");
    cur = to_[li];
    ++hops;
  }
  return hops;
}

void Network::send(NodeId src, NodeId dst, std::uint64_t bytes,
                   Callback on_delivered, Callback on_failed) {
  support::check(routed_, "Network::send", "call finalize_routes first");
  support::check(src < names_.size() && dst < names_.size(), "Network::send",
                 "unknown node");
  support::check(static_cast<bool>(on_delivered), "Network::send",
                 "delivery callback required");

  if (src == dst) {
    // Loopback: deliver immediately (caller models any memcpy cost).
    engine_.schedule(dst, engine_.now(), std::move(on_delivered));
    return;
  }

  const std::uint32_t first = route_first_link(src, dst, "Network::send");

  const std::uint64_t frames = frames_of(bytes, mtu_);
  support::check(frames <= kMaxFrames, "Network::send",
                 "message of 2^32 or more frames");
  // With more shards an abandoned message throws in retransmit(), so the
  // hook could never run: keep it only on the one-shard engine.
  const std::uint32_t hook = on_failed && engine_.shards() == 1
                                 ? park_hook(std::move(on_failed))
                                 : kNoHook;
  Message* msg = msg_pool_.allocate();
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  msg->remaining = static_cast<std::uint32_t>(frames);
  msg->refs = static_cast<std::uint32_t>(frames);
  msg->hook = hook;
  msg->failed = false;
  msg->on_delivered = std::move(on_delivered);

  std::uint64_t left = std::max<std::uint64_t>(bytes, 1);
  for (std::uint64_t f = 0; f < frames; ++f) {
    const auto frame_bytes = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(left, mtu_));
    left -= frame_bytes;
    // Inject into the first link now; each frame flows independently.
    forward(first, frame_bytes, dst, 0, true, msg);
  }
}

std::uint32_t Network::park_hook(Callback on_failed) {
  if (!free_hooks_.empty()) {
    const std::uint32_t hook = free_hooks_.back();
    free_hooks_.pop_back();
    failed_hooks_[hook] = std::move(on_failed);
    return hook;
  }
  support::check(failed_hooks_.size() < kNoHook, "Network::send",
                 "more than 2^32 - 1 failure hooks in flight");
  failed_hooks_.push_back(std::move(on_failed));
  return static_cast<std::uint32_t>(failed_hooks_.size() - 1);
}

void Network::release_ref(Message* msg) {
  if (--msg->refs == 0) {
    if (msg->hook != kNoHook) {
      failed_hooks_[msg->hook] = nullptr;
      free_hooks_.push_back(msg->hook);
    }
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    msg_pool_.release(msg);
  }
}

void Network::forward(std::uint32_t li, std::uint32_t frame_bytes, NodeId dst,
                      std::uint32_t attempt, bool first_hop, Message* msg) {
  if (msg->failed) {  // a sibling frame already doomed the message
    release_ref(msg);
    return;
  }
  const double now = engine_.now();

  // A downed link transmits nothing: the frame sits with the sender and is
  // retried with backoff until the link returns or the budget runs out.
  if (up_[li] == 0) {
    stats_[li].down_drops += 1;
    retransmit(li, frame_bytes, dst, attempt, first_hop, msg);
    return;
  }

  const double start = std::max(now, busy_until_[li]);
  const double wait = start - now;

  // Output-port buffer overflow: the frame is dropped and retransmitted
  // with backoff (see LinkSpec). Only switch ports drop (not the first
  // hop): the first hop's queue is the sender's own memory, where frames
  // wait for the NIC at no cost beyond time.
  // In coarse-MTU mode frames are aggregated bursts; the drop threshold
  // scales with the frame size so coarsening trades drop fidelity for
  // speed instead of fabricating overflows.
  const double queued_bytes = wait * bandwidth_[li];
  if (!first_hop && queued_bytes > buffer_limit_[li]) {
    stats_[li].drops += 1;
    retransmit(li, frame_bytes, dst, attempt, first_hop, msg);
    return;
  }

  const double tx =
      static_cast<double>(frame_bytes + 38) /  // preamble + IFG + headers
      bandwidth_[li];
  busy_until_[li] = start + tx;
  LinkStats& st = stats_[li];
  st.frames += 1;
  st.bytes += frame_bytes;
  st.busy_s += tx;
  st.queued_s += wait;
  st.max_queue_s = std::max(st.max_queue_s, wait);

  // Injected Bernoulli loss: the frame burned wire time but never arrives
  // (corruption on a marginal cable); the sender's timeout retransmits it.
  if (loss_prob_[li] > 0.0 && loss_rng_[li].bernoulli(loss_prob_[li])) {
    st.injected_losses += 1;
    retransmit(li, frame_bytes, dst, attempt, first_hop, msg);
    return;
  }

  const double arrival = start + tx + latency_[li];
  const NodeId next = to_[li];
  // The continuation is homed on the receiving endpoint: cross-shard
  // frames carry at least the link latency of delay, which is what makes
  // the sharded engine's lookahead window sound.
  const auto arrive = [this, frame_bytes, dst, next, msg] {
    if (next != dst) {
      // The frame advanced a hop: its retransmit budget starts fresh.
      forward(hop_link(next, dst), frame_bytes, dst, 0, false, msg);
      return;
    }
    --msg->remaining;
    if (msg->remaining == 0 && !msg->failed) {
      Callback cb = std::move(msg->on_delivered);
      release_ref(msg);
      cb();
    } else {
      release_ref(msg);
    }
  };
  static_assert(Callback::fits<decltype(arrive)>,
                "frame arrival must stay inline");
  engine_.schedule(next, arrival, arrive);
}

void Network::retransmit(std::uint32_t li, std::uint32_t frame_bytes,
                         NodeId dst, std::uint32_t attempt, bool first_hop,
                         Message* msg) {
  const LinkSpec& spec = spec_[li];
  if (attempt >= spec.max_retransmits) {
    stats_[li].gave_up += 1;
    if (engine_.shards() > 1) {
      // Message abandonment mutates shared message state from a switch
      // shard; fault-injection scenarios must run one shard.
      support::fail("Network::retransmit",
                    "message abandoned under the sharded engine; fault "
                    "injection requires one shard");
    }
    if (!msg->failed) {
      msg->failed = true;
      if (msg->hook != kNoHook) {
        ++msg->refs;
        engine_.schedule(from_[li], engine_.now(), [this, msg] {
          Callback cb = std::move(failed_hooks_[msg->hook]);
          release_ref(msg);
          cb();
        });
      }
    }
    release_ref(msg);
    return;
  }
  stats_[li].retransmits += 1;
  // attempt < max_retransmits <= 2^31, so it shares a word with first_hop.
  const std::uint32_t state = attempt << 1 | (first_hop ? 1u : 0u);
  const auto retry = [this, li, frame_bytes, dst, state, msg] {
    forward(li, frame_bytes, dst, (state >> 1) + 1, (state & 1) != 0, msg);
  };
  static_assert(Callback::fits<decltype(retry)>,
                "retransmit must stay inline");
  engine_.schedule(from_[li], engine_.now() + backoff_delay(spec, attempt),
                   retry);
}

}  // namespace mb::net
