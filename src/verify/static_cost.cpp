#include "verify/static_cost.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mpi/mailbox.h"
#include "net/network.h"
#include "support/check.h"
#include "support/json.h"
#include "support/schema.h"
#include "support/table.h"
#include "support/version.h"

namespace mb::verify {
namespace {

using mpi::Op;
using mpi::Program;

constexpr double kFrameOverheadBytes = 38.0;  // preamble + IFG + headers
constexpr std::uint64_t kFrameOverheadU64 = 38;

/// Directed-link classes of the two-level tree. kHostUp carries only
/// first-hop frames (a message's source NIC buffers them), so it can
/// never drop; every other class queues behind a switch output port.
enum LinkClass : int { kHostUp = 0, kHostDown = 1, kUpUp = 2, kUpDown = 3 };

constexpr std::array<std::string_view, 4> kClassNames = {
    "host-up", "host-down", "uplink-up", "uplink-down"};

/// Per-directed-link accumulators.
struct LinkAcc {
  std::uint64_t wire_bytes = 0;
  std::uint64_t frames = 0;
  std::uint64_t messages = 0;
  std::uint64_t occ_max = 0;       ///< worst single-occurrence burst
  std::uint64_t p2p_burst = 0;     ///< sum of per-rank consecutive-send runs
};

/// One hop: its link's class and its index in the interpreter's links_.
struct Hop {
  int cls;
  std::uint32_t link;
};

/// The route of a cross-node message: 2 hops inside one leaf subtree,
/// 4 hops through the root otherwise.
struct Route {
  int hops = 0;
  std::array<Hop, 4> hop{};
};

constexpr std::string_view kSequenceDiffers =
    "collective sequence differs across ranks; run verify_program first";

[[noreturn]] void fail_at(std::uint32_t rank, std::size_t op,
                          const std::string& message) {
  support::fail("analyze_cost", "rank " + std::to_string(rank) + " op " +
                                    std::to_string(op) + ": " + message);
}

/// acc += v, failing at rank `rank` op `op` if the sum passes 2^64 - 1.
void add(std::uint64_t& acc, std::uint64_t v, std::string_view what,
         std::uint32_t rank, std::size_t op) {
  if (__builtin_add_overflow(acc, v, &acc))
    fail_at(rank, op, std::string(what) + " pass 2^64 - 1");
}

class Interpreter {
 public:
  Interpreter(const Program& program, const CostDescriptor& d)
      : program_(program), d_(d), ranks_(program.ranks()) {
    support::check(d_.cores_per_node >= 1, "analyze_cost",
                   "cores_per_node must be >= 1");
    support::check(ranks_ == d_.tree.nodes * d_.cores_per_node,
                   "analyze_cost",
                   "program ranks (" + std::to_string(ranks_) +
                       ") must equal tree nodes * cores_per_node (" +
                       std::to_string(d_.tree.nodes) + " * " +
                       std::to_string(d_.cores_per_node) + ")");
    support::check(d_.mtu_bytes >= 1, "analyze_cost",
                   "mtu_bytes must be >= 1");
    nodes_ = d_.tree.nodes;
    leaves_ = (nodes_ + d_.tree.switch_ports - 1) / d_.tree.switch_ports;
    const std::uint32_t uplinks = leaves_ > 1 ? leaves_ : 0;
    const std::array<std::uint32_t, 4> links = {nodes_, nodes_, uplinks,
                                                uplinks};
    for (int cls = 0; cls < 4; ++cls)
      first_[cls + 1] = first_[cls] + links[cls];
    links_.resize(first_[4]);
  }

  CostReport run() {
    accumulate_traffic();
    timed_lower_bound();
    return finish();
  }

 private:
  std::uint32_t node_of(std::uint32_t rank) const {
    return rank / d_.cores_per_node;
  }
  std::uint32_t leaf_of(std::uint32_t node) const {
    return node / d_.tree.switch_ports;
  }
  const net::LinkSpec& spec(int cls) const {
    return cls == kHostUp || cls == kHostDown ? d_.tree.host_link
                                              : d_.tree.uplink;
  }
  double buffer_limit(int cls) const {
    return std::max(spec(cls).buffer_bytes, 4.0 * d_.mtu_bytes);
  }

  std::uint64_t frames_of(std::uint64_t bytes) const {
    return net::Network::frames_of(bytes, d_.mtu_bytes);
  }
  /// Fits in 64 bits for every message the traffic walk accepted.
  std::uint64_t wire_of(std::uint64_t bytes) const {
    return bytes + kFrameOverheadU64 * frames_of(bytes);
  }

  Route route(std::uint32_t src, std::uint32_t dst) const {
    const std::uint32_t ns = node_of(src), nd = node_of(dst);
    const auto hop = [&](int cls, std::uint32_t idx) {
      return Hop{cls, first_[cls] + idx};
    };
    Route r;
    r.hop[r.hops++] = hop(kHostUp, ns);
    if (leaf_of(ns) != leaf_of(nd)) {
      r.hop[r.hops++] = hop(kUpUp, leaf_of(ns));
      r.hop[r.hops++] = hop(kUpDown, leaf_of(nd));
    }
    r.hop[r.hops++] = hop(kHostDown, nd);
    return r;
  }

  /// The rank-major walk: exact byte/message counts, per-link totals, the
  /// serialized upper bound terms, the per-rank p2p burst estimate, and
  /// each collective occurrence's burst on every link. Three checked
  /// totals bound every other u64 sum: per-rank and per-collective bytes
  /// are parts of the payload total, each link's frames of the frame
  /// total, and the wire bytes of each link, class, burst and send run of
  /// the wire total (a route crosses each link class at most once).
  void accumulate_traffic() {
    // Rank 0 names the occurrences; every rank must enter as many.
    const auto& ops0 = program_.rank(0);
    for (std::size_t i = 0; i < ops0.size(); ++i)
      if (is_collective(ops0[i].kind))
        collectives_.push_back(CollectiveCost{ops0[i].kind, i, ops0[i].label});
    // Occurrence o's wire bytes on link l, at o * links + l.
    const std::size_t links = links_.size();
    std::vector<std::uint64_t> bursts(collectives_.size() * links, 0);
    std::uint64_t wire_total = 0;

    per_rank_.assign(ranks_, RankCost{});
    for (std::uint32_t r = 0; r < ranks_; ++r) {
      // link -> {current run, max run} of consecutive p2p sends.
      std::map<std::uint32_t, std::pair<std::uint64_t, std::uint64_t>> runs;
      std::size_t entered = 0;  // collective occurrences entered so far
      for (mpi::Cursor c(program_, r); !c.done(); c.next()) {
        const mpi::LoweredOp op = c.op();
        if (op.kind == Op::Kind::kBeginGroup) {
          support::check(entered < collectives_.size(), "analyze_cost",
                         kSequenceDiffers);
          ++entered;
          continue;
        }
        if (op.kind == Op::Kind::kCompute) {
          const double seconds = c.user_op().seconds;
          per_rank_[r].compute_s += seconds;
          total_compute_ += seconds;
          serialized_ += seconds;  // every rank's compute, unoverlapped
          continue;
        }
        if (op.kind == Op::Kind::kRecv) {
          per_rank_[r].messages_received += 1;
          serialized_ += d_.mpi.recv_overhead_s;
          // A blocking receive drains the rank's send burst.
          for (auto& [link, run] : runs) run.first = 0;
          continue;
        }
        if (op.kind != Op::Kind::kSend) continue;  // kEndGroup
        const std::size_t i = c.user_index();
        const bool intra = node_of(r) == node_of(op.peer);
        const std::uint64_t frames = intra ? 0 : frames_of(op.bytes);
        if (frames > net::Network::kMaxFrames)
          fail_at(r, i,
                  "a message of " + std::to_string(op.bytes) +
                      " bytes to rank " + std::to_string(op.peer) +
                      " is 2^32 or more frames at mtu " +
                      std::to_string(d_.mtu_bytes) +
                      ", which the network refuses");
        add(total_bytes_, op.bytes, "payload bytes", r, i);
        per_rank_[r].bytes_sent += op.bytes;
        per_rank_[op.peer].bytes_received += op.bytes;
        per_rank_[r].messages_sent += 1;
        ++total_messages_;
        serialized_ += d_.mpi.send_overhead_s;
        std::uint64_t* burst = nullptr;  // the occurrence's row, if any
        if (is_collective(c.user_op().kind)) {
          collectives_[entered - 1].payload_bytes += op.bytes;
          burst = &bursts[(entered - 1) * links];
        }
        if (intra) {
          ++intra_messages_;
          serialized_ += d_.mpi.intra_latency_s +
                         static_cast<double>(op.bytes) /
                             d_.mpi.intra_bandwidth_bytes_per_s;
          continue;
        }
        ++net_messages_;
        std::uint64_t wire = op.bytes;
        add(wire, kFrameOverheadU64 * frames, "wire bytes", r, i);
        add(wire_total, wire, "wire bytes", r, i);
        add(total_frames_, frames, "frames", r, i);
        const Route rt = route(r, op.peer);
        for (int h = 0; h < rt.hops; ++h) {
          const Hop hop = rt.hop[h];
          LinkAcc& a = links_[hop.link];
          a.wire_bytes += wire;
          a.messages += 1;
          if (h > 0) a.frames += frames;  // first-hop frames never drop
          const net::LinkSpec& s = spec(hop.cls);
          serialized_ += s.latency_s +
                         static_cast<double>(wire) / s.bandwidth_bytes_per_s;
          if (burst != nullptr) {
            burst[hop.link] += wire;
            continue;
          }
          auto& run = runs[hop.link];
          run.first += wire;
          run.second = std::max(run.second, run.first);
        }
      }
      support::check(entered == collectives_.size(), "analyze_cost",
                     kSequenceDiffers);
      for (const auto& [link, run] : runs) links_[link].p2p_burst += run.second;
    }

    // Each link's worst occurrence burst, and each occurrence's worst on a
    // host-down link and on an uplink (links_ holds the classes in order).
    for (std::size_t o = 0; o < collectives_.size(); ++o) {
      CollectiveCost& cc = collectives_[o];
      for (std::size_t l = 0; l < links; ++l) {
        const std::uint64_t b = bursts[o * links + l];
        links_[l].occ_max = std::max(links_[l].occ_max, b);
        std::uint64_t& worst =
            l < first_[kUpUp] ? cc.worst_host_down : cc.worst_uplink;
        if (l >= first_[kHostDown]) worst = std::max(worst, b);
      }
    }
  }

  /// Optimistic per-message delivery time: route latency plus wire bytes
  /// over the bottleneck bandwidth — contention-free, so <= the DES.
  double delivery_lower(std::uint32_t src, std::uint32_t dst,
                        std::uint64_t bytes) const {
    const Route rt = route(src, dst);
    double lat = 0.0, min_bw = spec(rt.hop[0].cls).bandwidth_bytes_per_s;
    for (int h = 0; h < rt.hops; ++h) {
      const net::LinkSpec& s = spec(rt.hop[h].cls);
      lat += s.latency_s;
      min_bw = std::min(min_bw, s.bandwidth_bytes_per_s);
    }
    return lat + static_cast<double>(wire_of(bytes)) / min_bw;
  }

  /// The timed abstract execution (lower bound): the verifier's fixpoint
  /// (mpi::run_to_fixpoint) with per-rank clocks and arrival times.
  void timed_lower_bound() {
    std::vector<mpi::Mailbox<double>> mailbox(ranks_);  // arrival times
    std::vector<double> clock(ranks_, 0.0);
    const std::vector<mpi::Cursor> cursor = mpi::run_to_fixpoint(
        program_, [&](std::uint32_t r, const mpi::Cursor& c) {
          const mpi::LoweredOp op = c.op();
          if (op.kind == Op::Kind::kCompute) {
            clock[r] += c.user_op().seconds;
          } else if (op.kind == Op::Kind::kSend) {
            const double arrival =
                node_of(r) == node_of(op.peer)
                    ? clock[r] + d_.mpi.send_overhead_s +
                          d_.mpi.intra_latency_s +
                          static_cast<double>(op.bytes) /
                              d_.mpi.intra_bandwidth_bytes_per_s
                    : clock[r] + delivery_lower(r, op.peer, op.bytes);
            mailbox[op.peer].push(r, op.tag, arrival);
            clock[r] += d_.mpi.send_overhead_s;
          } else if (op.kind == Op::Kind::kRecv) {
            double arrival = 0.0;
            if (!mailbox[r].pop(op.peer, op.tag, arrival)) return false;
            const double wait = std::max(0.0, arrival - clock[r]);
            if (!is_collective(c.user_op().kind)) {
              per_rank_[r].wait_p2p_lower_s += wait;
              if (wait > per_rank_[r].worst_wait_s) {
                per_rank_[r].worst_wait_s = wait;
                per_rank_[r].worst_wait_op = c.user_index();
              }
            }
            clock[r] = std::max(clock[r], arrival) + d_.mpi.recv_overhead_s;
          }
          return true;
        });
    for (std::uint32_t r = 0; r < ranks_; ++r) {
      if (!cursor[r].done())
        support::fail("analyze_cost",
                      "abstract execution stalled (rank " +
                          std::to_string(r) +
                          " blocked): the program has matching errors — "
                          "run verify_program first");
      per_rank_[r].finish_lower_s = clock[r];
      makespan_lower_ = std::max(makespan_lower_, clock[r]);
    }
  }

  /// Worst-case retransmit cost for one frame at one hop: the full capped
  /// backoff schedule plus a re-transmission per attempt.
  double frame_retransmit_allowance(const net::LinkSpec& s) const {
    double out = 0.0;
    double delay = s.retransmit_timeout_s;
    for (std::uint32_t k = 0; k < s.max_retransmits; ++k) {
      out += std::min(delay, s.retransmit_timeout_max_s);
      delay *= s.retransmit_backoff;
    }
    out += s.max_retransmits *
           (static_cast<double>(d_.mtu_bytes) + kFrameOverheadBytes) /
           s.bandwidth_bytes_per_s;
    return out;
  }

  CostReport finish() {
    CostReport rep;
    rep.ranks = ranks_;
    rep.nodes = nodes_;
    rep.leaves = leaves_;
    rep.mtu_bytes = d_.mtu_bytes;
    rep.per_rank = std::move(per_rank_);
    rep.total_bytes = total_bytes_;
    rep.total_messages = total_messages_;
    rep.intra_messages = intra_messages_;
    rep.net_messages = net_messages_;
    rep.total_frames = total_frames_;
    rep.total_compute_s = total_compute_;
    rep.makespan_lower_s = makespan_lower_;
    rep.makespan_serialized_s = serialized_;
    rep.collectives = std::move(collectives_);

    double allowance = 0.0;
    bool all_certified = true;
    for (int cls = 0; cls < 4; ++cls) {
      if (first_[cls] == first_[cls + 1]) continue;
      LinkClassCost lc;
      lc.name = std::string(kClassNames[cls]);
      lc.links = first_[cls + 1] - first_[cls];
      lc.buffer_bytes = buffer_limit(cls);
      const double per_frame = frame_retransmit_allowance(spec(cls));
      for (std::uint32_t l = first_[cls]; l < first_[cls + 1]; ++l) {
        const LinkAcc& a = links_[l];
        lc.messages += a.messages;
        lc.wire_bytes += a.wire_bytes;
        lc.max_link_wire_bytes =
            std::max(lc.max_link_wire_bytes, a.wire_bytes);
        const std::uint64_t inflight = a.occ_max + a.p2p_burst;
        lc.max_inflight_est = std::max(lc.max_inflight_est, inflight);
        if (static_cast<double>(inflight) > lc.buffer_bytes)
          ++lc.congested_links;
        // No-drop certificate: every droppable byte through this link
        // fits in its buffer at once. kHostUp carries first-hop frames
        // only (a.frames stays 0), so it certifies trivially.
        if (static_cast<double>(a.wire_bytes) > lc.buffer_bytes &&
            a.frames > 0) {
          lc.no_drop_certified = false;
          allowance += static_cast<double>(a.frames) * per_frame;
        }
      }
      all_certified = all_certified && lc.no_drop_certified;
      rep.link_classes.push_back(std::move(lc));
    }
    rep.no_drop_certified = all_certified;
    rep.retransmit_allowance_s = allowance;
    rep.makespan_upper_s = serialized_ + allowance;

    for (const RankCost& rc : rep.per_rank)
      rep.max_rank_bytes = std::max(rep.max_rank_bytes, rc.bytes_sent);
    rep.mean_rank_bytes =
        static_cast<double>(total_bytes_) / std::max(1u, ranks_);
    return rep;
  }

  const Program& program_;
  const CostDescriptor& d_;
  std::uint32_t ranks_;
  std::uint32_t nodes_ = 0;
  std::uint32_t leaves_ = 0;

  std::vector<LinkAcc> links_;  ///< every directed link, class by class
  /// Class c's links are links_[first_[c]] up to links_[first_[c + 1]].
  std::array<std::uint32_t, 5> first_{};
  std::vector<RankCost> per_rank_;
  std::vector<CollectiveCost> collectives_;

  std::uint64_t total_bytes_ = 0;
  std::uint64_t total_messages_ = 0;
  std::uint64_t intra_messages_ = 0;
  std::uint64_t net_messages_ = 0;
  std::uint64_t total_frames_ = 0;
  double total_compute_ = 0.0;
  double serialized_ = 0.0;
  double makespan_lower_ = 0.0;
};

std::string fmt_bytes(std::uint64_t bytes) {
  char buf[64];
  if (bytes >= (1ull << 30)) {
    std::snprintf(buf, sizeof buf, "%.2f GiB",
                  static_cast<double>(bytes) / (1ull << 30));
  } else if (bytes >= (1ull << 20)) {
    std::snprintf(buf, sizeof buf, "%.2f MiB",
                  static_cast<double>(bytes) / (1ull << 20));
  } else if (bytes >= (1ull << 10)) {
    std::snprintf(buf, sizeof buf, "%.2f KiB",
                  static_cast<double>(bytes) / (1ull << 10));
  } else {
    std::snprintf(buf, sizeof buf, "%llu B",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

std::string fmt_s(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f s", seconds);
  return buf;
}

}  // namespace

CostReport analyze_cost(const mpi::Program& program,
                        const CostDescriptor& descriptor) {
  return Interpreter(program, descriptor).run();
}

std::string render_cost(const CostReport& r) {
  std::string out;
  out += "ranks " + std::to_string(r.ranks) + " on " +
         std::to_string(r.nodes) + " node(s), " + std::to_string(r.leaves) +
         " leaf switch(es), mtu " + std::to_string(r.mtu_bytes) + "\n";
  out += "traffic: " + fmt_bytes(r.total_bytes) + " payload in " +
         std::to_string(r.total_messages) + " message(s) (" +
         std::to_string(r.net_messages) + " network / " +
         std::to_string(r.intra_messages) + " intra-node), " +
         std::to_string(r.total_frames) + " frame(s)\n";
  out += "per-rank bytes: max " + fmt_bytes(r.max_rank_bytes) + ", mean " +
         fmt_bytes(static_cast<std::uint64_t>(r.mean_rank_bytes)) + "\n";
  out += "compute total: " + fmt_s(r.total_compute_s) + "\n";
  out += "makespan lower bound: " + fmt_s(r.makespan_lower_s) +
         " (contention-free critical path)\n";
  out += "makespan upper bound: " + fmt_s(r.makespan_upper_s) +
         " (serialized " + fmt_s(r.makespan_serialized_s) +
         " + retransmit allowance " + fmt_s(r.retransmit_allowance_s) +
         ")\n";
  out += std::string("no-drop certificate: ") +
         (r.no_drop_certified ? "PASS (buffers can never overflow)"
                              : "FAIL (some switch buffer may overflow; "
                                "upper bound includes retransmits)") +
         "\n";
  if (!r.link_classes.empty()) {
    support::Table table({"Link class", "Links", "Messages", "Wire bytes",
                          "Busiest link", "In-flight est", "Buffer",
                          "Congested"});
    for (const LinkClassCost& lc : r.link_classes) {
      table.add_row({lc.name, std::to_string(lc.links),
                     std::to_string(lc.messages), fmt_bytes(lc.wire_bytes),
                     fmt_bytes(lc.max_link_wire_bytes),
                     fmt_bytes(lc.max_inflight_est),
                     fmt_bytes(static_cast<std::uint64_t>(lc.buffer_bytes)),
                     std::to_string(lc.congested_links)});
    }
    out += table.render();
  }
  return out;
}

std::string static_analysis_to_json(const CostReport& r,
                                    std::string_view source,
                                    std::uint64_t seed,
                                    const Report& findings) {
  support::JsonWriter w;
  support::begin_document(w, support::kStaticAnalysisSchema);
  w.field("tool", "mb_verify");
  w.field("tool_version", support::version());
  w.field("source", source);
  w.field("seed", seed);
  w.field("ranks", r.ranks);
  w.field("nodes", r.nodes);
  w.field("leaves", r.leaves);
  w.field("mtu_bytes", r.mtu_bytes);

  w.key("totals").begin_object();
  w.field("payload_bytes", r.total_bytes);
  w.field("messages", r.total_messages);
  w.field("intra_messages", r.intra_messages);
  w.field("net_messages", r.net_messages);
  w.field("frames", r.total_frames);
  w.field("compute_s", r.total_compute_s);
  w.end_object();

  w.key("bounds").begin_object();
  w.field("makespan_lower_s", r.makespan_lower_s);
  w.field("makespan_upper_s", r.makespan_upper_s);
  w.field("makespan_serialized_s", r.makespan_serialized_s);
  w.field("retransmit_allowance_s", r.retransmit_allowance_s);
  w.field("no_drop_certified", r.no_drop_certified);
  w.end_object();

  w.key("rank_summary").begin_object();
  w.field("max_bytes_sent", r.max_rank_bytes);
  w.field("mean_bytes_sent", r.mean_rank_bytes);
  w.end_object();

  w.key("per_rank").begin_object();
  w.key("bytes_sent").begin_array();
  for (const RankCost& rc : r.per_rank) w.value(rc.bytes_sent);
  w.end_array();
  w.key("bytes_received").begin_array();
  for (const RankCost& rc : r.per_rank) w.value(rc.bytes_received);
  w.end_array();
  w.key("messages_sent").begin_array();
  for (const RankCost& rc : r.per_rank) w.value(rc.messages_sent);
  w.end_array();
  w.key("messages_received").begin_array();
  for (const RankCost& rc : r.per_rank) w.value(rc.messages_received);
  w.end_array();
  w.key("finish_lower_s").begin_array();
  for (const RankCost& rc : r.per_rank) w.value(rc.finish_lower_s);
  w.end_array();
  w.end_object();

  w.key("link_classes").begin_array();
  for (const LinkClassCost& lc : r.link_classes) {
    w.begin_object();
    w.field("name", lc.name);
    w.field("links", lc.links);
    w.field("messages", lc.messages);
    w.field("wire_bytes", lc.wire_bytes);
    w.field("max_link_wire_bytes", lc.max_link_wire_bytes);
    w.field("max_inflight_est", lc.max_inflight_est);
    w.field("buffer_bytes", lc.buffer_bytes);
    w.field("congested_links", lc.congested_links);
    w.field("no_drop_certified", lc.no_drop_certified);
    w.end_object();
  }
  w.end_array();

  w.key("collectives").begin_array();
  for (const CollectiveCost& cc : r.collectives) {
    w.begin_object();
    w.field("kind", mpi::kind_name(cc.kind));
    w.field("op_index", static_cast<std::uint64_t>(cc.op_index));
    if (!cc.label.empty()) w.field("label", cc.label);
    w.field("payload_bytes", cc.payload_bytes);
    w.field("worst_host_down_burst", cc.worst_host_down);
    w.field("worst_uplink_burst", cc.worst_uplink);
    w.end_object();
  }
  w.end_array();

  write_findings(w, findings);
  w.end_object();
  return std::move(w).str();
}

}  // namespace mb::verify
