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

/// Per-directed-link accumulators, kept per class in node/leaf order.
struct LinkAcc {
  std::uint64_t wire_bytes = 0;
  std::uint64_t frames = 0;
  std::uint64_t messages = 0;
  std::uint64_t occ_cur = 0;       ///< burst of the occurrence being summed
  std::uint64_t occ_max = 0;       ///< worst single-occurrence burst
  std::uint64_t p2p_burst = 0;     ///< sum of per-rank consecutive-send runs
};

struct Hop {
  int cls;
  std::uint32_t idx;
};

/// The route of a cross-node message: 2 hops inside one leaf subtree,
/// 4 hops through the root otherwise.
struct Route {
  int hops = 0;
  std::array<Hop, 4> hop{};
};

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
    acc_[kHostUp].resize(nodes_);
    acc_[kHostDown].resize(nodes_);
    if (leaves_ > 1) {
      acc_[kUpUp].resize(leaves_);
      acc_[kUpDown].resize(leaves_);
    }
  }

  CostReport run() {
    accumulate_traffic();
    accumulate_occurrence_bursts();
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
    return std::max<std::uint64_t>(
        1, (bytes + d_.mtu_bytes - 1) / d_.mtu_bytes);
  }
  std::uint64_t wire_of(std::uint64_t bytes) const {
    return bytes + kFrameOverheadU64 * frames_of(bytes);
  }

  Route route(std::uint32_t src, std::uint32_t dst) const {
    const std::uint32_t ns = node_of(src), nd = node_of(dst);
    Route r;
    r.hop[r.hops++] = Hop{kHostUp, ns};
    if (leaf_of(ns) != leaf_of(nd)) {
      r.hop[r.hops++] = Hop{kUpUp, leaf_of(ns)};
      r.hop[r.hops++] = Hop{kUpDown, leaf_of(nd)};
    }
    r.hop[r.hops++] = Hop{kHostDown, nd};
    return r;
  }

  /// Exact byte/message counts, per-link totals, the serialized upper
  /// bound terms, and the per-rank p2p burst estimate.
  void accumulate_traffic() {
    per_rank_.assign(ranks_, RankCost{});
    for (std::uint32_t r = 0; r < ranks_; ++r) {
      // (class, idx) -> {current run, max run} of consecutive p2p sends.
      std::map<std::pair<int, std::uint32_t>,
               std::pair<std::uint64_t, std::uint64_t>>
          runs;
      for (mpi::Cursor c(program_, r); !c.done(); c.next()) {
        const mpi::LoweredOp op = c.op();
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
          for (auto& [key, run] : runs) run.first = 0;
          continue;
        }
        if (op.kind != Op::Kind::kSend) continue;  // group markers
        per_rank_[r].bytes_sent += op.bytes;
        per_rank_[op.peer].bytes_received += op.bytes;
        per_rank_[r].messages_sent += 1;
        total_bytes_ += op.bytes;
        ++total_messages_;
        serialized_ += d_.mpi.send_overhead_s;
        if (node_of(r) == node_of(op.peer)) {
          ++intra_messages_;
          serialized_ += d_.mpi.intra_latency_s +
                         static_cast<double>(op.bytes) /
                             d_.mpi.intra_bandwidth_bytes_per_s;
          continue;
        }
        ++net_messages_;
        const std::uint64_t frames = frames_of(op.bytes);
        const std::uint64_t wire = wire_of(op.bytes);
        total_frames_ += frames;
        const Route rt = route(r, op.peer);
        for (int h = 0; h < rt.hops; ++h) {
          const Hop hop = rt.hop[h];
          LinkAcc& a = acc_[hop.cls][hop.idx];
          a.wire_bytes += wire;
          a.messages += 1;
          if (h > 0) a.frames += frames;  // first-hop frames never drop
          const net::LinkSpec& s = spec(hop.cls);
          serialized_ += s.latency_s +
                         static_cast<double>(wire) / s.bandwidth_bytes_per_s;
          if (!is_collective(c.user_op().kind)) {
            auto& run = runs[{hop.cls, hop.idx}];
            run.first += wire;
            run.second = std::max(run.second, run.first);
          }
        }
      }
      for (const auto& [key, run] : runs)
        acc_[key.first][key.second].p2p_burst += run.second;
    }
  }

  /// Worst single-collective-occurrence burst per link: occurrence-major,
  /// stepping through each collective on every rank (tags don't matter
  /// for routes) so one occurrence's sends are summed together across
  /// all ranks.
  void accumulate_occurrence_bursts() {
    // Per-rank indices of user-visible collective ops; MPI004-clean
    // programs have the same count everywhere. Rank 0's name them.
    std::vector<std::vector<std::size_t>> coll_ops(ranks_);
    for (std::uint32_t r = 0; r < ranks_; ++r) {
      const auto& ops = program_.rank(r);
      for (std::size_t i = 0; i < ops.size(); ++i)
        if (is_collective(ops[i].kind)) coll_ops[r].push_back(i);
    }
    for (const std::size_t i : coll_ops[0]) {
      const Op& op = program_.rank(0)[i];
      collectives_.push_back(CollectiveCost{op.kind, i, op.label});
    }
    for (std::uint32_t r = 0; r < ranks_ && !collectives_.empty(); ++r) {
      support::check(coll_ops[r].size() == collectives_.size(),
                     "analyze_cost",
                     "collective sequence differs across ranks; run "
                     "verify_program first");
    }
    std::vector<Hop> touched;
    for (std::size_t c = 0; c < collectives_.size(); ++c) {
      touched.clear();
      std::uint64_t payload = 0;
      for (std::uint32_t r = 0; r < ranks_; ++r) {
        const Op& op = program_.rank(r)[coll_ops[r][c]];
        const std::size_t steps = mpi::collective_steps(op, r, ranks_);
        for (std::size_t k = 0; k < steps; ++k) {
          const mpi::LoweredOp low = mpi::collective_step(op, r, ranks_, 0, k);
          if (low.kind != Op::Kind::kSend) continue;
          payload += low.bytes;
          if (node_of(r) == node_of(low.peer)) continue;
          const std::uint64_t wire = wire_of(low.bytes);
          const Route rt = route(r, low.peer);
          for (int h = 0; h < rt.hops; ++h) {
            LinkAcc& a = acc_[rt.hop[h].cls][rt.hop[h].idx];
            if (a.occ_cur == 0) touched.push_back(rt.hop[h]);
            a.occ_cur += wire;
          }
        }
      }
      CollectiveCost& cc = collectives_[c];
      cc.payload_bytes = payload;
      for (const Hop& hop : touched) {
        LinkAcc& a = acc_[hop.cls][hop.idx];
        a.occ_max = std::max(a.occ_max, a.occ_cur);
        if (hop.cls == kHostDown)
          cc.worst_host_down = std::max(cc.worst_host_down, a.occ_cur);
        if (hop.cls == kUpUp || hop.cls == kUpDown)
          cc.worst_uplink = std::max(cc.worst_uplink, a.occ_cur);
        a.occ_cur = 0;
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

  /// The timed abstract execution (lower bound). Mirrors the verifier's
  /// FIFO fixpoint, with per-rank clocks and per-message arrival times.
  void timed_lower_bound() {
    std::vector<mpi::Cursor> cursor;
    cursor.reserve(ranks_);
    for (std::uint32_t r = 0; r < ranks_; ++r) cursor.emplace_back(program_, r);
    std::vector<mpi::Mailbox<double>> mailbox(ranks_);  // arrival times
    std::vector<double> clock(ranks_, 0.0);

    bool progress = true;
    while (progress) {
      progress = false;
      for (std::uint32_t r = 0; r < ranks_; ++r) {
        for (mpi::Cursor& c = cursor[r]; !c.done(); c.next(), progress = true) {
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
            if (!mailbox[r].pop(op.peer, op.tag, arrival)) break;
            const double wait = std::max(0.0, arrival - clock[r]);
            if (!is_collective(c.user_op().kind)) {
              per_rank_[r].wait_p2p_lower_s += wait;
              if (wait > per_rank_[r].worst_wait_s) {
                per_rank_[r].worst_wait_s = wait;
                per_rank_[r].worst_wait_op = c.user_index();
              }
            }
            clock[r] = std::max(clock[r], arrival) +
                       d_.mpi.recv_overhead_s;
          }
        }
      }
    }
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
      if (acc_[cls].empty()) continue;
      LinkClassCost lc;
      lc.name = std::string(kClassNames[cls]);
      lc.links = static_cast<std::uint32_t>(acc_[cls].size());
      lc.buffer_bytes = buffer_limit(cls);
      const double per_frame = frame_retransmit_allowance(spec(cls));
      for (const LinkAcc& a : acc_[cls]) {
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

  std::array<std::vector<LinkAcc>, 4> acc_;
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
