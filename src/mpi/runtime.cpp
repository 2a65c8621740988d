#include "mpi/runtime.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "support/check.h"
#include "verify/mpi_verify.h"

namespace mb::mpi {

namespace {

// The runtime's own trace labels, interned once.
const Label kSendLabel("send");
const Label kRecvLabel("recv");
const Label kRecvTimeoutLabel("recv_timeout");

}  // namespace

std::string FailureReport::to_string() const {
  std::ostringstream os;
  os << "failure report:\n";
  os << "  dead ranks:";
  if (dead_ranks.empty()) {
    os << " none";
  } else {
    for (const std::uint32_t r : dead_ranks) os << ' ' << r;
  }
  os << '\n';
  for (const BlockedOp& b : blocked) {
    os << "  rank " << b.rank << " blocked on recv(peer=" << b.peer
       << ", tag=" << b.tag << ") since t=" << b.since_s << "s [op "
       << b.op_index << (b.timed_out ? ", timed out]" : "]") << '\n';
  }
  return os.str();
}

Runtime::Runtime(sim::ShardedEngine& engine, net::Network& network,
                 std::vector<net::NodeId> rank_to_host, RuntimeConfig config,
                 trace::StreamingSink* sink)
    : engine_(engine),
      network_(network),
      rank_to_host_(std::move(rank_to_host)),
      config_(config),
      sink_(sink) {
  support::check(!rank_to_host_.empty(), "Runtime", "need at least one rank");
  for (const net::NodeId host : rank_to_host_) {
    support::check(host < network_.nodes(), "Runtime", "unknown host");
    support::check(!network_.is_switch(host), "Runtime",
                   "ranks must live on hosts, not switches");
  }
  obs::Registry& registry = obs::metrics();
  const auto ranks = static_cast<std::uint32_t>(rank_to_host_.size());
  bytes_sent_.reserve(ranks);
  bytes_received_.reserve(ranks);
  for (std::uint32_t r = 0; r < ranks; ++r) {
    const obs::Labels labels{{"rank", std::to_string(r)}};
    bytes_sent_.push_back(&registry.counter("mpi.bytes_sent", labels));
    bytes_received_.push_back(
        &registry.counter("mpi.bytes_received", labels));
  }
  time_collective_ =
      &registry.counter("mpi.time_s", {{"kind", "collective"}});
  time_p2p_ = &registry.counter("mpi.time_s", {{"kind", "p2p"}});
  time_wait_ = &registry.counter("mpi.time_s", {{"kind", "wait"}});
  retries_ = &registry.counter("mpi.retries");
  recv_timeouts_ = &registry.counter("mpi.recv_timeouts");
}

void Runtime::record(std::uint32_t rank, double t0, double t1,
                     trace::EventKind kind, Label label,
                     std::uint64_t bytes) {
  // wants() is the cheap pre-filter: an unsampled rank or filtered kind
  // builds no record.
  if (sink_ == nullptr || !sink_->wants(rank, kind)) return;
  sink_->emit({rank, t0, t1, kind, label, bytes});
}

void Runtime::mark_fault(std::uint32_t rank, double t_s, Label label) {
  record(rank, t_s, t_s, trace::EventKind::kFault, label, 0);
}

void Runtime::schedule_for(std::uint32_t rank, double delay_s,
                           sim::ShardedEngine::Callback cb) {
  engine_.schedule(rank_to_host_[rank], engine_.now() + delay_s,
                   std::move(cb));
}

double Runtime::run(const Program& program) {
  const RunOutcome outcome = run_outcome(program);
  if (!outcome.completed) {
    support::fail("Runtime::run",
                  "deadlock: some ranks never completed their program\n" +
                      outcome.failure.to_string());
  }
  return outcome.makespan_s;
}

RunOutcome Runtime::run_outcome(const Program& program) {
  const auto ranks = static_cast<std::uint32_t>(rank_to_host_.size());
  support::check(program.ranks() == ranks, "Runtime::run",
                 "program rank count must match the runtime");
  support::check(engine_.shards() == 1 || config_.recv_timeout_s == 0.0,
                 "Runtime::run", "the failure detector requires one shard");

  if (config_.verify) {
    const verify::Report report = verify::verify_program(program);
    if (report.has_errors()) {
      support::fail("Runtime::run", "program failed static verification:\n" +
                                        verify::render_diagnostics(report));
    }
  }

  // What the runtime itself cannot survive, checked before the first
  // event in one pass that stores nothing (each rank's cursor lowers its
  // collectives on the fly). With verification off, nothing else keeps
  // the ranks a message goes to inside the program: collective_steps()
  // rejects roots and alltoallv counts, this loop send peers.
  for (std::uint32_t r = 0; r < ranks; ++r) {
    std::size_t instances = 0;
    for (std::size_t i = 0; i < program.rank(r).size(); ++i) {
      const Op& op = program.rank(r)[i];
      const auto where = [r, i] {
        return "rank " + std::to_string(r) + " op " + std::to_string(i) +
               ": ";
      };
      if (is_collective(op.kind)) {
        try {
          collective_tag_base(instances++, ranks);
          collective_steps(op, r, ranks);
        } catch (const support::Error& e) {
          support::fail("Runtime::run", where() + e.what());
        }
      } else if (op.kind == Op::Kind::kSend || op.kind == Op::Kind::kRecv) {
        support::check(op.tag < kUserTagLimit, "Runtime::run",
                       "user tags must stay below 1<<16");
        if (op.kind == Op::Kind::kSend && op.peer >= ranks)
          support::fail("Runtime::run",
                        where() + "send names rank " +
                            std::to_string(op.peer) +
                            ", but the program has only " +
                            std::to_string(ranks) + " ranks");
      }
    }
  }
  states_.clear();
  states_.reserve(ranks);
  for (std::uint32_t r = 0; r < ranks; ++r)
    states_.emplace_back(program, r);
  metrics_.assign(ranks, RankMetrics{});
  failure_ = FailureReport{};

  // Kick-off happens on the calling thread in rank order (the engine
  // routes each event to its home shard deterministically).
  for (std::uint32_t r = 0; r < ranks; ++r) advance(r);
  engine_.run_all();

  flush_observability(ranks);

  RunOutcome outcome;
  outcome.drained_s = engine_.now();
  std::uint32_t finished = 0;
  double makespan = 0.0;
  for (const auto& s : states_) {
    if (s.done) ++finished;
    makespan = std::max(makespan, s.finish_time);
  }
  outcome.completed = finished == ranks;
  outcome.makespan_s = makespan;
  if (!outcome.completed) {
    // Ranks still blocked at drain time (and not already reported by the
    // failure detector) round out the report.
    for (std::uint32_t r = 0; r < ranks; ++r) {
      const RankState& s = states_[r];
      if (s.crashed || s.timed_out || !s.waiting) continue;
      BlockedOp b;
      b.rank = r;
      b.peer = s.waiting->first;
      b.tag = s.waiting->second;
      b.op_index = s.wait_op;
      b.since_s = s.wait_start;
      failure_.blocked.push_back(b);
    }
    outcome.failure = failure_;
  }
  return outcome;
}

void Runtime::flush_observability(std::uint32_t ranks) {
  for (std::uint32_t r = 0; r < ranks; ++r) {
    const RankMetrics& m = metrics_[r];
    if (m.bytes_sent != 0.0) bytes_sent_[r]->add(m.bytes_sent);
    if (m.bytes_received != 0.0) bytes_received_[r]->add(m.bytes_received);
    if (m.time_collective != 0.0) time_collective_->add(m.time_collective);
    if (m.time_p2p != 0.0) time_p2p_->add(m.time_p2p);
    if (m.time_wait != 0.0) time_wait_->add(m.time_wait);
    if (m.retries != 0.0) retries_->add(m.retries);
    if (m.recv_timeouts != 0.0) recv_timeouts_->add(m.recv_timeouts);
  }
}

void Runtime::crash_rank(std::uint32_t rank) {
  support::check(rank < states_.size(), "Runtime::crash_rank",
                 "unknown rank (inject crashes during a run)");
  RankState& s = states_[rank];
  if (s.crashed) return;
  s.crashed = true;
  s.waiting.reset();
  failure_.dead_ranks.push_back(rank);
}

void Runtime::set_rank_slowdown(std::uint32_t rank, double factor) {
  support::check(rank < states_.size(), "Runtime::set_rank_slowdown",
                 "unknown rank (inject slowdowns during a run)");
  support::check(factor >= 1.0 && std::isfinite(factor),
                 "Runtime::set_rank_slowdown", "factor must be >= 1");
  states_[rank].slow_factor = factor;
}

void Runtime::deliver(std::uint32_t dst_rank, std::uint32_t src_rank,
                      std::int32_t tag, std::uint64_t bytes) {
  RankState& s = states_[dst_rank];
  if (s.crashed || s.timed_out) return;  // dead ranks receive nothing
  s.mailbox.push(src_rank, tag, bytes);
  if (s.waiting && *s.waiting == std::make_pair(src_rank, tag)) {
    s.waiting.reset();
    metrics_[dst_rank].time_wait += engine_.now() - s.wait_start;
    advance(dst_rank);
  }
}

void Runtime::post_send(std::uint32_t src_rank, std::uint32_t dst_rank,
                        std::int32_t tag, std::uint64_t bytes,
                        std::uint32_t attempt) {
  using Callback = net::Network::Callback;
  // Captures are ordered 8-byte first so each fits Callback's 32 bytes.
  Callback on_failed;
  if (attempt < config_.max_send_retries) {
    const auto failed = [this, bytes, src_rank, dst_rank, tag, attempt] {
      if (states_[src_rank].crashed) return;
      metrics_[src_rank].retries += 1.0;
      constexpr double kSendRetryBackoff = 2.0;
      const double delay =
          config_.send_retry_base_s *
          std::pow(kSendRetryBackoff, static_cast<double>(attempt));
      const auto retry = [this, bytes, src_rank, dst_rank, tag, attempt] {
        post_send(src_rank, dst_rank, tag, bytes, attempt + 1);
      };
      static_assert(Callback::fits<decltype(retry)>,
                    "a send retry must stay inline");
      schedule_for(src_rank, delay, retry);
    };
    static_assert(Callback::fits<decltype(failed)>,
                  "a failure hook must stay inline");
    on_failed = failed;
  }
  const auto arrived = [this, bytes, dst_rank, src_rank, tag] {
    deliver(dst_rank, src_rank, tag, bytes);
  };
  static_assert(Callback::fits<decltype(arrived)>,
                "network delivery must stay inline");
  network_.send(rank_to_host_[src_rank], rank_to_host_[dst_rank], bytes,
                arrived, std::move(on_failed));
}

void Runtime::on_recv_timeout(std::uint32_t rank, std::uint64_t epoch) {
  RankState& s = states_[rank];
  if (s.crashed || s.timed_out) return;
  if (!s.waiting || s.wait_epoch != epoch) return;  // stale timer
  s.timed_out = true;
  const double now = engine_.now();
  failure_.detected_s = std::max(failure_.detected_s, now);
  metrics_[rank].recv_timeouts += 1.0;
  metrics_[rank].time_wait += now - s.wait_start;
  record(rank, s.wait_start, now, trace::EventKind::kWait, kRecvTimeoutLabel,
         0);
  BlockedOp b;
  b.rank = rank;
  b.peer = s.waiting->first;
  b.tag = s.waiting->second;
  b.op_index = s.wait_op;
  b.since_s = s.wait_start;
  b.timed_out = true;
  failure_.blocked.push_back(b);
  s.waiting.reset();
}

void Runtime::advance(std::uint32_t rank) {
  RankState& s = states_[rank];
  if (s.crashed || s.timed_out) return;  // fail-stop: no further progress
  const auto resume = [this, rank] { advance(rank); };
  static_assert(sim::ShardedEngine::Callback::fits<decltype(resume)>,
                "advance must stay inline");
  Cursor& c = s.cursor;
  while (!c.done()) {
    const LoweredOp op = c.op();
    const double now = engine_.now();
    switch (op.kind) {
      case Op::Kind::kCompute: {
        const double seconds = c.user_op().seconds * s.slow_factor;
        record(rank, now, now + seconds, trace::EventKind::kCompute,
               c.user_op().label, 0);
        c.next();
        schedule_for(rank, seconds, resume);
        return;
      }
      case Op::Kind::kSend: {
        const std::uint32_t dst = op.peer;
        const std::int32_t tag = op.tag;
        const std::uint64_t bytes = op.bytes;
        metrics_[rank].bytes_sent += static_cast<double>(bytes);
        if (!s.in_group) {
          metrics_[rank].time_p2p += config_.send_overhead_s;
          record(rank, now, now + config_.send_overhead_s,
                 trace::EventKind::kSend, kSendLabel, bytes);
        }
        if (rank_to_host_[rank] == rank_to_host_[dst]) {
          const double t = config_.intra_latency_s +
                           static_cast<double>(bytes) /
                               config_.intra_bandwidth_bytes_per_s;
          const auto arrived = [this, bytes, dst, rank, tag] {
            deliver(dst, rank, tag, bytes);
          };
          static_assert(sim::ShardedEngine::Callback::fits<decltype(arrived)>,
                        "intra-node delivery must stay inline");
          schedule_for(rank, config_.send_overhead_s + t, arrived);
        } else {
          post_send(rank, dst, tag, bytes, 0);
        }
        c.next();
        schedule_for(rank, config_.send_overhead_s, resume);
        return;
      }
      case Op::Kind::kRecv: {
        std::uint64_t bytes = 0;
        if (!s.mailbox.pop(op.peer, op.tag, bytes)) {
          s.waiting = std::make_pair(op.peer, op.tag);
          s.wait_start = now;
          s.wait_op = c.index();
          if (config_.recv_timeout_s > 0.0) {
            const std::uint64_t epoch = ++s.wait_epoch;
            schedule_for(rank, config_.recv_timeout_s,
                         [this, rank, epoch] {
                           on_recv_timeout(rank, epoch);
                         });
          }
          return;
        }
        metrics_[rank].bytes_received += static_cast<double>(bytes);
        if (!s.in_group) {
          metrics_[rank].time_p2p += config_.recv_overhead_s;
          record(rank, now, now + config_.recv_overhead_s,
                 trace::EventKind::kRecv, kRecvLabel, bytes);
        }
        c.next();
        schedule_for(rank, config_.recv_overhead_s, resume);
        return;
      }
      case Op::Kind::kBeginGroup:
        s.group_start = now;
        s.in_group = !c.user_op().label.empty();
        c.next();
        break;
      case Op::Kind::kEndGroup:
        metrics_[rank].time_collective += now - s.group_start;
        record(rank, s.group_start, now, trace::EventKind::kCollective,
               c.user_op().label, 0);
        s.in_group = false;
        c.next();
        break;
      default:
        support::fail("Runtime::advance",
                      "unlowered collective reached execution");
    }
  }
  s.finish_time = engine_.now();
  s.done = true;
}

}  // namespace mb::mpi
