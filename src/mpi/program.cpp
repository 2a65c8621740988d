#include "mpi/program.h"

#include <algorithm>
#include <bit>
#include <string>

#include "support/check.h"

namespace mb::mpi {

Counts::Counts(const std::vector<std::uint64_t>& counts) {
  const auto block = std::make_shared<std::uint64_t[]>(counts.size() + 1);
  block[0] = counts.size();
  std::copy(counts.begin(), counts.end(), &block[1]);
  block_ = block;
}

Op Op::compute(double seconds, Label label) {
  Op op;
  op.kind = Kind::kCompute;
  op.seconds = seconds;
  op.label = label;
  return op;
}

Op Op::send(std::uint32_t dst, std::uint64_t bytes, std::int32_t tag) {
  Op op;
  op.kind = Kind::kSend;
  op.peer = dst;
  op.bytes = bytes;
  op.tag = tag;
  return op;
}

Op Op::recv(std::uint32_t src, std::int32_t tag) {
  Op op;
  op.kind = Kind::kRecv;
  op.peer = src;
  op.tag = tag;
  return op;
}

Op Op::barrier() {
  Op op;
  op.kind = Kind::kBarrier;
  op.label = "barrier";
  return op;
}

Op Op::bcast(std::uint32_t root, std::uint64_t bytes, Label label) {
  Op op;
  op.kind = Kind::kBcast;
  op.root = root;
  op.bytes = bytes;
  op.label = label;
  return op;
}

Op Op::allreduce(std::uint64_t bytes, Label label) {
  Op op;
  op.kind = Kind::kAllreduce;
  op.bytes = bytes;
  op.label = label;
  return op;
}

Op Op::alltoallv(const std::vector<std::uint64_t>& counts, Label label) {
  Op op;
  op.kind = Kind::kAlltoallv;
  op.counts = counts;
  op.label = label;
  return op;
}

Op Op::gather(std::uint32_t root, std::uint64_t bytes_per_rank,
              Label label) {
  Op op;
  op.kind = Kind::kGather;
  op.root = root;
  op.bytes = bytes_per_rank;
  op.label = label;
  return op;
}

Op Op::scatter(std::uint32_t root, std::uint64_t bytes_per_rank,
               Label label) {
  Op op;
  op.kind = Kind::kScatter;
  op.root = root;
  op.bytes = bytes_per_rank;
  op.label = label;
  return op;
}

Op Op::allgather(std::uint64_t bytes_per_rank, Label label) {
  Op op;
  op.kind = Kind::kAllgather;
  op.bytes = bytes_per_rank;
  op.label = label;
  return op;
}

Op Op::reduce(std::uint32_t root, std::uint64_t bytes, Label label) {
  Op op;
  op.kind = Kind::kReduce;
  op.root = root;
  op.bytes = bytes;
  op.label = label;
  return op;
}

bool is_collective(Op::Kind kind) {
  switch (kind) {
    case Op::Kind::kBarrier:
    case Op::Kind::kBcast:
    case Op::Kind::kAllreduce:
    case Op::Kind::kAlltoallv:
    case Op::Kind::kGather:
    case Op::Kind::kScatter:
    case Op::Kind::kAllgather:
    case Op::Kind::kReduce:
      return true;
    default:
      return false;
  }
}

bool is_rooted(Op::Kind kind) {
  return kind == Op::Kind::kBcast || kind == Op::Kind::kReduce ||
         kind == Op::Kind::kGather || kind == Op::Kind::kScatter;
}

std::string_view kind_name(Op::Kind kind) {
  switch (kind) {
    case Op::Kind::kCompute: return "compute";
    case Op::Kind::kSend: return "send";
    case Op::Kind::kRecv: return "recv";
    case Op::Kind::kBarrier: return "barrier";
    case Op::Kind::kBcast: return "bcast";
    case Op::Kind::kAllreduce: return "allreduce";
    case Op::Kind::kAlltoallv: return "alltoallv";
    case Op::Kind::kGather: return "gather";
    case Op::Kind::kScatter: return "scatter";
    case Op::Kind::kAllgather: return "allgather";
    case Op::Kind::kReduce: return "reduce";
    case Op::Kind::kBeginGroup: return "begin_group";
    case Op::Kind::kEndGroup: return "end_group";
  }
  return "?";
}

Program::Program(std::uint32_t ranks) : per_rank_(ranks) {
  support::check(ranks >= 1, "Program", "need at least one rank");
}

namespace {

/// Construction-time validation shared by Program::append/append_all:
/// catches the alltoallv counts-length bug when the op is written, not
/// when lowering throws halfway through a simulation.
void check_op(const Op& op, std::uint32_t ranks) {
  if (op.kind == Op::Kind::kAlltoallv && op.counts.size() != ranks) {
    support::fail("Program::append",
                  "alltoallv counts vector has " +
                      std::to_string(op.counts.size()) +
                      " entries but the program has " +
                      std::to_string(ranks) +
                      " ranks (need one byte count per destination)");
  }
}

}  // namespace

void Program::append(std::uint32_t r, const Op& op) {
  check_op(op, ranks());
  per_rank_.at(r).push_back(op);
}

void Program::append_all(const Op& op) {
  check_op(op, ranks());
  for (auto& ops : per_rank_) ops.push_back(op);
}

namespace {

void check_counts(const Op& op, std::uint32_t ranks) {
  if (op.kind == Op::Kind::kAlltoallv && op.counts.size() != ranks)
    support::fail("lower_collective",
                  "alltoallv counts vector has " +
                      std::to_string(op.counts.size()) + " entries for " +
                      std::to_string(ranks) +
                      " ranks (need one byte count per destination)");
}

void check_root(const Op& op, std::uint32_t ranks) {
  if (is_rooted(op.kind) && op.root >= ranks)
    support::fail("lower_collective",
                  std::string(kind_name(op.kind)) + " root " +
                      std::to_string(op.root) + " is outside the program's " +
                      std::to_string(ranks) + " ranks");
}

/// The binomial tree of bcast and reduce (MPICH shape), relative to the
/// root: `up` is the mask of the edge to the parent (0 at the root), the
/// children hang off masks first, first/2, ..., 1.
struct Tree {
  std::uint32_t rel, up, first, children;
};

Tree tree(const Op& op, std::uint32_t rank, std::uint32_t ranks) {
  Tree t{};
  t.rel = (rank + ranks - op.root) % ranks;
  t.up = t.rel & (~t.rel + 1);
  const std::uint32_t top = (t.rel != 0 ? t.up : std::bit_ceil(ranks)) >> 1;
  t.first = std::bit_floor(std::min(top, ranks - t.rel - 1));
  t.children = static_cast<std::uint32_t>(std::bit_width(t.first));
  return t;
}

}  // namespace

std::size_t collective_steps(const Op& op, std::uint32_t rank,
                             std::uint32_t ranks) {
  check_counts(op, ranks);
  check_root(op, ranks);
  switch (op.kind) {
    case Op::Kind::kBcast:
    case Op::Kind::kReduce: {
      const Tree t = tree(op, rank, ranks);
      return t.children + (t.rel != 0 ? 1 : 0);
    }
    case Op::Kind::kAllreduce:
      return 4 * std::size_t{ranks - 1};
    case Op::Kind::kAlltoallv:
    case Op::Kind::kAllgather:
      return 2 * std::size_t{ranks - 1};
    case Op::Kind::kBarrier:
      return 2 * static_cast<std::size_t>(std::bit_width(ranks - 1));
    case Op::Kind::kGather:
    case Op::Kind::kScatter:
      return rank == op.root ? ranks - 1 : 1;
    default:
      support::fail("lower_collective", "op is not a collective");
  }
}

LoweredOp collective_step(const Op& op, std::uint32_t rank,
                          std::uint32_t ranks, std::int32_t tag_base,
                          std::size_t k) {
  const auto step = static_cast<std::uint32_t>(k);
  const auto send = [tag_base](std::uint32_t dst, std::uint64_t bytes,
                               std::uint32_t tag_offset) {
    return LoweredOp{Op::Kind::kSend, dst,
                     static_cast<std::int32_t>(
                         static_cast<std::uint32_t>(tag_base) + tag_offset),
                     bytes};
  };
  const auto recv = [&send](std::uint32_t src, std::uint32_t tag_offset) {
    LoweredOp low = send(src, 0, tag_offset);
    low.kind = Op::Kind::kRecv;
    return low;
  };
  // (rank + d) % ranks for d < ranks, without a division.
  const auto ring = [rank, ranks](std::uint32_t d) {
    return rank + d < ranks ? rank + d : rank + d - ranks;
  };
  switch (op.kind) {
    case Op::Kind::kBcast: {  // receive from the parent, then feed children
      const Tree t = tree(op, rank, ranks);
      if (t.rel != 0 && step == 0)
        return recv((t.rel - t.up + op.root) % ranks, 0);
      const std::uint32_t mask = t.first >> (step - (t.rel != 0 ? 1 : 0));
      return send((t.rel + mask + op.root) % ranks, op.bytes, 0);
    }
    case Op::Kind::kReduce: {  // the mirror: children first, then parent
      const Tree t = tree(op, rank, ranks);
      if (step == t.children)
        return send((t.rel - t.up + ranks + op.root) % ranks, op.bytes, t.up);
      const std::uint32_t mask = t.first >> step;
      return recv((t.rel + mask + op.root) % ranks, mask);
    }
    case Op::Kind::kAllreduce:
      // Ring reduce-scatter then allgather: 2(p-1) rounds of bytes/p.
      // Buffered sends let the symmetric send/recv pairs proceed.
      return step % 2 == 0
                 ? send(ring(1), std::max<std::uint64_t>(1, op.bytes / ranks),
                        step / 2)
                 : recv(ring(ranks - 1), step / 2);
    case Op::Kind::kAllgather:
      // Ring: p-1 rounds, each forwarding the block just received.
      return step % 2 == 0 ? send(ring(1), op.bytes, step / 2)
                           : recv(ring(ranks - 1), step / 2);
    case Op::Kind::kBarrier: {  // dissemination: log2(p) 0-byte rounds
      const std::uint32_t dist = 1u << (step / 2);
      return step % 2 == 0 ? send(ring(dist), 0, step / 2)
                           : recv(ring(ranks - dist), step / 2);
    }
    case Op::Kind::kAlltoallv: {
      // MPICH: post every send, then wait on every receive. All p-1 flows
      // toward each receiver enter the network at once: the incast that
      // overflows cheap switch buffers and produces the paper's delayed
      // collectives (Fig. 4). (A pairwise-exchange schedule would be
      // contention-free on a crossbar, and is exactly what the
      // upgraded-network ablation compares against.) Zero counts still
      // send a header frame, matching the unconditional receive (real
      // alltoallv knows recvcounts; one frame is harmless).
      check_counts(op, ranks);
      if (step + 1 < ranks) {
        const std::uint32_t dst = ring(step + 1);
        return send(dst, op.counts[dst], step + 1);
      }
      const std::uint32_t back = step + 2 - ranks;
      return recv(ring(ranks - back), back);
    }
    case Op::Kind::kGather: {
      // Linear, as MPI libraries do: the root must receive every block.
      if (rank != op.root) return send(op.root, op.bytes, rank);
      const std::uint32_t src = step < op.root ? step : step + 1;
      return recv(src, src);
    }
    case Op::Kind::kScatter: {  // linear: the root sends each rank its block
      if (rank != op.root) return recv(op.root, rank);
      const std::uint32_t dst = step < op.root ? step : step + 1;
      return send(dst, op.bytes, dst);
    }
    default:
      support::fail("lower_collective", "op is not a collective");
  }
}

std::int32_t collective_tag_base(std::size_t instance, std::uint32_t ranks) {
  const std::uint64_t stride = std::max<std::uint64_t>(4096, 2ull * ranks);
  const std::uint64_t limit = ((1ull << 31) - kUserTagLimit) / stride;
  if (instance >= limit)
    support::fail("collective_tag_base",
                  "collective #" + std::to_string(instance) +
                      " needs tags past INT32_MAX: a rank may issue at most " +
                      std::to_string(limit) + " collectives at " +
                      std::to_string(ranks) + " ranks");
  return static_cast<std::int32_t>(kUserTagLimit + instance * stride);
}

std::vector<Op> lower_collective(const Op& op, std::uint32_t rank,
                                 std::uint32_t ranks, std::int32_t tag_base) {
  const std::size_t steps = collective_steps(op, rank, ranks);
  std::vector<Op> out;
  out.reserve(steps + 2);
  Op marker;
  marker.kind = Op::Kind::kBeginGroup;
  marker.label = op.label;
  out.push_back(marker);
  for (std::size_t k = 0; k < steps; ++k) {
    const LoweredOp low = collective_step(op, rank, ranks, tag_base, k);
    out.push_back(low.kind == Op::Kind::kSend
                      ? Op::send(low.peer, low.bytes, low.tag)
                      : Op::recv(low.peer, low.tag));
  }
  marker.kind = Op::Kind::kEndGroup;
  out.push_back(std::move(marker));
  return out;
}

Cursor::Cursor(const Program& program, std::uint32_t rank)
    : ops_(&program.rank(rank)), rank_(rank), ranks_(program.ranks()) {
  enter();
}

void Cursor::enter() {
  if (done()) return;
  steps_ = 1;
  if (!is_collective(user_op().kind)) return;
  tag_base_ = collective_tag_base(instance_++, ranks_);
  steps_ = collective_steps(user_op(), rank_, ranks_) + 2;
}

LoweredOp Cursor::op() const {
  const Op& op = user_op();
  if (!is_collective(op.kind)) return {op.kind, op.peer, op.tag, op.bytes};
  if (step_ == 0) return {Op::Kind::kBeginGroup};
  if (step_ + 1 == steps_) return {Op::Kind::kEndGroup};
  return collective_step(op, rank_, ranks_, tag_base_, step_ - 1);
}

void Cursor::next() {
  ++index_;
  if (++step_ < steps_) return;
  ++user_;
  step_ = 0;
  enter();
}

}  // namespace mb::mpi
