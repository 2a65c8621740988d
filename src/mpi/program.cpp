#include "mpi/program.h"

#include <string>

#include "support/check.h"

namespace mb::mpi {

Op Op::compute(double seconds, std::string label) {
  Op op;
  op.kind = Kind::kCompute;
  op.seconds = seconds;
  op.label = std::move(label);
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

Op Op::bcast(std::uint32_t root, std::uint64_t bytes, std::string label) {
  Op op;
  op.kind = Kind::kBcast;
  op.root = root;
  op.bytes = bytes;
  op.label = std::move(label);
  return op;
}

Op Op::allreduce(std::uint64_t bytes, std::string label) {
  Op op;
  op.kind = Kind::kAllreduce;
  op.bytes = bytes;
  op.label = std::move(label);
  return op;
}

Op Op::alltoallv(std::vector<std::uint64_t> counts, std::string label) {
  Op op;
  op.kind = Kind::kAlltoallv;
  op.counts = std::move(counts);
  op.label = std::move(label);
  return op;
}

Op Op::gather(std::uint32_t root, std::uint64_t bytes_per_rank,
              std::string label) {
  Op op;
  op.kind = Kind::kGather;
  op.root = root;
  op.bytes = bytes_per_rank;
  op.label = std::move(label);
  return op;
}

Op Op::scatter(std::uint32_t root, std::uint64_t bytes_per_rank,
               std::string label) {
  Op op;
  op.kind = Kind::kScatter;
  op.root = root;
  op.bytes = bytes_per_rank;
  op.label = std::move(label);
  return op;
}

Op Op::allgather(std::uint64_t bytes_per_rank, std::string label) {
  Op op;
  op.kind = Kind::kAllgather;
  op.bytes = bytes_per_rank;
  op.label = std::move(label);
  return op;
}

Op Op::reduce(std::uint32_t root, std::uint64_t bytes, std::string label) {
  Op op;
  op.kind = Kind::kReduce;
  op.root = root;
  op.bytes = bytes;
  op.label = std::move(label);
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

Op marker(Op::Kind kind, const std::string& label) {
  Op op;
  op.kind = kind;
  op.label = label;
  return op;
}

/// Binomial-tree broadcast schedule for one rank (MPICH shape).
void lower_bcast(const Op& op, std::uint32_t rank, std::uint32_t ranks,
                 std::int32_t tag, std::vector<Op>& out) {
  const std::uint32_t r = (rank + ranks - op.root) % ranks;  // relative
  std::uint32_t mask = 1;
  while (mask < ranks) {
    if (r & mask) {
      const std::uint32_t src = (r - mask + op.root) % ranks;
      out.push_back(Op::recv(src, tag));
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (r + mask < ranks) {
      const std::uint32_t dst = (r + mask + op.root) % ranks;
      out.push_back(Op::send(dst, op.bytes, tag));
    }
    mask >>= 1;
  }
}

/// Ring allreduce: reduce-scatter then allgather, 2(p-1) rounds of
/// bytes/p. Buffered sends let the symmetric send/recv pairs proceed.
void lower_allreduce(const Op& op, std::uint32_t rank, std::uint32_t ranks,
                     std::int32_t tag, std::vector<Op>& out) {
  if (ranks == 1) return;
  const std::uint64_t chunk =
      std::max<std::uint64_t>(1, op.bytes / ranks);
  const std::uint32_t next = (rank + 1) % ranks;
  const std::uint32_t prev = (rank + ranks - 1) % ranks;
  for (std::uint32_t round = 0; round < 2 * (ranks - 1); ++round) {
    const auto t = static_cast<std::int32_t>(tag + round);
    out.push_back(Op::send(next, chunk, t));
    out.push_back(Op::recv(prev, t));
  }
}

/// Alltoallv the way MPICH implements it: post every send, then wait on
/// every receive. All p-1 flows toward each receiver enter the network at
/// once — the incast that overflows cheap switch buffers and produces the
/// paper's delayed collectives (Fig. 4). (A pairwise-exchange schedule
/// would be contention-free on a crossbar, and is exactly what the
/// upgraded-network ablation compares against.)
void lower_alltoallv(const Op& op, std::uint32_t rank, std::uint32_t ranks,
                     std::int32_t tag, std::vector<Op>& out) {
  if (op.counts.size() != ranks)
    support::fail("lower_collective",
                  "alltoallv counts vector has " +
                      std::to_string(op.counts.size()) + " entries for " +
                      std::to_string(ranks) +
                      " ranks (need one byte count per destination)");
  for (std::uint32_t step = 1; step < ranks; ++step) {
    const std::uint32_t dst = (rank + step) % ranks;
    const auto t = static_cast<std::int32_t>(tag + step);
    // Zero counts still send a header frame, matching the unconditional
    // receive (real alltoallv knows recvcounts; one frame is harmless).
    out.push_back(Op::send(dst, op.counts[dst], t));
  }
  for (std::uint32_t step = 1; step < ranks; ++step) {
    const std::uint32_t src = (rank + ranks - step) % ranks;
    const auto t = static_cast<std::int32_t>(tag + step);
    out.push_back(Op::recv(src, t));
  }
}

/// Linear gather: everyone sends its block to the root. (MPI libraries use
/// linear gathers: the root must receive every block anyway.)
void lower_gather(const Op& op, std::uint32_t rank, std::uint32_t ranks,
                  std::int32_t tag, std::vector<Op>& out) {
  if (rank == op.root) {
    for (std::uint32_t src = 0; src < ranks; ++src) {
      if (src == op.root) continue;
      out.push_back(Op::recv(src, static_cast<std::int32_t>(
                                      tag + static_cast<std::int32_t>(src))));
    }
  } else {
    out.push_back(Op::send(op.root, op.bytes,
                           static_cast<std::int32_t>(
                               tag + static_cast<std::int32_t>(rank))));
  }
}

/// Linear scatter: the root sends each rank its block.
void lower_scatter(const Op& op, std::uint32_t rank, std::uint32_t ranks,
                   std::int32_t tag, std::vector<Op>& out) {
  if (rank == op.root) {
    for (std::uint32_t dst = 0; dst < ranks; ++dst) {
      if (dst == op.root) continue;
      out.push_back(Op::send(dst, op.bytes,
                             static_cast<std::int32_t>(
                                 tag + static_cast<std::int32_t>(dst))));
    }
  } else {
    out.push_back(Op::recv(op.root,
                           static_cast<std::int32_t>(
                               tag + static_cast<std::int32_t>(rank))));
  }
}

/// Ring allgather: p-1 rounds, each rank forwarding the block it just
/// received while receiving the next.
void lower_allgather(const Op& op, std::uint32_t rank, std::uint32_t ranks,
                     std::int32_t tag, std::vector<Op>& out) {
  if (ranks == 1) return;
  const std::uint32_t next = (rank + 1) % ranks;
  const std::uint32_t prev = (rank + ranks - 1) % ranks;
  for (std::uint32_t round = 0; round + 1 < ranks; ++round) {
    const auto t = static_cast<std::int32_t>(tag + round);
    out.push_back(Op::send(next, op.bytes, t));
    out.push_back(Op::recv(prev, t));
  }
}

/// Binomial reduction: the mirror of the binomial broadcast — partial
/// sums flow up the tree toward the root.
void lower_reduce(const Op& op, std::uint32_t rank, std::uint32_t ranks,
                  std::int32_t tag, std::vector<Op>& out) {
  const std::uint32_t r = (rank + ranks - op.root) % ranks;  // relative
  // Receive from children (mirror of bcast's send loop), then send to the
  // parent (mirror of bcast's receive).
  std::uint32_t mask = 1;
  while (mask < ranks) {
    if (r & mask) break;
    mask <<= 1;
  }
  // Children are r + m for m < mask (they will send to us).
  for (std::uint32_t m = mask >> 1; m > 0; m >>= 1) {
    if (r + m < ranks) {
      const std::uint32_t child = (r + m + op.root) % ranks;
      out.push_back(Op::recv(child, static_cast<std::int32_t>(
                                        tag + static_cast<std::int32_t>(m))));
    }
  }
  if (r != 0) {
    const std::uint32_t parent = (r - mask + ranks + op.root) % ranks;
    out.push_back(Op::send(parent, op.bytes,
                           static_cast<std::int32_t>(
                               tag + static_cast<std::int32_t>(mask))));
  }
}

/// Dissemination barrier: log2(p) rounds of 0-byte exchange.
void lower_barrier(std::uint32_t rank, std::uint32_t ranks, std::int32_t tag,
                   std::vector<Op>& out) {
  std::uint32_t round = 0;
  for (std::uint32_t dist = 1; dist < ranks; dist <<= 1, ++round) {
    const std::uint32_t dst = (rank + dist) % ranks;
    const std::uint32_t src = (rank + ranks - dist) % ranks;
    const auto t = static_cast<std::int32_t>(tag + round);
    out.push_back(Op::send(dst, 0, t));
    out.push_back(Op::recv(src, t));
  }
}

}  // namespace

std::vector<Op> lower_collective(const Op& op, std::uint32_t rank,
                                 std::uint32_t ranks,
                                 std::int32_t tag_base) {
  std::vector<Op> out;
  out.push_back(marker(Op::Kind::kBeginGroup, op.label));
  switch (op.kind) {
    case Op::Kind::kBcast:
      lower_bcast(op, rank, ranks, tag_base, out);
      break;
    case Op::Kind::kAllreduce:
      lower_allreduce(op, rank, ranks, tag_base, out);
      break;
    case Op::Kind::kAlltoallv:
      lower_alltoallv(op, rank, ranks, tag_base, out);
      break;
    case Op::Kind::kBarrier:
      lower_barrier(rank, ranks, tag_base, out);
      break;
    case Op::Kind::kGather:
      lower_gather(op, rank, ranks, tag_base, out);
      break;
    case Op::Kind::kScatter:
      lower_scatter(op, rank, ranks, tag_base, out);
      break;
    case Op::Kind::kAllgather:
      lower_allgather(op, rank, ranks, tag_base, out);
      break;
    case Op::Kind::kReduce:
      lower_reduce(op, rank, ranks, tag_base, out);
      break;
    default:
      support::fail("lower_collective", "op is not a collective");
  }
  out.push_back(marker(Op::Kind::kEndGroup, op.label));
  return out;
}

}  // namespace mb::mpi
