// MPI-like per-rank programs.
//
// Applications are expressed as a sequence of operations per rank —
// compute intervals, point-to-point messages and collectives. Collectives
// lower to point-to-point schedules (binomial broadcast, ring allreduce,
// pairwise-exchange alltoallv, dissemination barrier) exactly like a real
// MPI library over Ethernet would, so their congestion behaviour is the
// emergent property the paper studies, not an input parameter.
//
// A Program holds its ops and nothing derived from them. An Op is a
// 56-byte value: SPMD programs repeat the same few labels on every rank,
// so an op's label is an interned mpi::Label (one pointer), and an
// alltoallv's P byte counts are an immutable mpi::Counts block that every
// copy of the op shares. append_all(), Program copies and program
// rewrites therefore cost one op per rank, never P counts per rank.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "support/label.h"

namespace mb::mpi {

/// An op's trace label, interned (support/label.h).
using support::Label;

/// An alltoallv's bytes per destination rank: an immutable block shared
/// by every copy of the op. Assigning new counts to an op gives it a new
/// block and leaves the other copies alone.
class Counts {
 public:
  Counts() = default;
  Counts(const std::vector<std::uint64_t>& counts);  // NOLINT: op.counts = v

  std::size_t size() const { return block_ ? block_[0] : 0; }
  const std::uint64_t& operator[](std::size_t i) const {
    return block_[i + 1];
  }
  const std::uint64_t* begin() const {
    return block_ ? &block_[1] : nullptr;
  }
  const std::uint64_t* end() const { return begin() + size(); }

 private:
  /// {size, counts...}: an entry is one load away from the op, as it was
  /// when each op held its own vector.
  std::shared_ptr<const std::uint64_t[]> block_;
};

struct Op {
  enum class Kind : std::uint8_t {
    kCompute,     ///< seconds of local work
    kSend,        ///< buffered (eager) send: completes after send overhead
    kRecv,        ///< blocks until the matching message arrives
    kBarrier,     ///< dissemination barrier
    kBcast,       ///< binomial tree broadcast
    kAllreduce,   ///< ring reduce-scatter + allgather
    kAlltoallv,   ///< MPICH-style: all sends posted, then all receives
    kGather,      ///< linear gather to the root
    kScatter,     ///< linear scatter from the root
    kAllgather,   ///< ring allgather
    kReduce,      ///< binomial reduction to the root
    kBeginGroup,  ///< trace marker: a lowered collective starts
    kEndGroup,    ///< trace marker: a lowered collective ends
  };

  // kind, tag, peer and root pack into 16 bytes: 56 bytes in all.
  Kind kind = Kind::kCompute;
  std::int32_t tag = 0;      ///< message matching
  std::uint32_t peer = 0;    ///< kSend dst / kRecv src
  std::uint32_t root = 0;    ///< rooted collectives
  double seconds = 0.0;      ///< kCompute
  std::uint64_t bytes = 0;   ///< payload
  Counts counts;             ///< kAlltoallv: bytes per destination
  Label label;               ///< trace label

  static Op compute(double seconds, Label label = "compute");
  static Op send(std::uint32_t dst, std::uint64_t bytes, std::int32_t tag);
  static Op recv(std::uint32_t src, std::int32_t tag);
  static Op barrier();
  static Op bcast(std::uint32_t root, std::uint64_t bytes,
                  Label label = "bcast");
  static Op allreduce(std::uint64_t bytes, Label label = "allreduce");
  static Op alltoallv(const std::vector<std::uint64_t>& counts,
                      Label label = "alltoallv");
  static Op gather(std::uint32_t root, std::uint64_t bytes_per_rank,
                   Label label = "gather");
  static Op scatter(std::uint32_t root, std::uint64_t bytes_per_rank,
                    Label label = "scatter");
  static Op allgather(std::uint64_t bytes_per_rank,
                      Label label = "allgather");
  static Op reduce(std::uint32_t root, std::uint64_t bytes,
                   Label label = "reduce");
};
static_assert(sizeof(Op) <= 56, "a Program stores every op once per rank");

/// True for the kinds lower_collective() accepts.
bool is_collective(Op::Kind kind);

/// True for bcast, reduce, gather and scatter: the kinds whose root must
/// name a rank of the program.
bool is_rooted(Op::Kind kind);

/// "compute", "send", ..., "alltoallv", ..., "end_group".
std::string_view kind_name(Op::Kind kind);

/// User tags stay below this; collective instances take the tags above.
inline constexpr std::int32_t kUserTagLimit = 1 << 16;

/// A program is one op list per rank.
class Program {
 public:
  explicit Program(std::uint32_t ranks);

  std::uint32_t ranks() const {
    return static_cast<std::uint32_t>(per_rank_.size());
  }
  std::vector<Op>& rank(std::uint32_t r) { return per_rank_.at(r); }
  const std::vector<Op>& rank(std::uint32_t r) const {
    return per_rank_.at(r);
  }

  /// Appends `op` to rank `r`, validating what is checkable at
  /// construction time (alltoallv counts length vs rank count — the bug
  /// that otherwise only surfaces when lowering throws mid-simulation).
  /// rank(r).push_back remains the unchecked escape hatch the verifier
  /// tests use to build deliberately broken programs.
  void append(std::uint32_t r, const Op& op);

  /// Appends `op` to every rank (the common SPMD case), with the same
  /// construction-time validation as append().
  void append_all(const Op& op);

 private:
  std::vector<std::vector<Op>> per_rank_;
};

/// One op of a lowered schedule. Labels, compute seconds and alltoallv
/// counts stay on the user op it came from.
struct LoweredOp {
  Op::Kind kind = Op::Kind::kCompute;
  std::uint32_t peer = 0;
  std::int32_t tag = 0;
  std::uint64_t bytes = 0;
};

/// The step function of collective lowering: how many point-to-point ops
/// `op` lowers to on `rank` (markers excluded), and the k-th of them,
/// computed in O(1). `tag_base` must be unique per collective instance so
/// rounds of different collectives never cross-match. Both throw
/// support::Error for a non-collective op or an alltoallv whose counts do
/// not name every rank; collective_steps() also throws for a bcast,
/// reduce, gather or scatter whose root is not below `ranks`, so every
/// walk that sizes a collective before stepping it rejects bad roots.
std::size_t collective_steps(const Op& op, std::uint32_t rank,
                             std::uint32_t ranks);
LoweredOp collective_step(const Op& op, std::uint32_t rank,
                          std::uint32_t ranks, std::int32_t tag_base,
                          std::size_t k);

/// Tag base of a rank's `instance`-th collective: kUserTagLimit plus
/// max(4096, 2 * ranks) per earlier instance, a stride wider than any
/// collective's tag span. Throws support::Error when the instance's tags
/// would pass INT32_MAX.
std::int32_t collective_tag_base(std::size_t instance, std::uint32_t ranks);

/// One collective's whole lowered sequence: a kBeginGroup marker, its
/// collective_steps(), a kEndGroup marker (both markers carry op.label).
/// Nothing in the simulator stores it; tests and benchmarks use it.
std::vector<Op> lower_collective(const Op& op, std::uint32_t rank,
                                 std::uint32_t ranks, std::int32_t tag_base);

/// Walks one rank's program in lowered order without storing it: user
/// ops as written, each collective as lower_collective() at its
/// instance's collective_tag_base(). Collective instances are counted per
/// rank, so every rank must issue its collectives in the same order (the
/// usual MPI requirement). The runtime, the verifier and the static cost
/// walks all replay programs through it. `program` must outlive it.
class Cursor {
 public:
  Cursor(const Program& program, std::uint32_t rank);

  bool done() const { return user_ == ops_->size(); }
  /// The current lowered op.
  LoweredOp op() const;
  /// The user op it comes from, and that op's index in program.rank(r).
  const Op& user_op() const { return (*ops_)[user_]; }
  std::size_t user_index() const { return user_; }
  /// Its index in the lowered sequence (group markers count).
  std::size_t index() const { return index_; }
  void next();

 private:
  void enter();

  const std::vector<Op>* ops_;
  std::uint32_t rank_;
  std::uint32_t ranks_;
  std::size_t user_ = 0;
  std::size_t step_ = 0;   ///< within the current user op
  std::size_t steps_ = 0;  ///< lowered ops of the current user op
  std::size_t instance_ = 0;
  std::int32_t tag_base_ = 0;
  std::size_t index_ = 0;
};

/// The abstract execution the verifier and the static lower bound share:
/// one Cursor per rank, ranks swept round-robin, each run until
/// `step(rank, cursor)` returns false or its program ends, and sweeps
/// repeated until one moves no rank. `step` handles cursor.op() and keeps
/// its own mailboxes; it returns false only for a receive whose message
/// has not arrived, so sends are eager. Returns the cursors: a rank whose
/// cursor is not done() is blocked at its op().
template <class Step>
std::vector<Cursor> run_to_fixpoint(const Program& program, Step step) {
  std::vector<Cursor> cursor;
  cursor.reserve(program.ranks());
  for (std::uint32_t r = 0; r < program.ranks(); ++r)
    cursor.emplace_back(program, r);
  for (bool progress = true; progress;) {
    progress = false;
    for (std::uint32_t r = 0; r < program.ranks(); ++r)
      for (Cursor& c = cursor[r]; !c.done() && step(r, c); c.next())
        progress = true;
  }
  return cursor;
}

}  // namespace mb::mpi
