#include "verify/mpi_verify.h"

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "mpi/mailbox.h"
#include "verify/rules.h"

namespace mb::verify {
namespace {

using mpi::kind_name;
using mpi::Op;
using mpi::Program;

/// One collective occurrence, as seen by one rank (MPI004 comparison key).
struct CollectiveSig {
  Op::Kind kind = Op::Kind::kBarrier;
  std::uint32_t root = 0;
  std::uint64_t bytes = 0;        ///< counts total for alltoallv
  std::size_t op_index = 0;
};

/// "op 4 ('alltoallv')" or "op 2" — names the user-visible op.
std::string describe_origin(const Program& program, std::uint32_t rank,
                            std::size_t origin) {
  const Op& op = program.rank(rank).at(origin);
  std::string out = "op " + std::to_string(origin);
  if (is_collective(op.kind)) {
    out += " ('" + (op.label.empty() ? std::string(kind_name(op.kind))
                                     : op.label.str()) +
           "' collective)";
  }
  return out;
}

/// Structural scan (stage 1). Returns true when the program is sound
/// enough for lowering + matching (stage 2). Only errors that poison the
/// *lowering itself* — mismatched collective sequences (MPI004), roots
/// outside the rank space (MPI007), alltoallv counts of the wrong length
/// (MPI008) — suppress stage 2; everything else (out-of-range peers, bad
/// tags) is reported here and matching still runs, so one broken op no
/// longer hides an unrelated deadlock or orphaned receive.
bool structural_scan(const Program& program, Report& report) {
  const std::uint32_t ranks = program.ranks();
  bool matchable = true;
  std::vector<std::vector<CollectiveSig>> collectives(ranks);

  for (std::uint32_t r = 0; r < ranks; ++r) {
    const auto& ops = program.rank(r);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      const Location here = Location::program(r, i);
      switch (op.kind) {
        case Op::Kind::kCompute:
          if (std::isnan(op.seconds) || !std::isfinite(op.seconds) ||
              op.seconds < 0.0) {
            report.add(kRuleBadComputeSeconds, here,
                       "compute op has invalid duration " +
                           std::to_string(op.seconds) + " s",
                       "compute seconds must be finite and >= 0");
          }
          break;
        case Op::Kind::kSend:
        case Op::Kind::kRecv: {
          const bool is_send = op.kind == Op::Kind::kSend;
          if (op.peer >= ranks) {
            report.add(kRulePeerOutOfRange, here,
                       std::string(is_send ? "send to" : "recv from") +
                           " rank " + std::to_string(op.peer) +
                           ", but the program has only " +
                           std::to_string(ranks) + " ranks",
                       "peers must be in [0, " + std::to_string(ranks - 1) +
                           "]");
            // Matching still runs: match_pass skips just this op, so an
            // unrelated deadlock elsewhere is still reported.
          } else if (is_send && op.peer == r) {
            report.add(kRuleSelfSend, here,
                       "rank " + std::to_string(r) +
                           " sends to itself (tag " +
                           std::to_string(op.tag) + ")",
                       "self-messages round-trip through the runtime "
                       "mailbox; a local copy is usually intended");
          }
          if (op.tag >= mpi::kUserTagLimit) {
            report.add(kRuleTagOutOfRange, here,
                       "user tag " + std::to_string(op.tag) +
                           " is inside the reserved collective tag space "
                           "(>= 65536)",
                       "user tags must stay below 65536");
            // Matching proceeds literally — exactly what the runtime
            // would do with this tag.
          } else if (op.tag < 0) {
            report.add(kRuleTagOutOfRange, Severity::kWarn, here,
                       "negative user tag " + std::to_string(op.tag),
                       "negative tags match literally but are usually "
                       "typos");
          }
          break;
        }
        default:
          if (is_collective(op.kind)) {
            if (mpi::is_rooted(op.kind) && op.root >= ranks) {
              report.add(kRuleRootOutOfRange, here,
                         std::string(kind_name(op.kind)) + " root rank " +
                             std::to_string(op.root) +
                             " is outside [0, " + std::to_string(ranks - 1) +
                             "]",
                         "collective roots must name an existing rank");
              matchable = false;
            }
            std::uint64_t bytes = op.bytes;
            if (op.kind == Op::Kind::kAlltoallv) {
              if (op.counts.size() != ranks) {
                report.add(kRuleAlltoallvCounts, here,
                           "alltoallv counts vector has " +
                               std::to_string(op.counts.size()) +
                               " entries for " + std::to_string(ranks) +
                               " ranks",
                           "provide exactly one byte count per "
                           "destination rank");
                matchable = false;
              }
              bytes = 0;
              for (const std::uint64_t c : op.counts) bytes += c;
            }
            collectives[r].push_back(
                CollectiveSig{op.kind, op.root, bytes, i});
          }
          break;
      }
    }
  }

  // MPI004: every rank must run the same collective sequence.
  for (std::uint32_t r = 1; r < ranks; ++r) {
    const auto& ref = collectives[0];
    const auto& seq = collectives[r];
    const std::size_t common = std::min(ref.size(), seq.size());
    for (std::size_t c = 0; c < common; ++c) {
      if (seq[c].kind == ref[c].kind && seq[c].root == ref[c].root &&
          seq[c].bytes == ref[c].bytes) {
        continue;
      }
      report.add(
          kRuleCollectiveMismatch, Location::program(r, seq[c].op_index),
          "collective #" + std::to_string(c) + " is " +
              std::string(kind_name(seq[c].kind)) + " (root " +
              std::to_string(seq[c].root) + ", " +
              std::to_string(seq[c].bytes) + " bytes) on rank " +
              std::to_string(r) + " but " +
              std::string(kind_name(ref[c].kind)) + " (root " +
              std::to_string(ref[c].root) + ", " +
              std::to_string(ref[c].bytes) + " bytes) on rank 0",
          "all ranks must issue the same collectives in the same order");
      matchable = false;
    }
    if (ref.size() != seq.size()) {
      const std::size_t anchor =
          seq.empty() ? 0 : seq[std::min(common, seq.size() - 1)].op_index;
      report.add(kRuleCollectiveMismatch, Location::program(r, anchor),
                 "rank " + std::to_string(r) + " issues " +
                     std::to_string(seq.size()) +
                     " collectives but rank 0 issues " +
                     std::to_string(ref.size()),
                 "all ranks must issue the same number of collectives");
      matchable = false;
    }
  }
  return matchable;
}

/// Abstract execution + wait-for analysis (stage 2).
void match_pass(const Program& program, Report& report) {
  const std::uint32_t ranks = program.ranks();
  std::vector<mpi::Cursor> cursor;
  cursor.reserve(ranks);
  for (std::uint32_t r = 0; r < ranks; ++r) cursor.emplace_back(program, r);
  // Queued messages carry the sender's user-visible op index.
  std::vector<mpi::Mailbox<std::size_t>> mailbox(ranks);

  // Round-robin to a fixpoint: buffered sends always progress, receives
  // progress when their (source, tag) FIFO is non-empty. Ops naming a
  // nonexistent peer (MPI006, already reported) are skipped: they can
  // never match, and keeping them would wedge this rank and hide every
  // later finding.
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::uint32_t r = 0; r < ranks; ++r) {
      for (mpi::Cursor& c = cursor[r]; !c.done(); c.next(), progress = true) {
        const mpi::LoweredOp op = c.op();
        if (op.peer >= ranks) continue;
        std::size_t origin = 0;
        if (op.kind == Op::Kind::kSend)
          mailbox[op.peer].push(r, op.tag, c.user_index());
        else if (op.kind == Op::Kind::kRecv &&
                 !mailbox[r].pop(op.peer, op.tag, origin))
          break;
      }
    }
  }

  std::vector<bool> done(ranks, false);
  for (std::uint32_t r = 0; r < ranks; ++r) done[r] = cursor[r].done();

  // Wait-for edges: each blocked rank waits on exactly one peer.
  constexpr std::uint32_t kNone = ~0u;
  std::vector<std::uint32_t> waits_on(ranks, kNone);
  for (std::uint32_t r = 0; r < ranks; ++r)
    if (!done[r]) waits_on[r] = cursor[r].op().peer;

  // Cycle detection on the functional wait-for graph (edges between
  // blocked ranks only). 0 = unvisited, 1 = on current walk, 2 = settled.
  std::vector<std::uint8_t> state(ranks, 0);
  std::vector<bool> on_cycle(ranks, false);
  std::vector<std::vector<std::uint32_t>> cycles;
  for (std::uint32_t start = 0; start < ranks; ++start) {
    if (done[start] || state[start] != 0) continue;
    std::vector<std::uint32_t> walk;
    std::uint32_t cur = start;
    while (cur != kNone && !done[cur] && state[cur] == 0) {
      state[cur] = 1;
      walk.push_back(cur);
      cur = waits_on[cur];
    }
    if (cur != kNone && !done[cur] && state[cur] == 1) {
      // Closed a loop within this walk: the cycle is the suffix from cur.
      std::vector<std::uint32_t> cycle;
      bool in = false;
      for (const std::uint32_t r : walk) {
        if (r == cur) in = true;
        if (in) {
          cycle.push_back(r);
          on_cycle[r] = true;
        }
      }
      cycles.push_back(std::move(cycle));
    }
    for (const std::uint32_t r : walk) state[r] = 2;
  }

  // Deadlock cycles: one error per cycle, anchored at its smallest rank,
  // plus a locating note per other member.
  for (const auto& cycle : cycles) {
    std::size_t anchor_pos = 0;
    for (std::size_t i = 1; i < cycle.size(); ++i)
      if (cycle[i] < cycle[anchor_pos]) anchor_pos = i;
    std::string chain;
    for (std::size_t i = 0; i <= cycle.size(); ++i) {
      const std::uint32_t r = cycle[(anchor_pos + i) % cycle.size()];
      if (!chain.empty()) chain += " -> ";
      chain += "rank " + std::to_string(r);
    }
    const std::uint32_t anchor = cycle[anchor_pos];
    const mpi::LoweredOp blocked = cursor[anchor].op();
    const std::size_t origin = cursor[anchor].user_index();
    report.add(kRuleDeadlockCycle, Location::program(anchor, origin),
               "deadlock: wait-for cycle " + chain + "; rank " +
                   std::to_string(anchor) + " blocked at " +
                   describe_origin(program, anchor, origin) +
                   " receiving from rank " + std::to_string(blocked.peer) +
                   " (tag " + std::to_string(blocked.tag) + ")",
               "break the cycle by reordering one rank's send before its "
               "receive or fixing the mismatched (peer, tag)");
    for (const std::uint32_t r : cycle) {
      if (r == anchor) continue;
      const mpi::LoweredOp member = cursor[r].op();
      const std::size_t origin = cursor[r].user_index();
      report.add(kRuleDeadlockCycle, Severity::kNote,
                 Location::program(r, origin),
                 "rank " + std::to_string(r) +
                     " participates in the cycle: blocked at " +
                     describe_origin(program, r, origin) +
                     " receiving from rank " + std::to_string(member.peer) +
                     " (tag " + std::to_string(member.tag) + ")");
    }
  }

  // Orphaned receives and ranks stuck behind a cycle/orphan.
  for (std::uint32_t r = 0; r < ranks; ++r) {
    if (done[r] || on_cycle[r]) continue;
    const mpi::LoweredOp blocked = cursor[r].op();
    const std::size_t origin = cursor[r].user_index();
    if (done[blocked.peer]) {
      report.add(kRuleOrphanedRecv, Location::program(r, origin),
                 "rank " + std::to_string(r) + " blocks at " +
                     describe_origin(program, r, origin) +
                     " receiving from rank " + std::to_string(blocked.peer) +
                     " (tag " + std::to_string(blocked.tag) +
                     "), but rank " + std::to_string(blocked.peer) +
                     " finished without sending it",
                 "check the sender's tag/destination against this receive");
    } else {
      const bool behind_cycle = on_cycle[blocked.peer];
      report.add(behind_cycle ? kRuleDeadlockCycle : kRuleOrphanedRecv,
                 Severity::kNote, Location::program(r, origin),
                 "rank " + std::to_string(r) + " is stuck behind rank " +
                     std::to_string(blocked.peer) +
                     (behind_cycle ? "'s deadlock cycle"
                                   : "'s unmatched receive"));
    }
  }

  // Unmatched sends: leftovers at receivers that finished their program.
  for (std::uint32_t dst = 0; dst < ranks; ++dst) {
    if (!done[dst]) continue;  // the blocking diagnostics own this rank
    for (const auto& [src, tag, origin] : mailbox[dst].leftovers()) {
      report.add(kRuleUnmatchedSend, Location::program(src, origin),
                 "rank " + std::to_string(src) + " " +
                     describe_origin(program, src, origin) +
                     " sends to rank " + std::to_string(dst) + " (tag " +
                     std::to_string(tag) + ") but rank " +
                     std::to_string(dst) + " finished without receiving it",
                 "add the matching receive or drop the send");
    }
  }
}

}  // namespace

Report verify_program(const Program& program) {
  Report report;
  if (structural_scan(program, report)) {
    match_pass(program, report);
  } else {
    // Attach the skip note to the rule that poisoned matching so the
    // report stays self-explanatory.
    std::string_view poisoner = kRuleCollectiveMismatch;
    for (const Diagnostic& d : report.findings())
      if (d.severity == Severity::kError) {
        poisoner = d.rule;
        break;
      }
    report.add(poisoner, Severity::kNote, Location::none(),
               "send/recv match analysis skipped: fix the structural "
               "errors above first");
  }
  publish_diagnostics(report, "mpi");
  return report;
}

}  // namespace mb::verify
