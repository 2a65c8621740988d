// Pass 1: static verification of mpi::Program communication schedules.
//
// Inspired by MUST/ISP-style MPI checkers: because rank programs here are
// fully declarative (no data-dependent control flow), send/recv matching,
// collective consistency and deadlock are all decidable statically. The
// pass runs in two stages:
//
//  1. Structural scan of the raw per-rank op lists — out-of-range peers and
//     roots, self-sends, alltoallv counts whose length differs from the
//     rank count, negative/NaN compute seconds, user tags colliding with
//     the reserved collective tag space, and collective sequences that
//     differ across ranks (kind, root, payload or count at the same
//     collective index). Any error here poisons stage 2 (lowering would
//     throw or match nonsense), so matching is skipped with a note.
//
//  2. Abstract execution of the lowered program: every rank replays its
//     ops through the runtime's own schedule cursor (mpi::Cursor, the
//     same collective steps and per-instance tag bases, nothing stored)
//     and messages match in the runtime's mailbox (mpi::Mailbox). Sends
//     are buffered/eager — they complete immediately and enqueue into the
//     destination's (source, tag) FIFO; receives block until their FIFO
//     is non-empty. The abstract machine advances ranks round-robin to a
//     fixpoint. Afterwards:
//       * blocked rank waiting on a finished rank  -> orphaned receive,
//       * cycle in the wait-for graph              -> deadlock, with the
//         rank -> blocked-on-rank chain printed,
//       * ranks stuck behind either                -> notes,
//       * leftover mailbox messages whose receiver finished -> unmatched
//         sends.
//
// Locations always name the *user-visible* op index (the index into
// program.rank(r) as the caller built it), not the lowered index, so the
// fix hint points at an op the user actually wrote.
#pragma once

#include "mpi/program.h"
#include "verify/diagnostics.h"

namespace mb::verify {

/// Verifies `program`; findings carry the rules MPI001..MPI010. The
/// severity tallies are published to obs::metrics() (pass="mpi").
Report verify_program(const mpi::Program& program);

}  // namespace mb::verify
