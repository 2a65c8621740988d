// Seeded defect corpus for the MPI program verifier: one deliberately
// broken program per rule id asserting that exact rule fires, clean
// fixtures asserting zero findings, and a property sweep showing every
// collective lowering verifies clean at every rank count — i.e. the
// verifier trusts exactly the schedules the runtime executes.
#include "verify/mpi_verify.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/bigdft.h"
#include "apps/hpl.h"
#include "apps/specfem.h"
#include "support/check.h"
#include "verify/rules.h"

namespace mb::verify {
namespace {

using mpi::Op;
using mpi::Program;

/// The single finding carrying `rule`, asserting there is exactly one
/// non-note finding in the report and it is that rule.
const Diagnostic& sole_finding(const Report& report,
                               std::string_view rule) {
  const Diagnostic* found = nullptr;
  std::size_t non_notes = 0;
  for (const Diagnostic& d : report.findings()) {
    if (d.severity == Severity::kNote) continue;
    ++non_notes;
    if (d.rule == rule) found = &d;
  }
  EXPECT_EQ(non_notes, 1u) << render_diagnostics(report);
  EXPECT_NE(found, nullptr) << render_diagnostics(report);
  return *found;
}

TEST(MpiVerify, CleanPingPongHasNoFindings) {
  Program p(2);
  p.append(0, Op::send(1, 4096, 1));
  p.append(0, Op::recv(1, 2));
  p.append(1, Op::recv(0, 1));
  p.append(1, Op::send(0, 4096, 2));
  const Report report = verify_program(p);
  EXPECT_TRUE(report.empty()) << render_diagnostics(report);
}

TEST(MpiVerify, Mpi001UnmatchedSend) {
  Program p(2);
  p.rank(0).push_back(Op::send(1, 128, 7));
  const Report report = verify_program(p);
  const Diagnostic& d = sole_finding(report, kRuleUnmatchedSend);
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.location.rank, 0u);
  EXPECT_EQ(d.location.op_index, 0u);
}

TEST(MpiVerify, Mpi001OrderIsDestinationSourceTagThenFifo) {
  Program p(4);
  p.rank(3).push_back(Op::send(0, 8, 1));
  p.rank(3).push_back(Op::send(0, 8, 1));
  p.rank(1).push_back(Op::send(0, 8, 5));
  p.rank(1).push_back(Op::send(0, 8, -3));
  p.rank(2).push_back(Op::send(0, 8, 2));
  p.rank(2).push_back(Op::send(0, 8, -7));
  p.rank(2).push_back(Op::send(1, 8, 4));
  p.rank(0).push_back(Op::send(3, 8, -1));
  p.rank(1).push_back(Op::send(0, 8, 70000));
  const Report report = verify_program(p);
  std::vector<std::pair<std::uint32_t, std::size_t>> order;
  for (const Diagnostic& d : report.findings())
    if (d.rule == kRuleUnmatchedSend)
      order.emplace_back(d.location.rank, d.location.op_index);
  // Destination 0 first: source 1 (tags -3, 5, 70000), source 2 (-7, 2),
  // source 3 (tag 1 twice, in send order); then destinations 1 and 3.
  const std::vector<std::pair<std::uint32_t, std::size_t>> want = {
      {1, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 0}, {3, 0}, {3, 1}, {2, 2}, {0, 0}};
  EXPECT_EQ(order, want);
}

TEST(MpiVerify, Mpi002OrphanedRecv) {
  Program p(2);
  p.rank(0).push_back(Op::recv(1, 7));
  const Report report = verify_program(p);
  const Diagnostic& d = sole_finding(report, kRuleOrphanedRecv);
  EXPECT_EQ(d.location.rank, 0u);
  EXPECT_EQ(d.location.op_index, 0u);
  EXPECT_NE(d.message.find("finished without sending"), std::string::npos);
}

TEST(MpiVerify, Mpi003DeadlockCycleNamesTheChain) {
  // The seeded recv/send tag mismatch: both ranks post a receive whose
  // tag the peer never sends.
  Program p(2);
  p.rank(0).push_back(Op::recv(1, 2));
  p.rank(0).push_back(Op::send(1, 1024, 1));
  p.rank(1).push_back(Op::recv(0, 1));
  p.rank(1).push_back(Op::send(0, 1024, 3));
  const Report report = verify_program(p);
  EXPECT_TRUE(report.has_rule(kRuleDeadlockCycle));
  EXPECT_TRUE(report.has_errors());
  const Diagnostic& d = report.findings().front();
  EXPECT_EQ(d.rule, kRuleDeadlockCycle);
  EXPECT_EQ(d.location.rank, 0u);
  EXPECT_EQ(d.location.op_index, 0u);
  EXPECT_NE(d.message.find("rank 0 -> rank 1 -> rank 0"),
            std::string::npos)
      << d.message;
}

TEST(MpiVerify, Mpi003ThreeRankCycle) {
  Program p(3);
  p.rank(0).push_back(Op::recv(1, 1));
  p.rank(1).push_back(Op::recv(2, 1));
  p.rank(2).push_back(Op::recv(0, 1));
  const Report report = verify_program(p);
  const Diagnostic& d = report.findings().front();
  EXPECT_EQ(d.rule, kRuleDeadlockCycle);
  EXPECT_NE(d.message.find("rank 0 -> rank 1 -> rank 2 -> rank 0"),
            std::string::npos)
      << d.message;
  // The two other members are located via notes.
  EXPECT_EQ(report.notes(), 2u);
}

TEST(MpiVerify, Mpi003StuckBehindCycleIsANote) {
  Program p(3);
  p.rank(0).push_back(Op::recv(1, 1));  // cycle 0 <-> 1
  p.rank(1).push_back(Op::recv(0, 2));
  p.rank(2).push_back(Op::recv(0, 9));  // stuck behind the cycle
  const Report report = verify_program(p);
  EXPECT_EQ(report.errors(), 1u) << render_diagnostics(report);
  bool stuck_note = false;
  for (const Diagnostic& d : report.findings())
    if (d.severity == Severity::kNote && d.location.rank == 2) {
      stuck_note = true;
      EXPECT_NE(d.message.find("stuck behind"), std::string::npos);
    }
  EXPECT_TRUE(stuck_note) << render_diagnostics(report);
}

TEST(MpiVerify, Mpi004CollectiveSequenceMismatch) {
  Program p(2);
  p.rank(0).push_back(Op::bcast(0, 1024));
  p.rank(1).push_back(Op::bcast(1, 1024));  // different root
  const Report report = verify_program(p);
  EXPECT_TRUE(report.has_rule(kRuleCollectiveMismatch));
  EXPECT_TRUE(report.has_errors());
}

TEST(MpiVerify, Mpi004CollectiveCountMismatch) {
  Program p(2);
  p.append_all(Op::barrier());
  p.rank(0).push_back(Op::barrier());  // rank 0 runs one extra barrier
  const Report report = verify_program(p);
  EXPECT_TRUE(report.has_rule(kRuleCollectiveMismatch));
}

TEST(MpiVerify, Mpi005SelfSendWarns) {
  Program p(2);
  p.append_all(Op::barrier());  // keep the program otherwise interesting
  p.rank(0).push_back(Op::send(0, 64, 3));
  p.rank(0).push_back(Op::recv(0, 3));
  const Report report = verify_program(p);
  EXPECT_FALSE(report.has_errors()) << render_diagnostics(report);
  EXPECT_TRUE(report.has_rule(kRuleSelfSend));
  EXPECT_EQ(report.warnings(), 1u);
}

TEST(MpiVerify, Mpi006PeerOutOfRange) {
  Program p(2);
  p.rank(0).push_back(Op::send(5, 64, 1));
  const Report report = verify_program(p);
  EXPECT_TRUE(report.has_rule(kRulePeerOutOfRange));
  EXPECT_TRUE(report.has_errors());
}

// MPI006 must not hide unrelated findings: matching still runs with the
// broken op dropped, so the deadlock between ranks 1 and 2 is reported
// alongside the out-of-range peer (the old first-error short-circuit
// suppressed it).
TEST(MpiVerify, Mpi006DoesNotHideAnIndependentDeadlock) {
  Program p(3);
  p.rank(0).push_back(Op::send(7, 64, 1));  // MPI006: peer 7 of 3
  p.rank(1).push_back(Op::recv(2, 5));      // tag mismatch cycle
  p.rank(1).push_back(Op::send(2, 64, 4));
  p.rank(2).push_back(Op::recv(1, 6));
  p.rank(2).push_back(Op::send(1, 64, 3));
  const Report report = verify_program(p);
  EXPECT_TRUE(report.has_rule(kRulePeerOutOfRange))
      << render_diagnostics(report);
  EXPECT_TRUE(report.has_rule(kRuleDeadlockCycle))
      << render_diagnostics(report);
}

// Same for MPI010 (reserved-space tag): the warning fires and matching
// proceeds literally, so a clean schedule stays otherwise clean.
TEST(MpiVerify, Mpi010DoesNotSuppressMatching) {
  Program p(2);
  p.rank(0).push_back(Op::send(1, 64, 1 << 16));
  p.rank(1).push_back(Op::recv(0, 1 << 16));
  p.rank(0).push_back(Op::recv(1, 9));  // unmatched: MPI002
  const Report report = verify_program(p);
  EXPECT_TRUE(report.has_rule(kRuleTagOutOfRange))
      << render_diagnostics(report);
  EXPECT_TRUE(report.has_rule(kRuleOrphanedRecv))
      << render_diagnostics(report);
}

TEST(MpiVerify, Mpi007RootOutOfRange) {
  Program p(2);
  p.rank(0).push_back(Op::bcast(9, 1024));
  p.rank(1).push_back(Op::bcast(9, 1024));
  const Report report = verify_program(p);
  EXPECT_TRUE(report.has_rule(kRuleRootOutOfRange));
}

TEST(MpiVerify, Mpi008AlltoallvCountsLength) {
  Program p(4);
  // Bypass the checked append to seed the defect the verifier must catch.
  for (std::uint32_t r = 0; r < 4; ++r)
    p.rank(r).push_back(Op::alltoallv({1, 2, 3}));  // 3 counts, 4 ranks
  const Report report = verify_program(p);
  EXPECT_TRUE(report.has_rule(kRuleAlltoallvCounts));
  EXPECT_TRUE(report.has_errors());
}

TEST(MpiVerify, Mpi008CheckedAppendCatchesItAtConstruction) {
  Program p(4);
  EXPECT_THROW(p.append_all(Op::alltoallv({1, 2, 3})), support::Error);
  EXPECT_THROW(p.append(0, Op::alltoallv({1, 2, 3})), support::Error);
  EXPECT_NO_THROW(p.append_all(Op::alltoallv({1, 2, 3, 4})));
}

TEST(MpiVerify, Mpi009BadComputeSeconds) {
  Program p(1);
  p.rank(0).push_back(Op::compute(-0.5));
  const Report report = verify_program(p);
  sole_finding(report, kRuleBadComputeSeconds);
  Program q(1);
  q.rank(0).push_back(Op::compute(std::nan("")));
  EXPECT_TRUE(verify_program(q).has_rule(kRuleBadComputeSeconds));
}

TEST(MpiVerify, Mpi010TagInReservedCollectiveSpace) {
  Program p(2);
  p.rank(0).push_back(Op::send(1, 64, 1 << 16));
  p.rank(1).push_back(Op::recv(0, 1 << 16));
  const Report report = verify_program(p);
  EXPECT_TRUE(report.has_rule(kRuleTagOutOfRange));
  EXPECT_TRUE(report.has_errors());
}

TEST(MpiVerify, Mpi010NegativeTagOnlyWarns) {
  Program p(2);
  p.append(0, Op::send(1, 64, -3));
  p.append(1, Op::recv(0, -3));
  const Report report = verify_program(p);
  EXPECT_FALSE(report.has_errors()) << render_diagnostics(report);
  EXPECT_TRUE(report.has_rule(kRuleTagOutOfRange));
  EXPECT_EQ(report.warnings(), 2u);
}

TEST(MpiVerify, LocationsNameUserOpIndexNotLoweredIndex) {
  // Rank 1's broken receive sits after a barrier whose lowering expands
  // to many ops; the diagnostic must still point at user op index 1.
  Program p(2);
  p.append_all(Op::barrier());
  p.append(0, Op::send(1, 64, 1));
  p.rank(1).push_back(Op::recv(0, 2));  // wrong tag
  const Report report = verify_program(p);
  ASSERT_TRUE(report.has_errors()) << render_diagnostics(report);
  bool located = false;
  for (const Diagnostic& d : report.findings())
    if (d.location.rank == 1 && d.severity == Severity::kError) {
      EXPECT_EQ(d.location.op_index, 1u) << d.message;
      located = true;
    }
  EXPECT_TRUE(located) << render_diagnostics(report);
}

// Property: every collective lowering the runtime can produce verifies
// clean at every rank count — for all kinds and ranks in {2..9}, plus a
// mixed sequence, so the verifier never rejects a program the runtime
// would happily execute.
TEST(MpiVerifyProperty, AllCollectiveLoweringsVerifyClean) {
  for (std::uint32_t ranks = 2; ranks <= 9; ++ranks) {
    std::vector<Op> collectives = {
        Op::barrier(),
        Op::bcast(ranks - 1, 4096),
        Op::allreduce(8192),
        Op::alltoallv(std::vector<std::uint64_t>(ranks, 1024)),
        Op::gather(0, 512),
        Op::scatter(ranks / 2, 512),
        Op::allgather(256),
        Op::reduce(1 % ranks, 2048),
    };
    for (const Op& op : collectives) {
      Program p(ranks);
      p.append_all(op);
      const Report report = verify_program(p);
      EXPECT_TRUE(report.empty())
          << "ranks=" << ranks << " op label=" << op.label << "\n"
          << render_diagnostics(report);
    }
    // All of them back to back: occurrence tag bases must not collide.
    Program mixed(ranks);
    for (const Op& op : collectives) mixed.append_all(op);
    mixed.append_all(Op::compute(0.25));
    const Report report = verify_program(mixed);
    EXPECT_TRUE(report.empty())
        << "ranks=" << ranks << "\n" << render_diagnostics(report);
  }
}

// The built-in application programs are exactly what `mbctl verify-mpi`
// analyses and what CI gates on: all must verify clean.
TEST(MpiVerify, BuiltinAppProgramsVerifyClean) {
  apps::BigDftParams bigdft;
  bigdft.ranks = 8;
  bigdft.iterations = 3;
  const Report b = verify_program(apps::bigdft_program(bigdft));
  EXPECT_TRUE(b.empty()) << render_diagnostics(b);

  apps::HplParams hpl;
  hpl.ranks = 4;
  hpl.n = 1024;
  hpl.block = 128;
  const Report h = verify_program(apps::hpl_program(hpl));
  EXPECT_TRUE(h.empty()) << render_diagnostics(h);

  apps::SpecfemParams specfem;
  specfem.ranks = 6;
  specfem.steps = 4;
  const Report s = verify_program(apps::specfem_program(specfem));
  EXPECT_TRUE(s.empty()) << render_diagnostics(s);
}

}  // namespace
}  // namespace mb::verify
