// Chaos executor: node crashes recover through checkpoint/restart (or fail
// structurally without it), link flaps ride out on retransmission alone,
// and identical plans replay bit-identically.
#include "fault/chaos.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/bigdft.h"
#include "support/check.h"
#include "trace/sink.h"
#include "trace/trace.h"

namespace mb::fault {
namespace {

// Small BigDFT run: 4 Tibidabo nodes x 2 cores, ~0.6 s healthy makespan —
// big enough for faults to land mid-flight, small enough for a test.
ChaosScenario base_scenario() {
  ChaosScenario s;
  s.cluster = apps::tibidabo_cluster(4);
  s.cluster.mpi.recv_timeout_s = 1.0;
  s.cluster.mpi.max_send_retries = 3;
  s.plan.seed = 7;
  return s;
}

mpi::Program small_bigdft(std::uint64_t seed) {
  apps::BigDftParams params;
  params.ranks = 8;
  params.iterations = 3;
  params.compute_s_per_iter = 1.0;
  params.transpose_bytes = 4ull << 20;
  params.seed = seed;
  return apps::bigdft_program(params);
}

void enable_checkpointing(FaultPlan& plan) {
  plan.checkpoint.enabled = true;
  plan.checkpoint.interval_s = 0.1;
  plan.checkpoint.state_bytes_per_rank = 1.0 * 1024 * 1024;
  plan.checkpoint.write_bandwidth_bytes_per_s = 100e6;
  plan.checkpoint.read_bandwidth_bytes_per_s = 150e6;
  plan.checkpoint.restart_overhead_s = 0.2;
}

TEST(Chaos, NodeCrashRecoversWithCheckpointing) {
  ChaosScenario s = base_scenario();
  s.plan.crashes.push_back({2, 0.35});
  enable_checkpointing(s.plan);

  const ChaosResult r = run_chaos(s, small_bigdft(s.plan.seed));
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.recovered);
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_GT(r.app_makespan_s, 0.0);
  // TTS = makespan + every recovery overhead, all of which are positive
  // here (lost work since the 0.1 s-boundary checkpoint, detection at the
  // 1 s recv timeout, restart + state re-read, checkpoint writes).
  EXPECT_GT(r.time_to_solution_s, r.app_makespan_s);
  EXPECT_GT(r.recovery.lost_work_s, 0.0);
  EXPECT_LE(r.recovery.lost_work_s, s.plan.checkpoint.interval_s + 1e-12);
  EXPECT_GT(r.recovery.detection_s, 0.0);
  EXPECT_GT(r.recovery.restart_s, 0.0);
  EXPECT_GT(r.recovery.checkpoint_write_s, 0.0);
  EXPECT_NEAR(r.time_to_solution_s,
              r.app_makespan_s + r.recovery.total(), 1e-12);
}

TEST(Chaos, RecoveredRunKeepsFaultMarksInTrace) {
  ChaosScenario s = base_scenario();
  s.plan.crashes.push_back({2, 0.35});
  enable_checkpointing(s.plan);

  const ChaosResult r = run_chaos(s, small_bigdft(s.plan.seed));
  ASSERT_TRUE(r.recovered);
  // The successful attempt itself saw no crash: the mark must have been
  // carried over from the failed attempt's trace.
  bool crash_mark = false;
  for (const trace::Record& rec : r.trace.records())
    if (rec.kind == trace::EventKind::kFault && rec.label == "crash:node2")
      crash_mark = true;
  EXPECT_TRUE(crash_mark);
}

TEST(Chaos, NodeCrashWithoutCheckpointingFails) {
  ChaosScenario s = base_scenario();
  s.plan.crashes.push_back({2, 0.35});  // checkpointing left disabled

  const ChaosResult r = run_chaos(s, small_bigdft(s.plan.seed));
  EXPECT_FALSE(r.completed);
  EXPECT_FALSE(r.recovered);
  EXPECT_EQ(r.attempts, 1u);
  // Node 2 hosts ranks 4 and 5; both must be reported dead, and the
  // survivors blocked on them must be named.
  ASSERT_EQ(r.failure.dead_ranks.size(), 2u);
  EXPECT_EQ(r.failure.dead_ranks[0], 4u);
  EXPECT_EQ(r.failure.dead_ranks[1], 5u);
  EXPECT_FALSE(r.failure.blocked.empty());
  EXPECT_GT(r.failure.detected_s, 0.35);  // detector fired after the crash
}

TEST(Chaos, LinkFlapRecoversWithoutRestart) {
  ChaosScenario s = base_scenario();
  s.cluster.mpi.recv_timeout_s = 0.0;  // outage < any legitimate timeout
  s.plan.link_downs.push_back({1, 0.05, 0.3});

  const ChaosResult r = run_chaos(s, small_bigdft(s.plan.seed));
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.recovered);  // retransmission absorbed the outage
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_GT(r.retransmits, 0u);
}

TEST(Chaos, DeterministicReplay) {
  auto run_once = [] {
    ChaosScenario s = base_scenario();
    s.cluster.mpi.recv_timeout_s = 0.0;
    s.plan.losses.push_back({1, 0.05});
    return run_chaos(s, small_bigdft(s.plan.seed));
  };
  const ChaosResult a = run_once();
  const ChaosResult b = run_once();
  EXPECT_GT(a.injected_losses, 0u);
  EXPECT_EQ(a.injected_losses, b.injected_losses);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_DOUBLE_EQ(a.app_makespan_s, b.app_makespan_s);
  EXPECT_DOUBLE_EQ(a.time_to_solution_s, b.time_to_solution_s);
}

TEST(Chaos, CheckpointOverheadChargedOnCleanRun) {
  ChaosScenario s = base_scenario();
  enable_checkpointing(s.plan);  // no faults at all

  const ChaosResult r = run_chaos(s, small_bigdft(s.plan.seed));
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.recovered);
  EXPECT_EQ(r.attempts, 1u);
  // Periodic checkpoint writes are paid even when nothing crashes —
  // that cost/interval trade-off is the point of the model.
  EXPECT_GT(r.recovery.checkpoint_write_s, 0.0);
  EXPECT_DOUBLE_EQ(r.recovery.lost_work_s, 0.0);
  EXPECT_DOUBLE_EQ(r.recovery.restart_s, 0.0);
}

// Fault marks travel through the trace sink like every other record, so
// the capture options apply to them and they land in rank order. The
// scenario mirrors examples/faults/slow_node.json: node 2 (ranks 4 and 5)
// runs 5x slower from 0.2 s to 6 s.
ChaosScenario slow_node_scenario() {
  ChaosScenario s = base_scenario();
  s.plan.slowdowns.push_back({2, 0.2, 6.0, 5.0});
  return s;
}

// Node 2 crashes at 0.35 s; the restarted attempt completes.
ChaosScenario recoverable_crash_scenario() {
  ChaosScenario s = base_scenario();
  s.plan.crashes.push_back({2, 0.35});
  enable_checkpointing(s.plan);
  return s;
}

std::size_t fault_marks(const trace::Trace& tr) {
  std::size_t n = 0;
  for (const trace::Record& rec : tr.records())
    if (rec.kind == trace::EventKind::kFault) ++n;
  return n;
}

TEST(Chaos, FaultMarksObeyTheKindFilter) {
  ChaosScenario s = slow_node_scenario();
  s.cluster.streaming_trace = true;
  s.cluster.trace_sink.kind_mask =
      trace::event_kind_bit(trace::EventKind::kCompute);
  const ChaosResult r = run_chaos(s, small_bigdft(s.plan.seed));
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.trace.size(), 0u);
  EXPECT_EQ(fault_marks(r.trace), 0u);

  // Marks carried over from a failed attempt are filtered the same way.
  ChaosScenario crash = recoverable_crash_scenario();
  crash.cluster.streaming_trace = true;
  crash.cluster.trace_sink.kind_mask = s.cluster.trace_sink.kind_mask;
  const ChaosResult recovered = run_chaos(crash, small_bigdft(crash.plan.seed));
  ASSERT_TRUE(recovered.recovered);
  EXPECT_EQ(fault_marks(recovered.trace), 0u);
}

TEST(Chaos, FaultMarksObeyTheRankFilter) {
  ChaosScenario s = slow_node_scenario();
  s.cluster.streaming_trace = true;
  s.cluster.trace_sink.rank_list = {0, 1};
  const ChaosResult r = run_chaos(s, small_bigdft(s.plan.seed));
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.trace.size(), 0u);
  for (const trace::Record& rec : r.trace.records())
    EXPECT_LE(rec.rank, 1u) << trace::event_kind_name(rec.kind) << " "
                            << rec.label;
}

TEST(Chaos, FaultMarksSitInRankOrder) {
  const auto expect_rank_major = [](const trace::Trace& tr) {
    for (std::size_t i = 1; i < tr.size(); ++i)
      ASSERT_LE(tr.records()[i - 1].rank, tr.records()[i].rank)
          << "record " << i;
  };
  ChaosScenario s = slow_node_scenario();
  const ChaosResult r = run_chaos(s, small_bigdft(s.plan.seed));
  ASSERT_TRUE(r.completed);
  expect_rank_major(r.trace);
  // Both slowdown marks sit on the slowed node's first rank.
  std::vector<std::string> rank4_marks;
  for (const trace::Record& rec : r.trace.records())
    if (rec.kind == trace::EventKind::kFault) {
      EXPECT_EQ(rec.rank, 4u);
      rank4_marks.push_back(rec.label);
    }
  EXPECT_EQ(rank4_marks, (std::vector<std::string>{"slowdown:node2",
                                                   "slowdown_end:node2"}));

  // A recovered run re-emits the failed attempt's marks in rank order too.
  const ChaosScenario crash = recoverable_crash_scenario();
  const ChaosResult recovered = run_chaos(crash, small_bigdft(crash.plan.seed));
  ASSERT_TRUE(recovered.recovered);
  EXPECT_EQ(fault_marks(recovered.trace), 1u);
  expect_rank_major(recovered.trace);
}

TEST(Chaos, RejectsPlanThatFailsLint) {
  ChaosScenario s = base_scenario();
  s.plan.crashes.push_back({99, 0.3});  // cluster only has 4 nodes
  EXPECT_THROW(run_chaos(s, small_bigdft(s.plan.seed)), support::Error);
}

}  // namespace
}  // namespace mb::fault
