// End-to-end determinism: the whole stack (kernels, machine, DES network,
// MPI runtime, applications) is seeded and must be bit-reproducible —
// the property the paper's methodology chapter is ultimately about being
// able to *rely* on.
#include <gtest/gtest.h>

#include <sstream>

#include "apps/bigdft.h"
#include "apps/hpl.h"
#include "apps/scenario.h"
#include "apps/specfem.h"
#include "arch/platforms.h"
#include "kernels/chessbench.h"
#include "kernels/linpack.h"
#include "kernels/membench.h"
#include "obs/metrics.h"

namespace mb::apps {
namespace {

TEST(Determinism, BigDftRunsAreBitIdentical) {
  BigDftParams p;
  p.ranks = 16;
  p.iterations = 3;
  const double a = run_bigdft(tibidabo_cluster(8), p).makespan_s;
  const double b = run_bigdft(tibidabo_cluster(8), p).makespan_s;
  EXPECT_EQ(a, b);
}

TEST(Determinism, SeedChangesBigDftSchedule) {
  BigDftParams p;
  p.ranks = 16;
  p.iterations = 3;
  const double a = run_bigdft(tibidabo_cluster(8), p).makespan_s;
  p.seed = 99;
  const double b = run_bigdft(tibidabo_cluster(8), p).makespan_s;
  EXPECT_NE(a, b);  // imbalance skew differs
}

TEST(Determinism, SpecfemAndHplIdentical) {
  SpecfemParams sp;
  sp.ranks = 8;
  sp.steps = 3;
  EXPECT_EQ(run_specfem(tibidabo_cluster(4), sp).makespan_s,
            run_specfem(tibidabo_cluster(4), sp).makespan_s);
  HplParams hp;
  hp.ranks = 8;
  hp.n = 4096;
  hp.block = 256;
  auto cluster = tibidabo_cluster(4);
  cluster.mtu_bytes = 1u << 20;
  EXPECT_EQ(run_hpl(cluster, hp).makespan_s,
            run_hpl(cluster, hp).makespan_s);
}

TEST(Determinism, ShardedRunWithSendRetriesMatchesSerial) {
  // Send retries give every message a failure hook. The one-shard engine
  // keeps it; more shards drop it, since abandonment throws there before
  // a hook could run. With no faults no hook fires, so four shards must
  // reproduce the serial run bit for bit, result and trace.
  const auto run = [](std::uint32_t sim_jobs, double& shards) {
    // The scaling suite's 256-rank BigDFT plus one allreduce, on 128
    // boards under 48-port leaf switches: three leaves plus the root.
    Scenario s = scenario("scaling/bigdft", 256, 2013);
    std::get<BigDftParams>(s.params).allreduces = 1;
    ClusterConfig cluster = cluster_for(s);
    cluster.mpi.verify = false;
    cluster.mpi.max_send_retries = 3;
    cluster.sim_jobs = sim_jobs;
    AppRunResult result = run_on_cluster(cluster, build_program(s.params));
    shards = obs::metrics().gauge("sim.shards").value();
    return result;
  };
  const auto paraver = [](const AppRunResult& r) {
    std::ostringstream out;
    r.trace.write_paraver(out);
    return out.str();
  };
  double serial_shards = 0.0;
  double sharded_shards = 0.0;
  const AppRunResult serial = run(0, serial_shards);
  const AppRunResult sharded = run(4, sharded_shards);
  EXPECT_EQ(serial_shards, 1.0);
  EXPECT_EQ(sharded_shards, 4.0);
  EXPECT_TRUE(serial.completed && sharded.completed);
  EXPECT_GT(serial.network_drops, 0u);  // the retransmit path ran
  EXPECT_EQ(serial.makespan_s, sharded.makespan_s);
  EXPECT_EQ(serial.network_drops, sharded.network_drops);
  EXPECT_EQ(serial.network_retransmits, sharded.network_retransmits);
  EXPECT_EQ(paraver(serial), paraver(sharded));
}

TEST(Determinism, MachineRunsAreBitIdentical) {
  auto run_once = [] {
    sim::Machine m(arch::snowball(), sim::PagePolicy::kRandom,
                   support::Rng(77));
    kernels::MembenchParams p;
    p.array_bytes = 40 * 1024;
    return kernels::membench_run(m, p).sim.seconds;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Determinism, KernelCountsAreStable) {
  kernels::ChessbenchParams cp;
  cp.depth = 3;
  cp.positions = 2;
  EXPECT_EQ(kernels::chessbench_native(cp).nodes,
            kernels::chessbench_native(cp).nodes);
  kernels::LinpackParams lp;
  lp.n = 48;
  lp.block = 16;
  EXPECT_EQ(kernels::linpack_native(lp).flops,
            kernels::linpack_native(lp).flops);
}

}  // namespace
}  // namespace mb::apps
