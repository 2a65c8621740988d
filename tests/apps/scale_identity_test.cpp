// Serial-vs-parallel byte-identity at scale: the engine split into one
// shard per leaf switch must reproduce the one-shard (serial) engine's
// results bit for bit — makespans compared as doubles (no tolerance),
// drop counters exactly, and the Paraver trace bytes for any shard or
// worker count. This is the run_campaign discipline applied to the DES
// engine itself: parallelism is an implementation detail that must be
// invisible in every observable output.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "apps/cluster.h"
#include "apps/scenario.h"

namespace mb::apps {
namespace {

AppRunResult run(const Scenario& s, std::uint32_t sim_jobs) {
  ClusterConfig cluster = cluster_for(s);
  cluster.mpi.verify = false;
  cluster.sim_jobs = sim_jobs;
  return run_on_cluster(cluster, build_program(s.params));
}

AppRunResult run_specfem_1024(std::uint32_t sim_jobs) {
  Scenario s = scenario("scaling/specfem", 1024, 2013);
  std::get<SpecfemParams>(s.params).steps = 2;  // the suite runs 8
  return run(s, sim_jobs);
}

AppRunResult run_bigdft_256(std::uint32_t sim_jobs) {
  return run(scenario("scaling/bigdft", 256, 2013), sim_jobs);
}

std::string paraver_bytes(const AppRunResult& result) {
  std::ostringstream out;
  result.trace.write_paraver(out);
  return out.str();
}

TEST(ScaleIdentity, Specfem1024RanksSerialVsSharded) {
  const AppRunResult serial = run_specfem_1024(0);
  const AppRunResult sharded1 = run_specfem_1024(1);
  const AppRunResult sharded8 = run_specfem_1024(8);

  // One shard vs one per leaf switch, any worker count: same makespan
  // bits, same drop counters.
  EXPECT_EQ(serial.makespan_s, sharded1.makespan_s);
  EXPECT_EQ(serial.makespan_s, sharded8.makespan_s);
  EXPECT_EQ(serial.network_drops, sharded1.network_drops);
  EXPECT_EQ(serial.network_drops, sharded8.network_drops);
  EXPECT_TRUE(serial.completed && sharded1.completed && sharded8.completed);

  // The whole trace is byte-identical: every run drains its sink
  // rank-major, whichever way the engine was split.
  const std::string serial_prv = paraver_bytes(serial);
  EXPECT_EQ(serial_prv, paraver_bytes(sharded1));
  EXPECT_EQ(serial_prv, paraver_bytes(sharded8));
}

TEST(ScaleIdentity, BigDftCongestionCollapseIdenticalAcrossEngines) {
  // The congestion regime: the 256-rank alltoallv overruns the switch
  // buffers by design. Drop counts are the most fragile observable —
  // they depend on exact packet arrival interleaving at every port.
  const AppRunResult serial = run_bigdft_256(0);
  const AppRunResult sharded8 = run_bigdft_256(8);

  EXPECT_GT(serial.network_drops, 0u);
  EXPECT_EQ(serial.makespan_s, sharded8.makespan_s);
  EXPECT_EQ(serial.network_drops, sharded8.network_drops);
  EXPECT_EQ(serial.network_retransmits, sharded8.network_retransmits);
  EXPECT_EQ(paraver_bytes(serial), paraver_bytes(sharded8));
}

}  // namespace
}  // namespace mb::apps
