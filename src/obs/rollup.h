// Rollups: surface existing per-subsystem statistics as registry metrics.
//
// The cache hierarchy and the DES engine already keep their own counters
// on the hot path (a design this module deliberately preserves — their
// inner loops stay free of registry lookups); these helpers publish those
// numbers into a Registry at measurement boundaries, so one snapshot
// carries the whole stack: spans, MPI traffic, cache behaviour and
// calendar-queue pressure side by side.
#pragma once

#include <string_view>

#include "obs/metrics.h"
#include "sim/machine.h"
#include "sim/sharded.h"

namespace mb::obs {

/// Publishes DES engine gauges, summed over shards: sim.events_executed,
/// sim.events_scheduled, sim.calendar_depth (pending now),
/// sim.calendar_max_depth, plus sim.shards and sim.windows. The finite
/// lookahead of a multi-shard engine goes to sim.lookahead_s; one shard
/// has none (it is +infinity, which JSON cannot carry).
void publish_scheduler(Registry& registry, const sim::ShardedEngine& engine);

/// Publishes per-level cache gauges (cache.accesses / cache.hits /
/// cache.misses / cache.evictions / cache.writebacks, labeled
/// {level="L1"...}) plus cache.memory_accesses, cache.memory_bytes and
/// cache.prefetches, all labeled with the machine's platform name.
void publish_machine(Registry& registry, const sim::Machine& machine);

}  // namespace mb::obs
