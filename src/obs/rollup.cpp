#include "obs/rollup.h"

#include <cmath>
#include <string>

namespace mb::obs {

void publish_scheduler(Registry& registry, const sim::ShardedEngine& engine) {
  const sim::EngineStats stats = engine.stats();
  registry.gauge("sim.events_executed")
      .set(static_cast<double>(stats.executed));
  registry.gauge("sim.events_scheduled")
      .set(static_cast<double>(stats.scheduled));
  registry.gauge("sim.calendar_depth")
      .set(static_cast<double>(stats.pending));
  registry.gauge("sim.calendar_max_depth")
      .set(static_cast<double>(stats.max_pending));
  registry.gauge("sim.shards").set(static_cast<double>(engine.shards()));
  if (std::isfinite(engine.lookahead()))
    registry.gauge("sim.lookahead_s").set(engine.lookahead());
  registry.gauge("sim.windows").set(static_cast<double>(engine.windows()));
}

void publish_machine(Registry& registry, const sim::Machine& machine) {
  const std::string platform = machine.platform().name;
  const auto stats = machine.hierarchy().stats();
  for (std::size_t i = 0; i < stats.level.size(); ++i) {
    const cache::CacheStats& s = stats.level[i];
    std::string level_name = "L";
    level_name += std::to_string(i + 1);
    const Labels labels{{"level", std::move(level_name)},
                        {"platform", platform}};
    registry.gauge("cache.accesses", labels)
        .set(static_cast<double>(s.accesses));
    registry.gauge("cache.hits", labels).set(static_cast<double>(s.hits));
    registry.gauge("cache.misses", labels)
        .set(static_cast<double>(s.misses));
    registry.gauge("cache.evictions", labels)
        .set(static_cast<double>(s.evictions));
    registry.gauge("cache.writebacks", labels)
        .set(static_cast<double>(s.writebacks));
  }
  const Labels labels{{"platform", platform}};
  registry.gauge("cache.memory_accesses", labels)
      .set(static_cast<double>(stats.memory_accesses));
  registry.gauge("cache.memory_bytes", labels)
      .set(static_cast<double>(stats.memory_bytes));
  registry.gauge("cache.prefetches", labels)
      .set(static_cast<double>(stats.prefetches));
}

}  // namespace mb::obs
