#include "obs/timeseries.h"

#include <algorithm>

#include "support/check.h"
#include "support/json.h"
#include "support/schema.h"

namespace mb::obs {

using support::check;
using support::JsonValue;
using support::JsonWriter;

std::string to_json(const TimeSeries& ts) {
  JsonWriter w;
  support::begin_document(w, support::kTimeSeriesSchema);
  w.field("tool", ts.tool);
  w.field("tool_version", ts.tool_version);
  w.field("seed", ts.seed);
  w.field("interval_s", ts.interval_s);
  w.field("samples", static_cast<std::uint64_t>(ts.times_s.size()));
  w.key("times_s").begin_array();
  for (const double t : ts.times_s) w.value(t);
  w.end_array();
  w.key("series").begin_array();
  for (const auto& s : ts.series) {
    w.begin_object();
    w.field("name", s.name);
    w.key("labels").begin_object();
    for (const auto& [k, v] : s.labels) w.field(k, v);
    w.end_object();
    w.key("values").begin_array();
    for (const double v : s.values) w.value(v);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

TimeSeries timeseries_from_json(std::string_view text) {
  const JsonValue doc = support::parse_json(text);
  support::check_document(doc, support::kTimeSeriesSchema,
                          "timeseries_from_json");
  TimeSeries ts;
  ts.tool = doc.at("tool").as_string();
  ts.tool_version = doc.at("tool_version").as_string();
  ts.seed = support::u64_at(doc, "seed");
  ts.interval_s = doc.at("interval_s").as_number();
  for (const auto& t : doc.at("times_s").as_array())
    ts.times_s.push_back(t.as_number());
  for (const auto& entry : doc.at("series").as_array()) {
    Series s;
    s.name = entry.at("name").as_string();
    for (const auto& [k, v] : entry.at("labels").members())
      s.labels.emplace_back(k, v.as_string());
    for (const auto& v : entry.at("values").as_array())
      s.values.push_back(v.as_number());
    check(s.values.size() == ts.times_s.size(), "timeseries_from_json",
          "series '" + s.name + "' length does not match times_s");
    ts.series.push_back(std::move(s));
  }
  return ts;
}

void prune_series(TimeSeries& ts, std::string_view name_prefix,
                  std::size_t keep_top) {
  std::vector<std::size_t> matching;
  for (std::size_t i = 0; i < ts.series.size(); ++i) {
    const Series& s = ts.series[i];
    if (std::string_view(s.name).substr(0, name_prefix.size()) ==
        name_prefix)
      matching.push_back(i);
  }
  // Rank matches by final value, descending; stable so ties keep their
  // registration order.
  std::stable_sort(matching.begin(), matching.end(),
                   [&](std::size_t a, std::size_t b) {
                     const auto& va = ts.series[a].values;
                     const auto& vb = ts.series[b].values;
                     const double fa = va.empty() ? 0.0 : va.back();
                     const double fb = vb.empty() ? 0.0 : vb.back();
                     return fa > fb;
                   });
  std::vector<bool> drop(ts.series.size(), false);
  for (std::size_t m = 0; m < matching.size(); ++m) {
    const auto& values = ts.series[matching[m]].values;
    const double final_value = values.empty() ? 0.0 : values.back();
    if (m >= keep_top || final_value == 0.0) drop[matching[m]] = true;
  }
  std::vector<Series> kept;
  kept.reserve(ts.series.size());
  for (std::size_t i = 0; i < ts.series.size(); ++i)
    if (!drop[i]) kept.push_back(std::move(ts.series[i]));
  ts.series = std::move(kept);
}

void TimeSampler::add_probe(std::string name, Labels labels,
                            std::function<double()> probe) {
  check(!armed_, "TimeSampler", "register probes before arm()");
  check(static_cast<bool>(probe), "TimeSampler", "null probe");
  Probe p;
  p.name = std::move(name);
  p.labels = std::move(labels);
  p.fn = std::move(probe);
  probes_.push_back(std::move(p));
  Series s;
  s.name = probes_.back().name;
  s.labels = probes_.back().labels;
  data_.series.push_back(std::move(s));
}

void TimeSampler::arm(sim::ShardedEngine& engine, double interval_s,
                      std::size_t max_samples) {
  check(!armed_, "TimeSampler", "arm() called twice");
  check(engine.shards() == 1, "TimeSampler",
        "sampling reads global state and needs a one-shard engine");
  check(interval_s > 0.0, "TimeSampler", "interval must be positive");
  check(max_samples > 0, "TimeSampler", "max_samples must be positive");
  armed_ = true;
  max_samples_ = max_samples;
  data_.interval_s = interval_s;
  schedule(engine, interval_s);
}

void TimeSampler::schedule(sim::ShardedEngine& engine, double interval_s) {
  // One shard owns every node, so the home node is immaterial.
  engine.schedule(0, engine.now() + interval_s,
                  [this, &engine, interval_s] { step(engine, interval_s); });
}

void TimeSampler::step(sim::ShardedEngine& engine, double interval_s) {
  data_.times_s.push_back(engine.now());
  for (std::size_t i = 0; i < probes_.size(); ++i)
    data_.series[i].values.push_back(probes_[i].fn());
  // The executing event is already popped, so an empty calendar means the
  // run has drained: keep this final sample and let the loop terminate
  // instead of rescheduling forever.
  if (engine.stats().pending == 0 || data_.times_s.size() >= max_samples_)
    return;
  schedule(engine, interval_s);
}

TimeSeries TimeSampler::take() { return std::move(data_); }

}  // namespace mb::obs
