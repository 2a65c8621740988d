#include "obs/metrics.h"

#include <algorithm>

#include "support/check.h"

namespace mb::obs {

using support::check;
using support::JsonValue;
using support::JsonWriter;

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size(), 0) {
  check(!bounds_.empty(), "Histogram", "need at least one bucket bound");
  check(std::is_sorted(bounds_.begin(), bounds_.end()) &&
            std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                bounds_.end(),
        "Histogram", "bucket bounds must be strictly increasing");
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  if (it == bounds_.end()) {
    ++overflow_;
  } else {
    ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  }
  ++count_;
  sum_ += v;
}

std::string MetricSample::key() const {
  std::string k = name;
  if (!labels.empty()) {
    k += '{';
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) k += ',';
      k += labels[i].first + '=' + labels[i].second;
    }
    k += '}';
  }
  return k;
}

std::string_view metric_type_name(MetricSample::Type t) {
  switch (t) {
    case MetricSample::Type::kCounter: return "counter";
    case MetricSample::Type::kGauge: return "gauge";
    case MetricSample::Type::kHistogram: return "histogram";
  }
  return "?";
}

namespace {

MetricSample::Type parse_metric_type(std::string_view name) {
  if (name == "counter") return MetricSample::Type::kCounter;
  if (name == "gauge") return MetricSample::Type::kGauge;
  if (name == "histogram") return MetricSample::Type::kHistogram;
  support::fail("parse_metric_type",
                "unknown metric type '" + std::string(name) + "'");
}

Labels normalize(Labels labels) {
  std::sort(labels.begin(), labels.end());
  for (std::size_t i = 1; i < labels.size(); ++i)
    check(labels[i - 1].first != labels[i].first, "Registry",
          "duplicate label key '" + labels[i].first + "'");
  return labels;
}

/// Index key of a series: every string length-prefixed, so no name or
/// label text can make two different series collide.
std::string series_key(std::string_view name, const Labels& labels) {
  std::string k;
  const auto append = [&k](std::string_view part) {
    k += std::to_string(part.size());
    k += ':';
    k += part;
  };
  append(name);
  for (const auto& [key, value] : labels) {
    append(key);
    append(value);
  }
  return k;
}

}  // namespace

Registry::Series* Registry::find(std::string_view name,
                                 const Labels& labels) {
  const auto it = index_.find(series_key(name, labels));
  return it == index_.end() ? nullptr : &series_[it->second];
}

Registry::Series& Registry::add(Series s) {
  series_.push_back(std::move(s));
  Series& added = series_.back();
  index_.emplace(series_key(added.name, added.labels), series_.size() - 1);
  return added;
}

Counter& Registry::counter(std::string_view name, Labels labels) {
  labels = normalize(std::move(labels));
  if (Series* s = find(name, labels)) {
    check(s->type == MetricSample::Type::kCounter, "Registry::counter",
          "series '" + std::string(name) + "' exists with another type");
    return *s->counter;
  }
  Series s;
  s.type = MetricSample::Type::kCounter;
  s.name = std::string(name);
  s.labels = std::move(labels);
  s.counter = std::make_unique<Counter>();
  counters_.push_back(s.counter.get());
  counter_series_.push_back(series_.size());
  return *add(std::move(s)).counter;
}

Gauge& Registry::gauge(std::string_view name, Labels labels) {
  labels = normalize(std::move(labels));
  if (Series* s = find(name, labels)) {
    check(s->type == MetricSample::Type::kGauge, "Registry::gauge",
          "series '" + std::string(name) + "' exists with another type");
    return *s->gauge;
  }
  Series s;
  s.type = MetricSample::Type::kGauge;
  s.name = std::string(name);
  s.labels = std::move(labels);
  s.gauge = std::make_unique<Gauge>();
  return *add(std::move(s)).gauge;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds, Labels labels) {
  labels = normalize(std::move(labels));
  if (Series* s = find(name, labels)) {
    check(s->type == MetricSample::Type::kHistogram, "Registry::histogram",
          "series '" + std::string(name) + "' exists with another type");
    check(s->histogram->bounds() == bounds, "Registry::histogram",
          "series '" + std::string(name) +
              "' exists with different bucket bounds");
    return *s->histogram;
  }
  Series s;
  s.type = MetricSample::Type::kHistogram;
  s.name = std::string(name);
  s.labels = std::move(labels);
  s.histogram = std::make_unique<Histogram>(std::move(bounds));
  return *add(std::move(s)).histogram;
}

std::vector<MetricSample> Registry::snapshot() const {
  std::vector<MetricSample> out;
  out.reserve(series_.size());
  for (const auto& s : series_) {
    MetricSample m;
    m.name = s.name;
    m.type = s.type;
    m.labels = s.labels;
    switch (s.type) {
      case MetricSample::Type::kCounter:
        m.value = s.counter->value();
        break;
      case MetricSample::Type::kGauge:
        m.value = s.gauge->value();
        break;
      case MetricSample::Type::kHistogram:
        m.value = s.histogram->sum();
        m.bounds = s.histogram->bounds();
        m.counts = s.histogram->counts();
        m.overflow = s.histogram->overflow();
        m.count = s.histogram->count();
        break;
    }
    out.push_back(std::move(m));
  }
  return out;
}

double Registry::counter_value(std::size_t i) const {
  check(i < counters_.size(), "Registry::counter_value", "index out of range");
  return counters_[i]->value();
}

std::string Registry::counter_key(std::size_t i) const {
  check(i < counter_series_.size(), "Registry::counter_key",
        "index out of range");
  const Series& s = series_[counter_series_[i]];
  MetricSample m;
  m.name = s.name;
  m.labels = s.labels;
  return m.key();
}

void Registry::reset() {
  for (auto& s : series_) {
    switch (s.type) {
      case MetricSample::Type::kCounter:
        *s.counter = Counter();
        break;
      case MetricSample::Type::kGauge:
        *s.gauge = Gauge();
        break;
      case MetricSample::Type::kHistogram:
        *s.histogram = Histogram(s.histogram->bounds());
        break;
    }
  }
}

void Registry::clear() {
  series_.clear();
  index_.clear();
  counters_.clear();
  counter_series_.clear();
}

Registry& metrics() {
  static Registry instance;
  return instance;
}

void write_metrics_json(JsonWriter& w,
                        const std::vector<MetricSample>& samples) {
  w.begin_array();
  for (const auto& m : samples) {
    w.begin_object();
    w.field("name", m.name);
    w.field("type", metric_type_name(m.type));
    if (!m.labels.empty()) {
      w.key("labels").begin_object();
      for (const auto& [k, v] : m.labels) w.field(k, v);
      w.end_object();
    }
    if (m.type == MetricSample::Type::kHistogram) {
      w.key("le").begin_array();
      for (double b : m.bounds) w.value(b);
      w.end_array();
      w.key("counts").begin_array();
      for (std::uint64_t c : m.counts) w.value(c);
      w.end_array();
      w.field("overflow", m.overflow);
      w.field("count", m.count);
      w.field("sum", m.value);
    } else {
      w.field("value", m.value);
    }
    w.end_object();
  }
  w.end_array();
}

std::vector<MetricSample> parse_metrics_json(const JsonValue& array) {
  std::vector<MetricSample> out;
  for (const JsonValue& v : array.as_array()) {
    MetricSample m;
    m.name = v.at("name").as_string();
    m.type = parse_metric_type(v.at("type").as_string());
    if (const JsonValue* labels = v.find("labels")) {
      for (const auto& [k, lv] : labels->members())
        m.labels.emplace_back(k, lv.as_string());
    }
    if (m.type == MetricSample::Type::kHistogram) {
      for (const JsonValue& b : v.at("le").as_array())
        m.bounds.push_back(b.as_number());
      for (const JsonValue& c : v.at("counts").as_array())
        m.counts.push_back(
            static_cast<std::uint64_t>(c.as_number()));
      check(m.bounds.size() == m.counts.size(), "parse_metrics_json",
            "histogram 'le' and 'counts' lengths differ");
      m.overflow = static_cast<std::uint64_t>(v.at("overflow").as_number());
      m.count = static_cast<std::uint64_t>(v.at("count").as_number());
      m.value = v.at("sum").as_number();
    } else {
      m.value = v.at("value").as_number();
    }
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace mb::obs
