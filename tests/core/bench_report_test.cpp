#include "core/bench_report.h"

#include <gtest/gtest.h>

#include "support/check.h"
#include "support/schema.h"
#include "support/version.h"

namespace mb::core {
namespace {

BenchReport small_report() {
  BenchReport report;
  report.suite = "unit";
  report.tool = "test";
  report.seed = 7;
  report.plan.repetitions = 3;
  report.plan.seed = 7;
  report.add_platform({"toy", 2, 1e9, 2.5, 4.0, 8.0});

  BenchRecord r;
  r.name = "kernel/toy/unroll=2";
  r.platform = "toy";
  r.metric = "seconds";
  r.unit = "s";
  r.direction = Direction::kMinimize;
  r.samples = {1.0, 1.1, 0.9};
  report.records.push_back(r);
  return report;
}

TEST(BenchReport, DirectionNamesRoundTrip) {
  EXPECT_EQ(direction_name(Direction::kMinimize), "minimize");
  EXPECT_EQ(direction_name(Direction::kMaximize), "maximize");
  EXPECT_EQ(parse_direction("minimize"), Direction::kMinimize);
  EXPECT_EQ(parse_direction("maximize"), Direction::kMaximize);
  EXPECT_THROW(parse_direction("sideways"), support::Error);
}

TEST(BenchReport, SerializesSchemaHeaderAndSummary) {
  const std::string json = to_json(small_report());
  const auto doc = support::parse_json(json);
  EXPECT_EQ(doc.at("schema").as_string(), support::kBenchReportSchema.name);
  EXPECT_EQ(doc.at("schema_version").as_number(),
            support::kBenchReportSchema.version);
  const auto& bench = doc.at("benchmarks").as_array().at(0);
  EXPECT_EQ(bench.at("direction").as_string(), "minimize");
  EXPECT_EQ(bench.at("summary").at("n").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(bench.at("summary").at("median").as_number(), 1.0);
  EXPECT_EQ(bench.at("modes").at("count").as_number(), 1.0);
}

TEST(BenchReport, RoundTripsThroughJson) {
  const BenchReport original = small_report();
  const BenchReport parsed = report_from_json(to_json(original));

  EXPECT_EQ(support::parse_json(to_json(parsed)).at("schema_version")
                .as_number(),
            support::kBenchReportSchema.version);
  EXPECT_EQ(parsed.suite, "unit");
  EXPECT_EQ(parsed.tool, "test");
  EXPECT_EQ(parsed.seed, 7u);
  EXPECT_EQ(parsed.plan.repetitions, 3u);
  ASSERT_EQ(parsed.platforms.size(), 1u);
  EXPECT_EQ(parsed.platforms[0].name, "toy");
  EXPECT_DOUBLE_EQ(parsed.platforms[0].peak_sp_gflops, 8.0);

  ASSERT_EQ(parsed.records.size(), 1u);
  const BenchRecord& r = parsed.records[0];
  EXPECT_EQ(r.name, "kernel/toy/unroll=2");
  EXPECT_EQ(r.metric, "seconds");
  EXPECT_EQ(r.direction, Direction::kMinimize);
  EXPECT_EQ(r.samples, original.records[0].samples);
}

TEST(BenchReport, RoundTripsAResultSet) {
  // A small harness-shaped ResultSet: 2 variants x 3 reps.
  ParamSpace space;
  space.add("unroll", {1, 4});
  ResultSet results(space.size());
  std::size_t order = 0;
  for (double v : {1.0, 1.2, 1.1}) results.add(0, v, order++);
  for (double v : {0.5, 0.6, 0.4}) results.add(1, v, order++);

  BenchReport report;
  report.suite = "unit";
  report.tool = "test";
  append_resultset(report, space, results, "kernel/toy", "toy", "seconds",
                   "s", Direction::kMinimize);
  ASSERT_EQ(report.records.size(), 2u);
  EXPECT_EQ(report.records[0].name, "kernel/toy/unroll=1");
  EXPECT_EQ(report.records[1].name, "kernel/toy/unroll=4");

  const BenchReport parsed = report_from_json(to_json(report));
  ASSERT_EQ(parsed.records.size(), 2u);
  EXPECT_EQ(parsed.records[0].samples, results.samples(0));
  EXPECT_EQ(parsed.records[1].samples, results.samples(1));
  EXPECT_NE(parsed.find("kernel/toy/unroll=4"), nullptr);
  EXPECT_EQ(parsed.find("kernel/toy/unroll=8"), nullptr);
}

TEST(BenchReport, BimodalSamplesAreReportedAsTwoModes) {
  BenchReport report = small_report();
  // Fig. 5-like series: a fast mode and a ~5x degraded mode.
  report.records[0].samples = {1.0, 1.01, 0.99, 1.02, 0.98, 1.0,
                               5.0, 5.05, 4.95};
  const auto doc = support::parse_json(to_json(report));
  const auto& modes = doc.at("benchmarks").as_array().at(0).at("modes");
  EXPECT_EQ(modes.at("count").as_number(), 2.0);
  EXPECT_NEAR(modes.at("low_center").as_number(), 1.0, 0.05);
  EXPECT_NEAR(modes.at("high_center").as_number(), 5.0, 0.1);
  EXPECT_GT(modes.at("separation").as_number(), 3.0);
}

TEST(BenchReport, RejectsWrongSchemaNameOrVersion) {
  BenchReport report = small_report();
  std::string json = to_json(report);

  std::string wrong_name = json;
  wrong_name.replace(wrong_name.find("mb-bench-report"),
                     std::string("mb-bench-report").size(), "other-schema!!");
  EXPECT_THROW(report_from_json(wrong_name), support::Error);

  std::string wrong_version = json;
  wrong_version.replace(wrong_version.find("\"schema_version\": 1"),
                        std::string("\"schema_version\": 1").size(),
                        "\"schema_version\": 9");
  EXPECT_THROW(report_from_json(wrong_version), support::Error);
}

TEST(BenchReport, RejectsDuplicateRecordNames) {
  BenchReport report = small_report();
  report.records.push_back(report.records[0]);
  EXPECT_THROW(report_from_json(to_json(report)), support::Error);
}

TEST(BenchReport, RejectsEmptySampleSeries) {
  BenchReport report = small_report();
  report.records[0].samples.clear();
  EXPECT_THROW(to_json(report), support::Error);
}

TEST(BenchReport, StampsToolVersionWhenEmpty) {
  const auto doc = support::parse_json(to_json(small_report()));
  EXPECT_EQ(doc.at("tool_version").as_string(), support::version());

  BenchReport pinned = small_report();
  pinned.tool_version = "9.9.9";
  const auto pinned_doc = support::parse_json(to_json(pinned));
  EXPECT_EQ(pinned_doc.at("tool_version").as_string(), "9.9.9");
  EXPECT_EQ(report_from_json(to_json(pinned)).tool_version, "9.9.9");
}

TEST(BenchReport, MetricsSectionIsOptionalAndRoundTrips) {
  BenchReport report = small_report();
  // Without metrics the section is omitted entirely (old consumers parse).
  EXPECT_EQ(support::parse_json(to_json(report)).find("metrics"), nullptr);

  obs::MetricSample m;
  m.name = "mpi.time_s";
  m.labels = {{"kind", "collective"}};
  m.value = 1.25;
  report.metrics.push_back(m);
  const BenchReport parsed = report_from_json(to_json(report));
  ASSERT_EQ(parsed.metrics.size(), 1u);
  EXPECT_EQ(parsed.metrics[0].key(), "mpi.time_s{kind=collective}");
  EXPECT_DOUBLE_EQ(parsed.metrics[0].value, 1.25);
}

TEST(BenchReport, ParsesReportsWithoutVersionOrMetrics) {
  // A pre-observability document: no tool_version, no metrics section.
  std::string json = to_json(small_report());
  const auto pos = json.find("\"tool_version\"");
  ASSERT_NE(pos, std::string::npos);
  json.erase(pos, json.find('\n', pos) - pos + 1);
  const BenchReport parsed = report_from_json(json);
  EXPECT_TRUE(parsed.tool_version.empty());
  EXPECT_TRUE(parsed.metrics.empty());
}

TEST(BenchReport, FailureSectionIsOptionalAndRoundTrips) {
  // Reports without a failure omit the section entirely.
  const std::string clean = to_json(small_report());
  EXPECT_EQ(clean.find("\"failure\""), std::string::npos);
  EXPECT_FALSE(report_from_json(clean).failure.present);

  BenchReport report = small_report();
  report.failure.present = true;
  report.failure.dead_ranks = {3, 7};
  RunFailure::Blocked b;
  b.rank = 1;
  b.peer = 3;
  b.tag = -42;
  b.op_index = 19;
  b.since_s = 0.125;
  b.timed_out = true;
  report.failure.blocked.push_back(b);
  report.failure.detected_s = 0.5;

  const BenchReport parsed = report_from_json(to_json(report));
  ASSERT_TRUE(parsed.failure.present);
  EXPECT_EQ(parsed.failure.dead_ranks, (std::vector<std::uint32_t>{3, 7}));
  ASSERT_EQ(parsed.failure.blocked.size(), 1u);
  EXPECT_EQ(parsed.failure.blocked[0].rank, 1u);
  EXPECT_EQ(parsed.failure.blocked[0].peer, 3u);
  EXPECT_EQ(parsed.failure.blocked[0].tag, -42);
  EXPECT_EQ(parsed.failure.blocked[0].op_index, 19u);
  EXPECT_DOUBLE_EQ(parsed.failure.blocked[0].since_s, 0.125);
  EXPECT_TRUE(parsed.failure.blocked[0].timed_out);
  EXPECT_DOUBLE_EQ(parsed.failure.detected_s, 0.5);
}

TEST(BenchReport, AddPlatformDeduplicatesByName) {
  BenchReport report;
  report.add_platform({"toy", 2, 1e9, 2.5, 4.0, 8.0});
  report.add_platform({"toy", 4, 2e9, 5.0, 8.0, 16.0});
  ASSERT_EQ(report.platforms.size(), 1u);
  EXPECT_EQ(report.platforms[0].cores, 2u);
}

}  // namespace
}  // namespace mb::core
