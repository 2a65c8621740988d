// The document registry end to end: every JSON writer opens its document
// with the list's marker fields, every throwing reader rejects a foreign
// name and an unknown version, and the result cache reads a foreign
// entry as a plain miss.
#include "support/schema.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "advise/advice.h"
#include "core/bench_report.h"
#include "core/result_cache.h"
#include "fault/plan.h"
#include "gen/bundle.h"
#include "obs/analysis.h"
#include "obs/profile.h"
#include "obs/timeseries.h"
#include "support/check.h"
#include "verify/diagnostics.h"
#include "verify/static_cost.h"

namespace mb::support {
namespace {

namespace fs = std::filesystem;

/// The bytes every pretty-printed document of `schema` starts with.
std::string marker_prefix(const Schema& schema) {
  return "{\n  \"schema\": \"" + std::string(schema.name) +
         "\",\n  \"schema_version\": " + std::to_string(schema.version) +
         ",\n";
}

std::string replace_once(std::string text, const std::string& from,
                         const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

struct Writer {
  Schema schema;
  std::string document;
};

std::vector<Writer> writers() {
  verify::Report findings;
  return {
      {kBenchReportSchema, core::to_json(core::BenchReport{})},
      {kProfileSchema, obs::to_json(obs::Profile{})},
      {kDiagnosticsSchema, verify::diagnostics_to_json(findings, "unit")},
      {kStaticAnalysisSchema,
       verify::static_analysis_to_json(verify::CostReport{}, "unit", 0,
                                       findings)},
      {kFaultPlanSchema, fault::to_json(fault::FaultPlan{})},
      {kTimeSeriesSchema, obs::to_json(obs::TimeSeries{})},
      {kAnalysisSchema, obs::to_json(obs::Analysis{})},
      {kReproSchema, gen::to_json(gen::ReproBundle{})},
      {kAdviceSchema, advise::to_json(advise::AdviceReport{})},
  };
}

TEST(SchemaList, EveryWriterOpensWithTheListsMarkers) {
  for (const Writer& w : writers()) {
    EXPECT_EQ(w.document.rfind(marker_prefix(w.schema), 0), 0u)
        << w.schema.name << ":\n"
        << w.document.substr(0, 80);
  }
}

struct Reader {
  Schema schema;
  std::string document;  ///< a valid document of the schema
  std::function<void(std::string_view)> read;
};

std::vector<Reader> readers() {
  return {
      {kBenchReportSchema, core::to_json(core::BenchReport{}),
       [](std::string_view t) { core::report_from_json(t); }},
      {kProfileSchema, obs::to_json(obs::Profile{}),
       [](std::string_view t) { obs::profile_from_json(t); }},
      {kTimeSeriesSchema, obs::to_json(obs::TimeSeries{}),
       [](std::string_view t) { obs::timeseries_from_json(t); }},
      {kAdviceSchema, advise::to_json(advise::AdviceReport{}),
       [](std::string_view t) { advise::advice_from_json(t); }},
      {kReproSchema, gen::to_json(gen::ReproBundle{}),
       [](std::string_view t) { gen::bundle_from_json(t); }},
      {kFaultPlanSchema, fault::to_json(fault::FaultPlan{}),
       [](std::string_view t) { fault::plan_from_json(t); }},
  };
}

TEST(SchemaList, ReadersRejectAForeignNameAndAnUnknownVersion) {
  for (const Reader& r : readers()) {
    SCOPED_TRACE(std::string(r.schema.name));
    EXPECT_NO_THROW(r.read(r.document));
    const std::string name = "\"" + std::string(r.schema.name) + "\"";
    EXPECT_THROW(r.read(replace_once(r.document, name, "\"mb-foreign\"")),
                 Error);
    const std::string version =
        "\"schema_version\": " + std::to_string(r.schema.version);
    EXPECT_THROW(
        r.read(replace_once(r.document, version, "\"schema_version\": 99")),
        Error);
    EXPECT_THROW(r.read("[1, 2]"), Error);
  }
}

TEST(SchemaList, CheckDocumentNamesTheReader) {
  const JsonValue doc =
      parse_json(R"({"schema": "mb-foreign", "schema_version": 1})");
  try {
    check_document(doc, kAdviceSchema, "advice_from_json");
    FAIL() << "a foreign schema was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("advice_from_json: ", 0), 0u)
        << e.what();
  }
  EXPECT_THROW(check_document(parse_json(R"({"schema": "mb-advice"})"),
                              kAdviceSchema, "advice_from_json"),
               Error);
}

/// A foreign entry belongs to another build: the cache reads it as a
/// miss and leaves the file alone, where a corrupt one is quarantined.
class CacheSchemaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            (std::string("mb-schema-test-") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
    key_.tool_version = "1.2.3";
    key_.suite = "membench";
    key_.point = "size_kb=48";
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Stores an entry, rewrites its file through `edit` and looks it up.
  std::optional<std::vector<double>> reread(
      const std::function<std::string(std::string)>& edit,
      const core::ResultCache& cache) {
    EXPECT_TRUE(cache.store(key_, {1.0, 2.0}));
    const std::string path = entry();
    std::stringstream text;
    text << std::ifstream(path).rdbuf();
    std::ofstream(path, std::ios::trunc) << edit(text.str());
    return cache.lookup(key_);
  }

  std::string entry() const {
    const std::string digest = key_.digest();
    return dir_ + "/" + digest.substr(0, 2) + "/" + digest + ".json";
  }

  std::string dir_;
  core::CacheKey key_;
};

TEST_F(CacheSchemaTest, StoredEntriesCarryTheListsMarkers) {
  const core::ResultCache cache(dir_, true);
  ASSERT_TRUE(cache.store(key_, {1.0}));
  std::stringstream text;
  text << std::ifstream(entry()).rdbuf();
  EXPECT_EQ(text.str().rfind(marker_prefix(kCacheEntrySchema), 0), 0u);
  EXPECT_TRUE(cache.lookup(key_).has_value());
}

TEST_F(CacheSchemaTest, ForeignNameOrVersionIsAPlainMiss) {
  const core::ResultCache cache(dir_, true);
  const std::string name = "\"" + std::string(kCacheEntrySchema.name) + "\"";
  EXPECT_FALSE(reread(
      [&](std::string t) {
        return replace_once(std::move(t), name, "\"mb-foreign\"");
      },
      cache));
  EXPECT_EQ(cache.quarantined(), 0u);
  EXPECT_TRUE(fs::exists(entry()));

  const std::string version =
      "\"schema_version\": " + std::to_string(kCacheEntrySchema.version);
  EXPECT_FALSE(reread(
      [&](std::string t) {
        return replace_once(std::move(t), version, "\"schema_version\": 99");
      },
      cache));
  EXPECT_EQ(cache.quarantined(), 0u);
  EXPECT_TRUE(fs::exists(entry()));
}

TEST_F(CacheSchemaTest, CorruptEntryIsQuarantined) {
  const core::ResultCache cache(dir_, true);
  EXPECT_FALSE(reread([](std::string t) { return t.substr(0, 10); }, cache));
  EXPECT_EQ(cache.quarantined(), 1u);
  EXPECT_FALSE(fs::exists(entry()));
}

}  // namespace
}  // namespace mb::support
