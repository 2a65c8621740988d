#include "obs/profile.h"

#include <gtest/gtest.h>

#include "support/check.h"
#include "support/schema.h"
#include "support/version.h"

namespace mb::obs {
namespace {

/// A small profiled run: two phases under one root span, one counter.
struct Fixture {
  Registry registry;
  Profiler profiler{&registry};
  double t = 0.0;

  Fixture() {
    profiler.set_clock([this] { return t; });
    profiler.set_enabled(true);
    profiler.enter("cmd");
    profiler.enter("phase-a");
    registry.counter("ops").add(5.0);
    t = 2.0;
    profiler.exit();
    profiler.enter("phase-b");
    t = 3.0;
    profiler.exit();
    t = 3.1;
    profiler.exit();
  }
};

TEST(Profile, CaptureStampsIdentityAndTotals) {
  Fixture f;
  const Profile p =
      capture_profile(f.profiler, f.registry, "mbctl", "fig4 --ranks 8");
  EXPECT_EQ(p.tool, "mbctl");
  EXPECT_EQ(p.tool_version, support::version());
  EXPECT_EQ(p.command, "fig4 --ranks 8");
  EXPECT_DOUBLE_EQ(p.total_wall_s, 3.1);
  ASSERT_EQ(p.spans.children.size(), 1u);
  EXPECT_EQ(p.spans.children[0].name, "cmd");
  EXPECT_EQ(p.metrics.size(), 1u);
}

TEST(Profile, CaptureWithOpenSpansThrows) {
  Fixture f;
  f.profiler.enter("still-open");
  EXPECT_THROW(capture_profile(f.profiler, f.registry, "mbctl", "x"),
               support::Error);
  f.profiler.exit();
}

TEST(Profile, JsonRoundTrip) {
  Fixture f;
  const Profile before =
      capture_profile(f.profiler, f.registry, "mbctl", "fig4");
  const std::string json = to_json(before);
  const Profile after = profile_from_json(json);
  EXPECT_EQ(support::parse_json(json).at("schema_version").as_number(),
            support::kProfileSchema.version);
  EXPECT_EQ(after.tool, before.tool);
  EXPECT_EQ(after.tool_version, before.tool_version);
  EXPECT_EQ(after.command, before.command);
  EXPECT_DOUBLE_EQ(after.total_wall_s, before.total_wall_s);
  ASSERT_EQ(after.spans.children.size(), 1u);
  const SpanNode& cmd = after.spans.children[0];
  EXPECT_DOUBLE_EQ(cmd.total_s, 3.1);
  ASSERT_NE(cmd.child("phase-a"), nullptr);
  ASSERT_EQ(cmd.child("phase-a")->counter_deltas.size(), 1u);
  EXPECT_DOUBLE_EQ(cmd.child("phase-a")->counter_deltas[0].second, 5.0);
  ASSERT_EQ(after.metrics.size(), 1u);
  EXPECT_DOUBLE_EQ(after.metrics[0].value, 5.0);
}

TEST(Profile, RenderReportsPhaseCoverage) {
  Fixture f;
  const Profile p = capture_profile(f.profiler, f.registry, "mbctl", "fig4");
  const std::string text = render_profile(p);
  EXPECT_NE(text.find("phase-a"), std::string::npos);
  // phases cover 3.0 s of the 3.1 s root span: 96.8%.
  EXPECT_NE(text.find("phase coverage: 96.8% of 'cmd' wall time"),
            std::string::npos);
  EXPECT_NE(text.find("ops"), std::string::npos);
}

TEST(Profile, RejectsForeignDocuments) {
  EXPECT_THROW(profile_from_json("[]"), support::Error);
  EXPECT_THROW(profile_from_json(R"({"schema": "other"})"), support::Error);
  EXPECT_THROW(
      profile_from_json(R"({"schema": "mb-profile", "schema_version": 99})"),
      support::Error);
}

}  // namespace
}  // namespace mb::obs
