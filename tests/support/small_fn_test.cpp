// SmallFn: inline storage for small captures, heap fallback for large
// ones, correct move/destroy lifecycles either way.
#include "support/small_fn.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>

namespace mb::support {
namespace {

TEST(SmallFn, EmptyIsFalseAndAssignedIsTrue) {
  SmallFn<48> fn;
  EXPECT_FALSE(static_cast<bool>(fn));
  SmallFn<48> null_fn(nullptr);
  EXPECT_FALSE(static_cast<bool>(null_fn));
  fn = [] {};
  EXPECT_TRUE(static_cast<bool>(fn));
}

TEST(SmallFn, InvokesInlineCapture) {
  int calls = 0;
  int* p = &calls;
  SmallFn<48> fn = [p] { ++*p; };
  fn();
  fn();
  EXPECT_EQ(calls, 2);
}

TEST(SmallFn, FitsNamesTheCallablesStoredInline) {
  struct Words {
    void* p[4];
    void operator()() const {}
  };
  struct Throwing {
    Throwing() = default;
    Throwing(Throwing&&) noexcept(false) {}
    void operator()() const {}
  };
  static_assert(sizeof(SmallFn<32>) == 48);
  static_assert(SmallFn<32>::fits<Words>);
  static_assert(!SmallFn<24>::fits<Words>);
  static_assert(!SmallFn<32>::fits<Throwing>);  // moves must not throw
  std::array<double, 4> four{};
  std::array<double, 5> five{};
  const auto small = [four] { (void)four; };
  const auto large = [five] { (void)five; };
  static_assert(SmallFn<32>::fits<decltype(small)>);
  static_assert(!SmallFn<32>::fits<decltype(large)>);
  // Both run either way; only where the capture lives differs.
  SmallFn<32> a = small;
  SmallFn<32> b = large;
  a();
  b();
}

TEST(SmallFn, LargeCaptureFallsBackToHeapAndStillWorks) {
  std::array<double, 32> big{};  // 256 bytes: far past any inline cap
  big[31] = 42.0;
  double out = 0.0;
  double* out_p = &out;
  SmallFn<48> fn = [big, out_p] { *out_p = big[31]; };
  fn();
  EXPECT_EQ(out, 42.0);
}

TEST(SmallFn, MoveTransfersOwnership) {
  int calls = 0;
  int* p = &calls;
  SmallFn<48> a = [p] { ++*p; };
  SmallFn<48> b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT: testing moved-from state
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(calls, 1);
  SmallFn<48> c;
  c = std::move(b);
  c();
  EXPECT_EQ(calls, 2);
}

TEST(SmallFn, MoveOnlyCaptureIsSupported) {
  auto owned = std::make_unique<int>(7);
  int seen = 0;
  int* seen_p = &seen;
  SmallFn<48> fn = [owned = std::move(owned), seen_p] { *seen_p = *owned; };
  fn();
  EXPECT_EQ(seen, 7);
}

TEST(SmallFn, DestroysCaptureExactlyOnce) {
  struct Counter {
    int* live;
    explicit Counter(int* l) : live(l) { ++*live; }
    Counter(Counter&& o) noexcept : live(o.live) { ++*live; }
    Counter(const Counter& o) : live(o.live) { ++*live; }
    ~Counter() { --*live; }
    void operator()() const {}
  };
  int live = 0;
  {
    SmallFn<48> fn = Counter(&live);
    EXPECT_GT(live, 0);
    SmallFn<48> moved = std::move(fn);
    moved();
  }
  EXPECT_EQ(live, 0);

  // Heap-fallback lifecycle: the padded callable exceeds the inline cap.
  struct BigCounter : Counter {
    unsigned char pad[128] = {};
    using Counter::Counter;
  };
  {
    SmallFn<48> fn = BigCounter(&live);
    EXPECT_GT(live, 0);
    SmallFn<48> moved = std::move(fn);
    moved();
  }
  EXPECT_EQ(live, 0);
}

}  // namespace
}  // namespace mb::support
