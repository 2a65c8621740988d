// Interned labels: one entry per distinct string, compared by identity,
// and the same identity for every thread that interns a string. The tsan
// CI job runs this suite.
#include "support/label.h"

#include <gtest/gtest.h>

#include <latch>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace mb::support {
namespace {

// Built before main() runs: a constant initializer, no interning.
constinit const Label kNoLabel;

TEST(Label, RoundTripsItsStringAndComparesByIdentity) {
  const std::string text = "a label well past the small-string size";
  const Label a(text);
  const Label b(std::string_view(text).substr(0));
  EXPECT_EQ(a.str(), text);
  EXPECT_NE(&a.str(), &text);
  EXPECT_EQ(a, b);
  EXPECT_EQ(&a.str(), &b.str());  // one entry per distinct string
  EXPECT_EQ(a, text);
  EXPECT_FALSE(a == Label("another label"));
}

TEST(Label, EmptyLabelIsTheDefault) {
  EXPECT_TRUE(kNoLabel.empty());
  EXPECT_EQ(kNoLabel.str(), "");
  EXPECT_EQ(Label(""), kNoLabel);
  EXPECT_EQ(Label(std::string()), kNoLabel);
  EXPECT_FALSE(Label("x") == kNoLabel);
}

constexpr unsigned kInterners = 4;
constexpr unsigned kReaders = 2;
constexpr unsigned kLabelsPerInterner = 96;
constexpr unsigned kOverlap = 32;  ///< labels shared with the next interner
constexpr unsigned kStride = kLabelsPerInterner - kOverlap;

std::string shared_text(unsigned i) {
  return "shared-label-" + std::to_string(i);
}

TEST(LabelInterning, ThreadsAgreeOnIdentity) {
  std::vector<std::string> early_text;
  std::vector<Label> early;
  for (unsigned i = 0; i < 64; ++i) {
    early_text.push_back("early-label-" + std::to_string(i));
    early.emplace_back(early_text.back());
  }

  // Interner t takes labels [t * kStride, t * kStride + 96): each overlaps
  // the next by 32, and every label is new to the process.
  std::vector<std::vector<Label>> got(kInterners);
  std::vector<unsigned> reader_mismatches(kReaders, 0);
  std::latch start(kInterners + kReaders);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kInterners; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      const unsigned first = t * kStride;
      for (unsigned i = 0; i < kLabelsPerInterner; ++i)
        got[t].emplace_back(shared_text(first + i));
    });
  }
  for (unsigned t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (unsigned round = 0; round < 50; ++round) {
        for (std::size_t i = 0; i < early.size(); ++i) {
          if (early[i].str() != early_text[i]) ++reader_mismatches[t];
          if (!(Label(early_text[i]) == early[i])) ++reader_mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (unsigned t = 0; t < kReaders; ++t) EXPECT_EQ(reader_mismatches[t], 0u);
  for (unsigned t = 0; t < kInterners; ++t) {
    const unsigned first = t * kStride;
    ASSERT_EQ(got[t].size(), kLabelsPerInterner);
    for (unsigned i = 0; i < kLabelsPerInterner; ++i) {
      const std::string text = shared_text(first + i);
      EXPECT_EQ(got[t][i].str(), text);
      EXPECT_EQ(got[t][i], Label(text)) << text;
      if (t + 1 < kInterners && i >= kStride) {
        // The same string interned by the next thread.
        EXPECT_EQ(got[t][i], got[t + 1][i - kStride]) << text;
      }
    }
  }
}

}  // namespace
}  // namespace mb::support
