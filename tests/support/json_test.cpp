#include "support/json.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "support/check.h"
#include "support/rng.h"

namespace mb::support {
namespace {

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("hello world"), "hello world");
  EXPECT_EQ(json_escape("unroll=4 bits=128"), "unroll=4 bits=128");
}

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
  EXPECT_EQ(json_escape("\x1f\b\f\r"), "\\u001f\\b\\f\\r");
  EXPECT_EQ(json_escape(std::string("x\0y", 3)), "x\\u0000y");
  EXPECT_EQ(json_escape("\"\""), "\\\"\\\"");
}

/// The number format as first written: every %g precision from 6 up,
/// each checked by parsing it back with strtod. json_number must stay
/// byte-identical to it (checked-in goldens and cache entries depend on
/// the exact digits), so it is kept here as the oracle.
std::string reference_json_number(double v) {
  if (!std::isfinite(v)) return "null";
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[40];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

double from_bits(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// Compares json_number with the reference on `n` values drawn from
/// `next`; stops after a few mismatches so a regression stays readable.
template <typename Next>
void expect_matches_reference(std::size_t n, Next next) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < n && mismatches < 5; ++i) {
    const double v = next();
    const std::string got = json_number(v);
    const std::string want = reference_json_number(v);
    if (got != want) {
      ++mismatches;
      ADD_FAILURE() << std::hexfloat << v << ": got " << got << ", want "
                    << want;
    }
  }
}

TEST(JsonNumberReference, UniformMicrosecondValues) {
  Rng rng(2013);
  expect_matches_reference(400'000, [&] { return rng.uniform(0.0, 1e6); });
}

TEST(JsonNumberReference, RandomBitPatterns) {
  Rng rng(7);
  expect_matches_reference(400'000, [&] {
    double v = from_bits(rng());
    while (!std::isfinite(v)) v = from_bits(rng());
    return v;
  });
}

TEST(JsonNumberReference, Subnormals) {
  Rng rng(11);
  expect_matches_reference(100'000, [&] {
    constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
    constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
    const std::uint64_t bits = rng();
    return from_bits((bits & kMantissa) | (bits & kSign));
  });
}

TEST(JsonNumberReference, FormatSwitchPointsAndExtremes) {
  // Every double within 20000 ulps of each point where the format
  // changes: %g's fixed/exponent switches (1e-5, 1e-4, 1e6, 1e16, 1e17)
  // and the integral-fixed cutoff at 1e15, on both signs.
  std::vector<double> values{0.0,
                             -0.0,
                             DBL_MAX,
                             -DBL_MAX,
                             DBL_MIN,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             1e15 - 1,
                             -(1e15 - 1)};
  for (const double anchor : {1e-5, 1e-4, 1e6, 1e15, 1e16, 1e17}) {
    for (const double sign : {1.0, -1.0}) {
      double up = sign * anchor;
      double down = up;
      for (int i = 0; i < 20000; ++i) {
        values.push_back(up);
        values.push_back(down);
        up = std::nextafter(up, sign * DBL_MAX);
        down = std::nextafter(down, 0.0);
      }
    }
  }
  ASSERT_GE(values.size(), 240'000u);
  std::size_t i = 0;
  expect_matches_reference(values.size(), [&] { return values[i++]; });
  EXPECT_EQ(json_number(-0.0), "-0");
  EXPECT_EQ(json_number(1e15), "1e+15");
  EXPECT_EQ(json_number(1e15 - 1), "999999999999999");
  EXPECT_EQ(json_number(3e-4), "0.0003");
  EXPECT_EQ(json_number(3e-5), "3e-05");
  EXPECT_EQ(json_number(DBL_MAX), "1.7976931348623157e+308");
  EXPECT_EQ(json_number(std::numeric_limits<double>::denorm_min()),
            "4.94066e-324");
}

TEST(JsonNumber, IntegersHaveNoDecimalNoise) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(42.0), "42");
  EXPECT_EQ(json_number(-7.0), "-7");
}

TEST(JsonNumber, RoundTripsDoubles) {
  for (double v : {3.14159265358979, 1.0 / 3.0, 1e-20, 6.02214076e23,
                   0.1 + 0.2}) {
    const std::string s = json_number(v);
    EXPECT_EQ(std::stod(s), v) << s;
  }
}

TEST(JsonNumber, NonFiniteBecomesNull) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::nan("")), "null");
}

TEST(JsonWriter, FlatObject) {
  JsonWriter w(/*pretty=*/false);
  w.begin_object();
  w.field("name", "bench");
  w.field("n", std::uint64_t{3});
  w.field("ok", true);
  w.key("none").null();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"name\":\"bench\",\"n\":3,\"ok\":true,"
                     "\"none\":null}");
}

TEST(JsonWriter, NestedContainers) {
  JsonWriter w(/*pretty=*/false);
  w.begin_object();
  w.key("samples").begin_array();
  w.value(1.5).value(2.5);
  w.end_array();
  w.key("meta").begin_object();
  w.field("depth", 2);
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"samples\":[1.5,2.5],\"meta\":{\"depth\":2}}");
}

TEST(JsonWriter, EmptyContainers) {
  JsonWriter w(/*pretty=*/false);
  w.begin_object();
  w.key("a").begin_array().end_array();
  w.key("o").begin_object().end_object();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"a\":[],\"o\":{}}");
}

TEST(JsonWriter, MovedOutStrMatchesCopy) {
  for (const bool pretty : {true, false}) {
    JsonWriter w(pretty);
    w.begin_object();
    w.field("k", 0.1);
    w.end_object();
    const std::string copy = w.str();
    EXPECT_EQ(std::move(w).str(), copy);
  }
}

TEST(JsonWriter, PrettyOutputParses) {
  JsonWriter w;
  w.begin_object();
  w.key("xs").begin_array();
  w.value(1).value(2).value(3);
  w.end_array();
  w.end_object();
  const JsonValue doc = parse_json(w.str());
  EXPECT_EQ(doc.at("xs").as_array().size(), 3u);
}

TEST(JsonWriter, MisuseThrows) {
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.value(1.0), Error);  // value where a key belongs
  }
  {
    JsonWriter w;
    w.begin_array();
    EXPECT_THROW(w.key("k"), Error);  // key inside an array
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.end_array(), Error);  // mismatched close
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.str(), Error);  // unclosed container
  }
}

/// Writes a seeded random value into `w`, calling `after_token` after
/// every writer call: objects and arrays nest up to `depth` levels, and
/// strings carry quotes, backslashes and control bytes.
void write_random_value(JsonWriter& w, Rng& rng, int depth,
                        const std::function<void()>& after_token) {
  const auto random_text = [&rng] {
    std::string text;
    const std::size_t n = rng.index(12);
    for (std::size_t i = 0; i < n; ++i)
      text += "ab\"\\\n\x01z:9"[rng.index(9)];
    return text;
  };
  const std::size_t kind = depth > 0 ? rng.index(8) : rng.index(6);
  switch (kind) {
    case 0: w.value(random_text()); break;
    case 1: w.value(rng.uniform(-1e6, 1e6)); break;
    case 2: w.value(static_cast<std::int64_t>(rng.uniform_u64(0, 1u << 30)) -
                    (1 << 29)); break;
    case 3: w.value(rng.uniform_u64(0, ~std::uint64_t{0})); break;
    case 4: w.value(rng.bernoulli(0.5)); break;
    case 5: w.null(); break;
    case 6: {
      w.begin_object();
      after_token();
      const std::size_t n = rng.index(5);
      for (std::size_t i = 0; i < n; ++i) {
        w.key(random_text());
        after_token();
        write_random_value(w, rng, depth - 1, after_token);
      }
      w.end_object();
      break;
    }
    default: {
      w.begin_array();
      after_token();
      const std::size_t n = rng.index(5);
      for (std::size_t i = 0; i < n; ++i)
        write_random_value(w, rng, depth - 1, after_token);
      w.end_array();
      break;
    }
  }
  after_token();
}

TEST(JsonWriter, FlushingAfterEveryTokenChangesNoByte) {
  for (const bool pretty : {true, false}) {
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      Rng whole_rng(seed);
      JsonWriter whole(pretty);
      whole.begin_object();
      whole.key("doc");
      write_random_value(whole, whole_rng, 4, [] {});
      whole.end_object();

      Rng streamed_rng(seed);
      JsonWriter streamed(pretty);
      std::ostringstream os;
      const auto flush = [&] { streamed.flush_to(os); };
      streamed.begin_object();
      flush();
      streamed.key("doc");
      flush();
      write_random_value(streamed, streamed_rng, 4, flush);
      streamed.end_object();
      flush();
      os << std::move(streamed).str();

      EXPECT_EQ(os.str(), whole.str()) << "seed " << seed;
      EXPECT_NO_THROW(parse_json(os.str())) << "seed " << seed;
    }
  }
}

TEST(JsonWriter, FlushedDocumentStillTakesOneTopLevelValue) {
  JsonWriter w(/*pretty=*/false);
  std::ostringstream os;
  w.value(1);
  w.flush_to(os);
  EXPECT_EQ(os.str(), "1");
  EXPECT_EQ(w.str(), "");  // everything already went out
  EXPECT_THROW(w.value(2), Error);
  JsonWriter empty;
  empty.flush_to(os);
  EXPECT_THROW(empty.str(), Error);  // flushing nothing writes no value
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_EQ(parse_json("true").as_bool(), true);
  EXPECT_EQ(parse_json("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse_json("-2.5e3").as_number(), -2500.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse_json("\"a\\n\\\"b\\\\c\\u0041\"").as_string(),
            "a\n\"b\\cA");
}

TEST(JsonParse, NestedDocument) {
  const JsonValue doc = parse_json(
      R"({"schema": "x", "list": [1, {"k": [true, null]}], "n": 2})");
  EXPECT_EQ(doc.at("schema").as_string(), "x");
  const auto& list = doc.at("list").as_array();
  ASSERT_EQ(list.size(), 2u);
  EXPECT_DOUBLE_EQ(list[0].as_number(), 1.0);
  EXPECT_EQ(list[1].at("k").as_array().size(), 2u);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW(doc.at("missing"), Error);
}

TEST(JsonParse, PreservesMemberOrder) {
  const JsonValue doc = parse_json(R"({"z": 1, "a": 2, "m": 3})");
  const auto& members = doc.members();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(JsonParse, MalformedInputThrows) {
  EXPECT_THROW(parse_json(""), Error);
  EXPECT_THROW(parse_json("{"), Error);
  EXPECT_THROW(parse_json("[1,]"), Error);
  EXPECT_THROW(parse_json("{\"a\" 1}"), Error);
  EXPECT_THROW(parse_json("\"unterminated"), Error);
  EXPECT_THROW(parse_json("tru"), Error);
  EXPECT_THROW(parse_json("1 2"), Error);  // trailing content
  EXPECT_THROW(parse_json("--1"), Error);
}

/// What reading {"n": <value>} with `read` throws, or "" if it returns.
std::string refusal(const std::string& value,
                    const std::function<void(const JsonValue&)>& read) {
  const JsonValue doc = parse_json("{\"n\": " + value + "}");
  try {
    read(doc);
    return "";
  } catch (const Error& e) {
    return e.what();
  }
}

TEST(JsonIntegers, ReadIntegralNumbersOfEachWidth) {
  const JsonValue doc = parse_json(
      R"({"k": 1e3, "u32": 4294967295, "i32": -2147483648,
          "u64": 9007199254740993, "ranks": [0, 7]})");
  EXPECT_EQ(u64_at(doc, "k"), 1000u);
  EXPECT_EQ(u32_at(doc, "k"), 1000u);
  EXPECT_EQ(i32_at(doc, "k"), 1000);
  EXPECT_EQ(u32_at(doc, "u32"), 4294967295u);
  EXPECT_EQ(i32_at(doc, "i32"), std::numeric_limits<std::int32_t>::min());
  // Above 2^53 the parser has already rounded to a double.
  EXPECT_EQ(u64_at(doc, "u64"), 9007199254740992u);
  EXPECT_EQ(as_u32(doc.at("ranks").as_array()[1], "ranks"), 7u);
  EXPECT_EQ(as_u64(doc.at("ranks").as_array()[0], "ranks"), 0u);
}

TEST(JsonIntegers, RefuseWhatTheTypeCannotHoldNamingTheKey) {
  const auto u64 = [](const JsonValue& d) { u64_at(d, "n"); };
  const auto u32 = [](const JsonValue& d) { u32_at(d, "n"); };
  const auto i32 = [](const JsonValue& d) { i32_at(d, "n"); };
  EXPECT_EQ(refusal("-1", u64),
            "JsonValue: 'n' must be an integer in [0, 18446744073709551615], "
            "not -1");
  EXPECT_EQ(refusal("2.5", u32),
            "JsonValue: 'n' must be an integer in [0, 4294967295], not 2.5");
  EXPECT_EQ(refusal("-2147483649", i32),
            "JsonValue: 'n' must be an integer in [-2147483648, 2147483647], "
            "not -2147483649");
  EXPECT_EQ(refusal("\"7\"", u32), "JsonValue: 'n' must be a number");
  for (const std::string& message :
       {refusal("2.5", u64), refusal("1e30", u64),
        refusal("18446744073709551616", u64),  // 2^64
        refusal("-1", u32), refusal("4294967296", u32),  // 2^32
        refusal("1e30", u32), refusal("2147483648", i32),
        refusal("0.5", i32)})
    EXPECT_NE(message.find("'n' must be an integer"), std::string::npos)
        << message;
  // The largest double below 2^64 still fits.
  EXPECT_EQ(refusal("18446744073709549568", u64), "");
}

TEST(JsonIntegers, StringEncodedU64KeepsEveryBit) {
  const JsonValue doc = parse_json(
      R"({"dec": "18446744073709551615", "hex": "00000000deadbeef",
          "neg": "-1", "blank": " 1", "plus": "+1", "over":
          "18446744073709551616", "empty": "", "number": 1})");
  EXPECT_EQ(dec_u64_at(doc, "dec"), 18446744073709551615u);
  EXPECT_EQ(hex_u64_at(doc, "hex"), 0xdeadbeefu);
  for (const char* key : {"neg", "blank", "plus", "over", "empty", "number"})
    EXPECT_THROW(dec_u64_at(doc, key), Error) << key;
  EXPECT_THROW(hex_u64_at(doc, "dec"), Error);  // 20 hex digits overflow
}

TEST(JsonRoundTrip, WriterOutputParsesBack) {
  JsonWriter w;
  w.begin_object();
  w.field("name", "membench/snowball/unroll=4 \"quoted\"");
  w.key("samples").begin_array();
  const std::vector<double> samples{0.1234567890123, 4.2e-9, 1e15};
  for (double s : samples) w.value(s);
  w.end_array();
  w.end_object();

  const JsonValue doc = parse_json(w.str());
  EXPECT_EQ(doc.at("name").as_string(),
            "membench/snowball/unroll=4 \"quoted\"");
  const auto& xs = doc.at("samples").as_array();
  ASSERT_EQ(xs.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i)
    EXPECT_EQ(xs[i].as_number(), samples[i]);
}

}  // namespace
}  // namespace mb::support
