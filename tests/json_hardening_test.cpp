#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "rim/core/scenario.hpp"
#include "rim/core/snapshot.hpp"
#include "rim/io/json.hpp"
#include "rim/sim/rng.hpp"
#include "rim/svc/client.hpp"
#include "rim/svc/protocol.hpp"
#include "rim/svc/service.hpp"
#include "rim/svc/transport.hpp"

#include "svc_test_util.hpp"

// Hardening tests for io::Json::parse against untrusted input — the parser
// now sits on the svc wire path, so hostile bytes must always produce a
// clean parse error: no UB, no stack overflow, no smuggled non-finite
// numbers. Happy-path parsing is covered in io_test.cpp. The codec
// equivalence cases at the end pin the writer's number text to printf's
// "%.17g", the parser's numbers to strtod's, object order to std::map's,
// and the exact wire bytes of four representative documents.

namespace rim::io {
namespace {

/// parse()'s verdict on \p text. Every case also checks that validate(),
/// the parser's non-materialising mode, agrees: same verdict, same message.
bool parses(const std::string& text, std::string* error_out = nullptr) {
  Json out;
  std::string error;
  const bool ok = Json::parse(text, out, error);
  std::string validate_error;
  EXPECT_EQ(Json::validate(text, validate_error), ok)
      << "validate() disagrees on: " << text.substr(0, 80);
  EXPECT_EQ(validate_error, error);
  if (error_out != nullptr) *error_out = error;
  return ok;
}

std::string nested(std::size_t depth, char open, char close) {
  std::string text(depth, open);
  text += "1";
  text.append(depth, close);
  return text;
}

TEST(JsonHardening, DepthLimitIsDocumentedAndEnforced) {
  // Exactly at the limit parses; one past it is an error, not a crash.
  EXPECT_TRUE(parses(nested(Json::kMaxParseDepth, '[', ']')));
  std::string error;
  EXPECT_FALSE(parses(nested(Json::kMaxParseDepth + 1, '[', ']'), &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
}

TEST(JsonHardening, ValidateCountsDepthFromTheEnclosingDocument) {
  // A value cut out of a document at nesting level d keeps the budget it
  // had there: validate(text, error, d) accepts it iff the whole document
  // parses. nested(k) inside one more array is nested(k + 1).
  std::string error;
  for (const std::size_t k : {Json::kMaxParseDepth - 1, Json::kMaxParseDepth}) {
    EXPECT_TRUE(Json::validate(nested(k, '[', ']'), error)) << error;
    EXPECT_EQ(Json::validate(nested(k, '[', ']'), error, 1),
              parses(nested(k + 1, '[', ']')))
        << k;
  }
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
  // A full snapshot document validates without being built.
  core::Scenario scenario;
  (void)scenario.add_node({0.0, 0.0});
  (void)scenario.add_node({0.5, 0.0});
  EXPECT_TRUE(parses(scenario.snapshot().to_json().dump(), &error)) << error;
}

TEST(JsonHardening, DeepHostileNestingIsRejectedNotFatal) {
  // A buffer of '[' with no closers: depth-limited long before the stack
  // is at risk, even at a megabyte of nesting.
  EXPECT_FALSE(parses(std::string(1u << 20, '[')));
  EXPECT_FALSE(parses(std::string(1u << 20, '{')));
  // Mixed nesting counts against the same limit.
  std::string mixed;
  for (std::size_t i = 0; i < Json::kMaxParseDepth; ++i) {
    mixed += (i % 2 == 0) ? "[" : "{\"k\":";
  }
  mixed += "1";
  EXPECT_FALSE(parses(mixed + "]"));  // unbalanced anyway
}

TEST(JsonHardening, DepthLimitAppliesInsideObjects) {
  std::string text;
  for (std::size_t i = 0; i < Json::kMaxParseDepth + 1; ++i) {
    text += "{\"k\":";
  }
  text += "1";
  text.append(Json::kMaxParseDepth + 1, '}');
  std::string error;
  EXPECT_FALSE(parses(text, &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
}

TEST(JsonHardening, LongStringsParse) {
  const std::string body(1u << 20, 'a');
  Json out;
  std::string error;
  ASSERT_TRUE(Json::parse("\"" + body + "\"", out, error)) << error;
  ASSERT_NE(out.as_string(), nullptr);
  EXPECT_EQ(*out.as_string(), body);
}

TEST(JsonHardening, EscapeHandling) {
  Json out;
  std::string error;
  ASSERT_TRUE(Json::parse(R"("a\"b\\c\/d\b\f\n\r\t")", out, error)) << error;
  ASSERT_NE(out.as_string(), nullptr);
  EXPECT_EQ(*out.as_string(), "a\"b\\c/d\b\f\n\r\t");

  ASSERT_TRUE(Json::parse(R"("Aé€")", out, error)) << error;
  ASSERT_NE(out.as_string(), nullptr);
  EXPECT_EQ(*out.as_string(), "A\xC3\xA9\xE2\x82\xAC");

  EXPECT_FALSE(parses(R"("\q")"));
  EXPECT_FALSE(parses(R"("\u00g0")"));
  EXPECT_FALSE(parses(R"("\u12)"));
  EXPECT_FALSE(parses("\"raw\ncontrol\""));
}

TEST(JsonHardening, EscapedStringsRoundTripThroughDump) {
  Json out;
  std::string error;
  ASSERT_TRUE(Json::parse(R"("tab\there\nand \"quotes\"")", out, error));
  Json again;
  ASSERT_TRUE(Json::parse(out.dump(), again, error)) << error;
  ASSERT_NE(again.as_string(), nullptr);
  EXPECT_EQ(*again.as_string(), *out.as_string());
}

TEST(JsonHardening, NumberOverflowIsAParseError) {
  std::string error;
  EXPECT_FALSE(parses("1e999", &error));
  EXPECT_NE(error.find("overflows"), std::string::npos) << error;
  EXPECT_FALSE(parses("-1e999"));
  EXPECT_FALSE(parses("[1,2,1e999]"));
  EXPECT_FALSE(parses(R"({"x":1e999})"));
  // A huge digit string overflows too (strtod saturates to inf).
  EXPECT_FALSE(parses(std::string(400, '9')));
}

TEST(JsonHardening, NumberUnderflowAndExtremesAreAccepted) {
  Json out;
  std::string error;
  // Gradual underflow collapses toward zero — finite, so acceptable.
  ASSERT_TRUE(Json::parse("1e-999", out, error)) << error;
  EXPECT_EQ(out.as_number(1.0), 0.0);
  ASSERT_TRUE(Json::parse("1.7976931348623157e308", out, error)) << error;
  EXPECT_TRUE(out.is_number());
  ASSERT_TRUE(Json::parse("-1.7976931348623157e308", out, error)) << error;
  EXPECT_TRUE(out.is_number());
}

TEST(JsonHardening, NonFiniteLiteralsNeverParse) {
  // JSON has no Inf/NaN spellings; make sure none sneak through strtod,
  // which would otherwise happily accept "inf"/"nan".
  EXPECT_FALSE(parses("inf"));
  EXPECT_FALSE(parses("Infinity"));
  EXPECT_FALSE(parses("nan"));
  EXPECT_FALSE(parses("-inf"));
  EXPECT_FALSE(parses("NaN"));
}

TEST(JsonHardening, TruncatedDocumentsFailCleanly) {
  const std::string document =
      R"({"a":[1,2.5,true,null,"sA"],"b":{"c":"d"}})";
  Json out;
  std::string error;
  ASSERT_TRUE(Json::parse(document, out, error)) << error;
  // Every proper prefix must fail with an error, never crash or accept.
  for (std::size_t cut = 0; cut < document.size(); ++cut) {
    EXPECT_FALSE(parses(document.substr(0, cut)))
        << "prefix of " << cut << " bytes parsed";
  }
}

TEST(JsonHardening, TrailingGarbageIsRejected) {
  EXPECT_FALSE(parses("{} {}"));
  EXPECT_FALSE(parses("1 2"));
  EXPECT_FALSE(parses("null x"));
  EXPECT_FALSE(parses("[1],"));
}

TEST(JsonHardening, MalformedStructuresAreRejected) {
  EXPECT_FALSE(parses(""));
  EXPECT_FALSE(parses("   "));
  EXPECT_FALSE(parses("[1,]"));
  EXPECT_FALSE(parses("{\"a\"}"));
  EXPECT_FALSE(parses("{\"a\":}"));
  EXPECT_FALSE(parses("{a:1}"));
  EXPECT_FALSE(parses("[1 2]"));
  EXPECT_FALSE(parses("+1"));
  EXPECT_FALSE(parses(".5"));
  EXPECT_FALSE(parses("-"));
  EXPECT_FALSE(parses("01x"));
  EXPECT_FALSE(parses("tru"));
  EXPECT_FALSE(parses("\x00\x01\x02"));
}

TEST(JsonHardening, ErrorsCarryAnOffset) {
  std::string error;
  EXPECT_FALSE(parses("[1,2,oops]", &error));
  EXPECT_NE(error.find("offset"), std::string::npos) << error;
}

// --- codec equivalence -------------------------------------------------------

/// The writer's number rule stated with the C library: integral values
/// below 1e15 in magnitude as a long long, other finite values as "%.17g".
std::string printf_number_text(double d) {
  if (!std::isfinite(d)) return "null";
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    return std::to_string(static_cast<long long>(d));
  }
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", d);
  return buffer;
}

/// The parser's number rule stated with strtod: a token that starts with
/// '-' or a digit, is consumed whole and reads as a finite double.
bool strtod_number(const std::string& token, double& value) {
  const std::size_t digit_at = !token.empty() && token[0] == '-' ? 1 : 0;
  if (digit_at >= token.size() || token[digit_at] < '0' ||
      token[digit_at] > '9') {
    return false;
  }
  char* end = nullptr;
  value = std::strtod(token.c_str(), &end);
  return end == token.c_str() + token.size() && std::isfinite(value);
}

double from_bits(std::uint64_t bits) { return std::bit_cast<double>(bits); }
std::uint64_t to_bits(double d) { return std::bit_cast<std::uint64_t>(d); }

/// A double from one of the writer's interesting families.
double sample_double(sim::Rng& rng, std::uint64_t family) {
  const std::int64_t step =
      static_cast<std::int64_t>(rng.next_below(2001)) - 1000;
  const double sign = rng.next_below(2) == 0 ? 1.0 : -1.0;
  switch (family % 7) {
    case 0:  // any bit pattern (Inf and NaN included: both write null)
      return from_bits(rng.next_u64());
    case 1:  // uniform mantissa at a uniform decimal scale
      return rng.uniform(-1.0, 1.0) *
             std::pow(10.0, static_cast<double>(rng.next_below(640)) - 330.0);
    case 2:  // subnormals
      return from_bits(rng.next_u64() & 0x800FFFFFFFFFFFFFull);
    case 3:  // ulps around the 1e15 integral-print boundary
      return sign * from_bits(to_bits(1e15) + static_cast<std::uint64_t>(step));
    case 4:  // ulps around 2^53, where doubles stop holding every integer
      return sign * from_bits(to_bits(9007199254740992.0) +
                              static_cast<std::uint64_t>(step));
    case 5:  // integers of every width, most beyond the long long rule
      return sign * static_cast<double>(rng.next_u64() >> rng.next_below(64));
    default:  // small integers, halves and quarters
      return static_cast<double>(step) * 0.25;
  }
}

TEST(JsonHardening, WriterMatchesPrintfOnAMillionDoubles) {
  std::vector<double> values = {
      0.0,
      -0.0,
      1e15,
      -1e15,
      999999999999999.0,
      999999999999999.5,
      9007199254740992.0,
      9007199254740994.0,
      0.1,
      1.0 / 3.0,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
  };
  sim::Rng rng(0x5EED1E15);
  for (std::uint64_t i = 0; i < (1u << 20); ++i) {
    values.push_back(sample_double(rng, i));
  }
  std::size_t mismatches = 0;
  for (const double d : values) {
    const std::string written = Json(d).dump();
    const std::string expected = printf_number_text(d);
    if (written != expected && ++mismatches <= 5) {
      ADD_FAILURE() << "bits 0x" << std::hex << to_bits(d) << ": wrote "
                    << written << ", printf rule gives " << expected;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " doubles";
}

/// A random token over the number alphabet: half free-form, half shaped
/// like a JSON number with random part lengths and large exponents.
std::string sample_number_token(sim::Rng& rng, bool shaped) {
  static constexpr char kAlphabet[] = "0123456789.eE+-0123456789";
  std::string token;
  const auto digits = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      token += static_cast<char>('0' + rng.next_below(10));
    }
  };
  if (!shaped) {
    const std::size_t length = 1 + rng.next_below(20);
    for (std::size_t i = 0; i < length; ++i) {
      token += kAlphabet[rng.next_below(sizeof kAlphabet - 1)];
    }
    return token;
  }
  if (rng.next_below(2) == 0) token += '-';
  if (rng.next_below(4) == 0) token.append(rng.next_below(40), '0');
  digits(rng.next_below(25));
  if (rng.next_below(2) == 0) {
    token += '.';
    if (rng.next_below(4) == 0) token.append(rng.next_below(40), '0');
    digits(rng.next_below(25));
  }
  if (rng.next_below(3) != 0) {
    token += rng.next_below(2) == 0 ? 'e' : 'E';
    const std::uint64_t sign = rng.next_below(3);
    if (sign == 1) token += '+';
    if (sign == 2) token += '-';
    digits(rng.next_below(5));
  }
  return token;
}

std::string zeros_between(const char* head, std::size_t zeros,
                          const char* tail) {
  std::string token = head;
  token.append(zeros, '0');
  token += tail;
  return token;
}

void expect_parse_matches_strtod(const std::string& token,
                                 std::size_t& mismatches) {
  double expected = 0.0;
  const bool accepts = strtod_number(token, expected);
  Json out;
  std::string error;
  const bool parsed = Json::parse(token, out, error);
  const bool same = parsed == accepts &&
                    (!parsed || (out.is_number() &&
                                 to_bits(out.as_number()) == to_bits(expected)));
  if (!same && ++mismatches <= 5) {
    ADD_FAILURE() << "token '" << token << "': strtod "
                  << (accepts ? "accepts" : "rejects") << ", parse "
                  << (parsed ? "accepts" : "rejects: " + error);
  }
}

TEST(JsonHardening, ParserMatchesStrtodOnRandomNumberTokens) {
  const std::vector<std::string> edges = {
      "1e-400",  // underflow: accepted as 0
      "-1e-400",  // ... as -0
      "1e309",   // overflow: rejected
      "-1e309",
      "2.4703282292062327e-324",  // just below half the smallest subnormal
      "2.4703282292062328e-324",  // just above: the smallest subnormal
      "1e-310",
      "1.7976931348623158e308",
      "1.7976931348623159e308",
      "0e99999",
      "1.",
      "1.e5",
      "00012",
      "1e",
      "1e+",
      "-0",
      "-0.0e-0",
      zeros_between("0.", 330, "1"),
      zeros_between("0.", 400, "1e100"),
      zeros_between("0.", 300, "1e-30"),
      zeros_between("1", 330, "e-700"),
      zeros_between("1", 400, "e-100"),
      zeros_between("1", 300, "e10"),
      zeros_between("1", 400, "e-90"),   // overflow, negative exponent
      zeros_between("0.", 400, "1e70"),  // underflow, positive exponent
      "0.0000001e-320",
      "123.456e-330",
      "123.456e+306",
      std::string(400, '9'),
      "1e99999999999999999999",
      "1e-99999999999999999999",
  };
  std::size_t mismatches = 0;
  for (const std::string& token : edges) {
    expect_parse_matches_strtod(token, mismatches);
  }
  sim::Rng rng(1202);
  for (std::size_t i = 0; i < 400000; ++i) {
    expect_parse_matches_strtod(sample_number_token(rng, i % 2 == 0),
                                mismatches);
  }
  EXPECT_EQ(mismatches, 0u);

  Json out;
  std::string error;
  ASSERT_TRUE(Json::parse("1e-400", out, error)) << error;
  EXPECT_EQ(to_bits(out.as_number(1.0)), to_bits(0.0));
  ASSERT_TRUE(Json::parse("-1e-400", out, error)) << error;
  EXPECT_EQ(to_bits(out.as_number(1.0)), to_bits(-0.0));
  EXPECT_FALSE(parses("1e309", &error));
  EXPECT_NE(error.find("overflows"), std::string::npos) << error;
}

TEST(JsonHardening, ObjectOrderMatchesStdMap) {
  // Few distinct bytes, high ones included, so keys collide and share
  // prefixes; values record the last write.
  static constexpr char kBytes[] = {'a', 'b', 'A', '0', '\x7f', '\x80', '\xff'};
  sim::Rng rng(0x0B7EC7);
  for (int round = 0; round < 200; ++round) {
    JsonObject object;
    std::map<std::string, int> reference;
    const std::size_t writes = rng.next_below(64);
    for (std::size_t i = 0; i < writes; ++i) {
      std::string key;
      const std::size_t length = rng.next_below(5);
      for (std::size_t k = 0; k < length; ++k) {
        key += kBytes[rng.next_below(sizeof kBytes)];
      }
      const int value = static_cast<int>(i);
      if (rng.next_below(2) == 0) {
        object[key] = Json(value);
      } else {
        object.insert_or_assign(key, Json(value));
      }
      reference[key] = value;
    }
    ASSERT_EQ(object.size(), reference.size());
    auto expected = reference.begin();
    for (const auto& [key, value] : object) {
      ASSERT_EQ(key, expected->first);
      EXPECT_EQ(value.as_number(-1.0), expected->second);
      ++expected;
    }
    std::string dumped = "{";
    for (const auto& [key, value] : reference) {
      if (dumped.size() > 1) dumped += ',';
      dumped += '"' + json_escape(key) + "\":" + std::to_string(value);
    }
    dumped += '}';
    EXPECT_EQ(Json(object).dump(), dumped);
  }
}

TEST(JsonHardening, ObjectDuplicateKeysAndDefaultInsertion) {
  // A repeated key resolves last-wins, in sorted and unsorted input alike.
  const std::pair<const char*, const char*> cases[] = {
      {R"({"a":1,"a":2})", R"({"a":2})"},
      {R"({"b":1,"a":2,"b":3})", R"({"a":2,"b":3})"},
      {R"({"c":1,"b":2,"a":3,"b":4,"c":5,"c":6})", R"({"a":3,"b":4,"c":6})"},
      {R"({"b":{"y":1,"x":2,"y":3},"a":[{"k":1,"k":2}]})",
       R"({"a":[{"k":2}],"b":{"x":2,"y":3}})"},
  };
  for (const auto& [text, expected] : cases) {
    Json out;
    std::string error;
    ASSERT_TRUE(Json::parse(text, out, error)) << text << ": " << error;
    EXPECT_EQ(out.dump(), expected) << text;
  }

  JsonObject object;
  EXPECT_TRUE(object.empty());
  (void)object["x"];
  ASSERT_EQ(object.size(), 1u);
  ASSERT_TRUE(object.find("x") != object.end());
  EXPECT_TRUE(object.find("x")->second.is_null());
  EXPECT_TRUE(object.find("y") == object.end());
  EXPECT_FALSE(object.insert_or_assign("x", Json(1)).second);
  EXPECT_TRUE(object.insert_or_assign("w", Json(2)).second);
  EXPECT_EQ(Json(object).dump(), R"({"w":2,"x":1})");
}

TEST(JsonHardening, FrameSizedObjectWithDescendingKeysParsesQuickly) {
  // A hostile client can send a whole frame (svc::kDefaultMaxFrameBytes)
  // of members whose keys arrive in reverse order. Inserting each into a
  // sorted vector would shift every member after it: ~116k keys, ~7e9
  // moves, about a minute per frame. The parser must stay O(n log n).
  constexpr int kMembers = 116'000;
  const auto key_of = [](int i) {
    std::string key(4, 'a');
    for (int d = 3; d >= 0; --d, i /= 26) {
      key[d] = static_cast<char>('a' + i % 26);
    }
    return key;
  };
  const auto object_text = [&](bool descending) {
    std::string text = "{";
    for (int n = 0; n < kMembers; ++n) {
      const int i = descending ? kMembers - 1 - n : n;
      text += '"' + key_of(i) + "\":" + std::to_string(i % 10) + ',';
    }
    text.back() = '}';
    return text;
  };
  const auto seconds_to_parse = [](const std::string& text, Json& out) {
    std::string error;
    const auto started = std::chrono::steady_clock::now();
    EXPECT_TRUE(Json::parse(text, out, error)) << error;
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - started;
    return took.count();
  };
  const std::string ascending = object_text(false);
  const std::string descending = object_text(true);
  ASSERT_LE(descending.size(), svc::kDefaultMaxFrameBytes);
  ASSERT_GT(descending.size(), svc::kDefaultMaxFrameBytes - 64 * 1024);

  // Timed against the same object in sorted order, so the bound holds in
  // Release and under sanitizers alike: one sort costs a small multiple of
  // the linear parse, the quadratic insertion a thousand times it.
  Json sorted;
  const double sorted_seconds = seconds_to_parse(ascending, sorted);
  Json out;
  const double reversed_seconds = seconds_to_parse(descending, out);
  EXPECT_LT(reversed_seconds, 20.0 * sorted_seconds + 1.0);

  EXPECT_EQ(out.dump(), sorted.dump());
  const JsonObject* object = out.as_object();
  ASSERT_NE(object, nullptr);
  ASSERT_EQ(object->size(), static_cast<std::size_t>(kMembers));
  int i = 0;
  for (const auto& [key, value] : *object) {
    ASSERT_EQ(key, key_of(i));
    ASSERT_EQ(value.as_number(-1.0), i % 10);
    ++i;
  }
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// 200 nodes on a 10x10 square joined as a random tree.
std::vector<core::Mutation> golden_topology() {
  sim::Rng rng(2005);
  std::vector<core::Mutation> batch;
  for (NodeId v = 0; v < 200; ++v) {
    batch.push_back(core::Mutation::add_node(
        {rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)}));
  }
  for (NodeId v = 1; v < 200; ++v) {
    batch.push_back(core::Mutation::add_edge(
        static_cast<NodeId>(rng.next_below(v)), v));
  }
  return batch;
}

/// A 294-mutation apply_batch request, encoded as svc::Client does.
std::string golden_batch_request() {
  sim::Rng rng(294);
  io::JsonArray mutations;
  for (int i = 0; i < 294; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(200));
    const auto v = static_cast<NodeId>(rng.next_below(200));
    // Fractional and integral coordinates take both number paths.
    const double x = i % 5 == 0 ? static_cast<double>(rng.next_below(100))
                                : rng.uniform(-50.0, 150.0);
    const double y = rng.uniform(0.0, 1e-3);
    core::Mutation mutation = core::Mutation::move_node(v, {x, y});
    switch (rng.next_below(5)) {
      case 0: mutation = core::Mutation::add_node({x, y}); break;
      case 1: mutation = core::Mutation::remove_node(v); break;
      case 2: mutation = core::Mutation::add_edge(u, v); break;
      case 3: mutation = core::Mutation::remove_edge(u, v); break;
      default: break;
    }
    mutations.push_back(svc::mutation_to_json(mutation));
  }
  JsonObject request;
  request["session"] = Json(3);
  request["batch"] = Json(std::move(mutations));
  request["cmd"] = Json(svc::cmd::kApplyBatch);
  request["id"] = Json(17);
  return Json(std::move(request)).dump();
}

std::string golden_snapshot() {
  core::Scenario scenario;
  (void)scenario.apply_batch(golden_topology(), nullptr);
  return scenario.snapshot().to_json().dump();
}

/// The whole-session query_interference response a service sends.
std::string golden_query_response() {
  svc::ServiceConfig config;
  config.batch_pool_threads = 1;
  svc::Service service(config);
  svc::LoopbackTransport transport(service);
  svc::Client client(transport);
  std::uint64_t session = 0;
  EXPECT_TRUE(svc::ok(client.try_create_session(), session));
  core::BatchResult applied;
  EXPECT_TRUE(svc::ok(client.try_apply_batch(session, golden_topology()),
                      applied));
  Json result;
  EXPECT_TRUE(svc::ok(client.try_query_interference(session), result));
  return client.last_response_payload();
}

std::string golden_error_envelope() {
  return svc::make_error(
      42, svc::code::kBadRequest,
      "batch item 7: \"kind\" must name a mutation\tkind\n\x01\x1f \xc3\xa9");
}

void expect_golden(const std::string& document, std::uint64_t digest,
                   std::size_t length, const char* what) {
  EXPECT_EQ(fnv1a(document), digest)
      << what << ": 0x" << std::hex << fnv1a(document);
  EXPECT_EQ(document.size(), length) << what;
  Json parsed;
  std::string error;
  ASSERT_TRUE(Json::parse(document, parsed, error)) << what << ": " << error;
  EXPECT_EQ(parsed.dump(), document) << what << " does not round-trip";
}

TEST(JsonHardening, WireBytesMatchPinnedDigests) {
  // Digests and lengths recorded from the std::ostringstream / strtod /
  // std::map codec this one replaced; they must never move.
  expect_golden(golden_batch_request(), 0x10ca2b2e30097df5ull, 14269,
                "apply_batch request");
  expect_golden(golden_snapshot(), 0x02c68a4f4c449c31ull, 12884, "snapshot");
  expect_golden(golden_query_response(), 0x91e6c68ea31ed92cull, 818,
                "query response");
  expect_golden(golden_error_envelope(), 0x0b3872ed0cad904bull, 118,
                "error envelope");
}

}  // namespace
}  // namespace rim::io
