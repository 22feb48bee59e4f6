#include "lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

// Unit tests for rim_lint (DESIGN.md §8). Each rule has a fixture file in
// testdata/ that must trigger it; path-scoped rules are fed the fixture's
// bytes under a pretend in-scope path. Trigger patterns below live inside
// string literals, which the scanner strips — so this test file itself
// lints clean as part of the repo-wide `lint` target.

namespace {

using rim::lint::lint_source;
using rim::lint::Violation;

std::string fixture(const std::string& name) {
  const std::string path = std::string(RIM_LINT_TESTDATA) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::size_t count_rule(const std::vector<Violation>& violations,
                       const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(violations.begin(), violations.end(),
                    [&](const Violation& v) { return v.rule == rule; }));
}

TEST(RimLint, RawRandomFixtureTriggers) {
  const auto v = lint_source("tools/rim_lint/testdata/raw_random.cpp",
                             fixture("raw_random.cpp"));
  EXPECT_GE(count_rule(v, "raw-random"), 4u) << "srand, time, random_device, rand";
}

TEST(RimLint, RawRandomAllowedInRngModule) {
  const auto v = lint_source("src/rim/sim/rng.cpp", fixture("raw_random.cpp"));
  EXPECT_EQ(count_rule(v, "raw-random"), 0u);
}

// The seeded-deployment module is the second sanctioned entropy home: its
// entropy_seed() is the audited std::random_device door for callers that
// want a logged-but-random seed. The sanction is the rule's own path list,
// not an ad-hoc allow pragma — and it must not leak to neighboring paths.
TEST(RimLint, RawRandomAllowedInRandomDeploymentModule) {
  const std::string body = fixture("raw_random.cpp");
  const auto sanctioned =
      lint_source("src/rim/sim/random_deployment.cpp", body);
  EXPECT_EQ(count_rule(sanctioned, "raw-random"), 0u);
  const auto sibling = lint_source("src/rim/sim/generators.cpp", body);
  EXPECT_GE(count_rule(sibling, "raw-random"), 4u)
      << "sanction must cover only the entropy homes";
}

TEST(RimLint, UnorderedContainerFixtureTriggers) {
  const std::string body = fixture("unordered.cpp");
  const auto in_io = lint_source("src/rim/io/fixture.cpp", body);
  EXPECT_GE(count_rule(in_io, "unordered-container"), 2u);
  const auto in_obs = lint_source("src/rim/obs/fixture.cpp", body);
  EXPECT_GE(count_rule(in_obs, "unordered-container"), 2u);
  const auto in_snapshot = lint_source("src/rim/core/snapshot.cpp", body);
  EXPECT_GE(count_rule(in_snapshot, "unordered-container"), 2u);
}

TEST(RimLint, UnorderedContainerAllowedElsewhere) {
  const auto v =
      lint_source("src/rim/geom/dynamic_grid.hpp", fixture("unordered.cpp"));
  EXPECT_EQ(count_rule(v, "unordered-container"), 0u);
}

TEST(RimLint, FloatEqualityFixtureTriggers) {
  const auto v = lint_source("tools/rim_lint/testdata/float_equality.cpp",
                             fixture("float_equality.cpp"));
  EXPECT_EQ(count_rule(v, "float-equality"), 3u);
}

TEST(RimLint, FloatEqualityAllowedInGeom) {
  const auto v =
      lint_source("src/rim/geom/vec2.hpp", fixture("float_equality.cpp"));
  EXPECT_EQ(count_rule(v, "float-equality"), 0u);
}

TEST(RimLint, DetailIncludeFixtureTriggers) {
  const auto v = lint_source("src/rim/core/scenario.cpp",
                             fixture("detail_include.cpp"));
  EXPECT_EQ(count_rule(v, "detail-include"), 2u);
}

TEST(RimLint, DetailIncludeAllowedWithinOwnModule) {
  const auto own = lint_source("src/rim/geom/dynamic_grid.cpp",
                               "#include \"rim/geom/detail/cell_key.hpp\"\n");
  EXPECT_EQ(count_rule(own, "detail-include"), 0u);
  const auto cross =
      lint_source("src/rim/geom/dynamic_grid.cpp",
                  "#include \"rim/obs/detail/bucket_math.hpp\"\n");
  EXPECT_EQ(count_rule(cross, "detail-include"), 1u);
}

TEST(RimLint, WaveScratchFixtureTriggers) {
  const auto v = lint_source("src/rim/core/scenario_batch.cpp",
                             fixture("wave_scratch.cpp"));
  EXPECT_EQ(count_rule(v, "wave-vector-scratch"), 4u)
      << "one per vector declared inside a submit() or fork_join() task "
         "lambda";
}

TEST(RimLint, WaveScratchAllowedOutsideBatchFiles) {
  const auto v =
      lint_source("src/rim/sim/workload.cpp", fixture("wave_scratch.cpp"));
  EXPECT_EQ(count_rule(v, "wave-vector-scratch"), 0u);
}

TEST(RimLint, EvalOptionsDesignatedInitFixtureTriggers) {
  const auto v = lint_source("tools/rim_lint/testdata/eval_options_init.cpp",
                             fixture("eval_options_init.cpp"));
  EXPECT_EQ(count_rule(v, "eval-options-designated-init"), 3u)
      << "single field, multiple fields, qualified name";
}

TEST(RimLint, EvalOptionsBuilderChainsDoNotFire) {
  const std::string source =
      "const auto o = EvalOptions{}.with_strategy(Strategy::kBrute);\n"
      "EvalOptions defaults;\n"
      "EvalOptions copy{defaults};\n";
  const auto v = lint_source("src/rim/core/fixture.cpp", source);
  EXPECT_EQ(count_rule(v, "eval-options-designated-init"), 0u);
}

TEST(RimLint, SuppressedFixtureIsClean) {
  const auto v = lint_source("tools/rim_lint/testdata/suppressed.cpp",
                             fixture("suppressed.cpp"));
  EXPECT_TRUE(v.empty()) << v.size() << " unexpected violation(s), first: "
                         << (v.empty() ? "" : v.front().message);
}

TEST(RimLint, MalformedSuppressionsTrigger) {
  const auto v = lint_source("tools/rim_lint/testdata/bad_allow.cpp",
                             fixture("bad_allow.cpp"));
  EXPECT_EQ(count_rule(v, "allow-format"), 4u)
      << "unknown rule, missing colon, empty reason, dangling";
}

TEST(RimLint, PatternsInsideStringsAndCommentsDoNotFire) {
  const std::string source =
      "#include <string>\n"
      "std::string s = \"std::" "rand() time(nullptr) == 1.0\";\n";
  const auto v = lint_source("src/rim/io/json.cpp", source);
  EXPECT_TRUE(v.empty());
}

TEST(RimLint, BinaryFileRule) {
  using std::string_literals::operator""s;
  EXPECT_TRUE(rim::lint::looks_binary("ELF\0binary"s));
  EXPECT_FALSE(rim::lint::looks_binary("plain text\nwith lines\n"));

  const std::string path = ::testing::TempDir() + "/rim_lint_binary_fixture";
  {
    std::ofstream out(path, std::ios::binary);
    out.write("\x7f" "ELF\0\0\0", 7);
  }
  const auto v = rim::lint::check_binary(path);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v.front().rule, "binary-file");
  std::remove(path.c_str());
}

TEST(RimLint, RuleCatalogIsComplete) {
  const auto& rules = rim::lint::rules();
  EXPECT_GE(rules.size(), 5u) << "acceptance: >= 5 named rules";
  for (const auto& rule : rules) {
    EXPECT_FALSE(rule.name.empty());
    EXPECT_FALSE(rule.summary.empty());
  }
}

}  // namespace
