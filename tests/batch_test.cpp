#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <vector>

#include "rim/core/assessor.hpp"
#include "rim/core/radii.hpp"
#include "rim/core/scenario.hpp"
#include "rim/core/wave_schedule.hpp"
#include "rim/graph/udg.hpp"
#include "rim/parallel/thread_pool.hpp"
#include "rim/sim/generators.hpp"
#include "rim/sim/rng.hpp"
#include "rim/sim/workload.hpp"
#include "rim/topology/mst_topology.hpp"

/// Tests for the parallel batch pipeline (Scenario::apply_batch), its wave
/// scheduler (first_fit_waves) and the unified impact assessor
/// (core::Assessor). The contract under test is bit-identity: a batch must
/// leave the scenario in exactly the state that applying its mutations one
/// at a time would, which in turn must match the kBrute from-scratch
/// oracle; and the scheduler must assign every task the wave the
/// per-wave membership scan it replaced would.

namespace rim::core {
namespace {

std::vector<std::uint32_t> brute_reference(Scenario& scenario) {
  const graph::Graph topo = scenario.topology();
  const geom::PointSet points = scenario.points();
  const std::vector<double> radii2 = transmission_radii_squared(topo, points);
  return interference_vector_squared(points, radii2, Strategy::kBrute);
}

void expect_scenarios_identical(Scenario& a, Scenario& b, const char* context) {
  ASSERT_EQ(a.node_count(), b.node_count()) << context;
  ASSERT_EQ(a.edge_count(), b.edge_count()) << context;
  const auto ia = a.interference();
  const auto ib = b.interference();
  ASSERT_EQ(ia.size(), ib.size()) << context;
  for (std::size_t v = 0; v < ia.size(); ++v) {
    ASSERT_EQ(ia[v], ib[v]) << context << ", node " << v;
    ASSERT_EQ(a.position(v), b.position(v)) << context << ", node " << v;
    ASSERT_EQ(a.radius_squared(v), b.radius_squared(v))
        << context << ", node " << v;
  }
}

void expect_matches_brute(Scenario& scenario, const char* context) {
  const std::vector<std::uint32_t> expected = brute_reference(scenario);
  const auto actual = scenario.interference();
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (std::size_t v = 0; v < expected.size(); ++v) {
    ASSERT_EQ(actual[v], expected[v]) << context << ", node " << v;
  }
}

sim::WorkloadConfig small_config(std::uint64_t seed) {
  sim::WorkloadConfig config;
  config.initial_nodes = 70;
  config.batch_size = 48;
  config.side = 2.0;
  config.seed = seed;
  return config;
}

/// Constant-density MST scenario (the E19 network family): disks stay
/// local, so batches run through the incremental wave pipeline instead of
/// the deferred full-evaluation fallback.
Scenario make_mst_scenario(std::size_t n, double side, std::uint64_t seed) {
  const geom::PointSet points = sim::uniform_square(n, side, seed);
  const graph::Graph udg = graph::build_udg(points, 1.0);
  const graph::Graph mst = topology::mst_topology(points, udg);
  return Scenario(points, mst);
}

/// Spatially local churn (moves jitter by <= 0.3, edge flips go to the
/// nearest neighbor, adds attach locally): the batch generator that keeps
/// every disk task small. Generated against \p reference *before* the batch
/// is applied anywhere, so all replicas see the same mutations.
std::vector<Mutation> make_local_batch(Scenario& reference, sim::Rng& rng,
                                       std::size_t size, double side) {
  std::vector<Mutation> batch;
  batch.reserve(size);
  std::size_t n = reference.node_count();
  const auto clamp = [side](double x) {
    return x < 0.0 ? 0.0 : (x > side ? side : x);
  };
  const std::size_t moves = size / 2;
  for (std::size_t i = 0; i < moves; ++i) {
    const auto v = static_cast<NodeId>(rng.next_below(n));
    const geom::Vec2 old = reference.position(v);
    batch.push_back(Mutation::move_node(
        v, {clamp(old.x + rng.uniform(-0.3, 0.3)),
            clamp(old.y + rng.uniform(-0.3, 0.3))}));
  }
  const std::size_t adds = size / 10;
  for (std::size_t i = 0; i < adds; ++i) {
    const auto anchor = static_cast<NodeId>(rng.next_below(n));
    const geom::Vec2 p = reference.position(anchor);
    batch.push_back(Mutation::add_node(
        {clamp(p.x + rng.uniform(-0.3, 0.3)),
         clamp(p.y + rng.uniform(-0.3, 0.3))}));
    batch.push_back(Mutation::add_edge(static_cast<NodeId>(n), anchor));
    ++n;
  }
  for (std::size_t i = moves + adds; i < size; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    const NodeId v = reference.nearest_node(reference.position(u), u);
    if (v == kInvalidNode) continue;
    batch.push_back(rng.next_double() < 0.5 ? Mutation::add_edge(u, v)
                                            : Mutation::remove_edge(u, v));
  }
  return batch;
}

/// A "triple field": `active` triples A—B (distance 1) and A—C (distance
/// 1/2) spaced `active_spacing` apart, plus far-away ballast triples that
/// only exist to keep the batch's touched-region estimate well below the
/// deferral threshold. Removing each active A—C edge shrinks exactly one
/// disk (C's) per triple: with spacing 100 the resulting disk tasks are
/// pairwise disjoint (one wave); with spacing 0.05 every disk overlaps
/// every other (each task conflicts with all the others).
struct TripleField {
  geom::PointSet points;
  std::vector<Mutation> batch;
};

TripleField make_triple_field(std::size_t active, double active_spacing,
                              std::size_t ballast) {
  TripleField field;
  field.points.reserve((active + ballast) * 3);
  for (std::size_t i = 0; i < active; ++i) {
    const double x = active_spacing * static_cast<double>(i);
    field.points.push_back({x, 0.0});        // A
    field.points.push_back({x + 1.0, 0.0});  // B
    field.points.push_back({x + 0.5, 0.0});  // C
  }
  for (std::size_t i = 0; i < ballast; ++i) {
    const double x = 100000.0 + 100.0 * static_cast<double>(i);
    field.points.push_back({x, 0.0});
    field.points.push_back({x + 1.0, 0.0});
    field.points.push_back({x + 0.5, 0.0});
  }
  for (std::size_t i = 0; i < active; ++i) {
    const NodeId a = static_cast<NodeId>(3 * i);
    const NodeId c = static_cast<NodeId>(3 * i + 2);
    field.batch.push_back(Mutation::remove_edge(a, c));
  }
  return field;
}

Scenario make_triple_scenario(const TripleField& field) {
  graph::Graph topo(field.points.size());
  for (NodeId a = 0; a + 2 < field.points.size(); a += 3) {
    topo.add_edge(a, a + 1);
    topo.add_edge(a, a + 2);
  }
  return Scenario(field.points, topo);
}

/// One BatchProperty input: a scenario family and its seed.
///  - kSmallChurn: a 70-node tenant under sim::make_churn_batch (every
///    mutation kind, teleporting moves, removals with renames).
///  - kLocalMst: a 3000-node MST under spatially local churn, so the
///    batches stay on the wave path and fill waves on the pool.
enum class Family : std::uint8_t { kSmallChurn, kLocalMst };

struct BatchInput {
  Family family = Family::kSmallChurn;
  std::uint64_t seed = 0;
};

// The ctest name suffix: the bare seed for the small family, a tagged seed
// for the local-churn MST.
void PrintTo(const BatchInput& input, std::ostream* out) {
  if (input.family == Family::kLocalMst) *out << "local_mst_";
  *out << input.seed;
}

/// The headline property: randomized batches, applied through the pipeline
/// (both inline and on a real 4-thread pool), stay bit-identical to serial
/// application and to the kBrute oracle after every batch.
class BatchProperty : public ::testing::TestWithParam<BatchInput> {};

TEST_P(BatchProperty, RandomizedBatchesMatchSerialAndBrute) {
  const BatchInput input = GetParam();
  const bool local = input.family == Family::kLocalMst;
  const sim::WorkloadConfig config = small_config(input.seed);
  const double mst_side = 15.5;  // ~12.5 nodes per unit square
  Scenario serial = local ? make_mst_scenario(3000, mst_side, input.seed)
                          : sim::make_tenant_scenario(config, 0);
  Scenario inline_batch = serial;
  Scenario pooled_batch = serial;
  (void)serial.interference();
  (void)inline_batch.interference();
  (void)pooled_batch.interference();

  parallel::ThreadPool pool(4);
  sim::Rng rng(input.seed ^ 0xbadc0deu);
  // Fewer rounds on the large family: the per-round kBrute check is O(n^2).
  const int rounds = local ? 6 : 12;
  for (int round = 0; round < rounds; ++round) {
    const std::vector<Mutation> batch =
        local ? make_local_batch(serial, rng, 20, mst_side)
              : sim::make_churn_batch(rng, serial.node_count(), config);
    for (const Mutation& m : batch) serial.apply(m);
    inline_batch.apply_batch(batch, nullptr);
    pooled_batch.apply_batch(batch, &pool);

    expect_scenarios_identical(serial, inline_batch, "inline vs serial");
    expect_scenarios_identical(serial, pooled_batch, "pooled vs serial");
    expect_matches_brute(inline_batch, "inline vs brute");
  }
  EXPECT_GT(inline_batch.stats().batches, 0u);
  EXPECT_GT(inline_batch.stats().batch_mutations, 0u);
  if (local) {
    // Some wave was wide enough to be dispatched to the pool.
    EXPECT_GE(pooled_batch.stats().batch_wave_tasks.max(),
              EvalOptions{}.batch_min_parallel_tasks);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, BatchProperty,
    ::testing::Values(BatchInput{Family::kSmallChurn, 11},
                      BatchInput{Family::kSmallChurn, 22},
                      BatchInput{Family::kSmallChurn, 33},
                      BatchInput{Family::kSmallChurn, 44},
                      BatchInput{Family::kLocalMst, 17},
                      BatchInput{Family::kLocalMst, 29},
                      BatchInput{Family::kLocalMst, 41}));

TEST(ApplyBatch, EmptyBatchIsNoOp) {
  const auto points = sim::uniform_square(30, 1.5, 5);
  graph::Graph topo(points.size());
  for (NodeId v = 1; v < points.size(); ++v) topo.add_edge(v - 1, v);
  Scenario scenario(points, topo);
  (void)scenario.interference();
  const std::vector<std::uint32_t> before(scenario.interference().begin(),
                                          scenario.interference().end());
  const BatchResult result = scenario.apply_batch({});
  EXPECT_EQ(result.applied, 0u);
  EXPECT_EQ(result.waves, 0u);
  EXPECT_FALSE(result.deferred);
  const auto after = scenario.interference();
  EXPECT_EQ(before, std::vector<std::uint32_t>(after.begin(), after.end()));
}

TEST(ApplyBatch, SingleMutationBatchMatchesApply) {
  const auto points = sim::uniform_square(40, 1.5, 7);
  graph::Graph topo(points.size());
  for (NodeId v = 1; v < points.size(); ++v) topo.add_edge(v - 1, v);
  Scenario serial(points, topo);
  Scenario batched = serial;
  (void)serial.interference();
  (void)batched.interference();
  const Mutation m = Mutation::move_node(7, {0.33, 0.77});
  serial.apply(m);
  batched.apply_batch(std::span<const Mutation>(&m, 1), nullptr);
  expect_scenarios_identical(serial, batched, "single-mutation batch");
}

TEST(ApplyBatch, InvalidIdsAreSkipped) {
  const auto points = sim::uniform_square(25, 1.5, 9);
  graph::Graph topo(points.size());
  for (NodeId v = 1; v < points.size(); ++v) topo.add_edge(v - 1, v);
  Scenario scenario(points, topo);
  (void)scenario.interference();
  const std::vector<std::uint32_t> before(scenario.interference().begin(),
                                          scenario.interference().end());
  const std::vector<Mutation> batch{
      Mutation::remove_node(999),
      Mutation::add_edge(0, 999),
      Mutation::remove_edge(999, 1),
      Mutation::move_node(999, {0.0, 0.0}),
      Mutation::add_edge(3, 3),  // self-loop: also a no-op
  };
  const BatchResult result = scenario.apply_batch(batch, nullptr);
  EXPECT_EQ(result.applied, 0u);
  const auto after = scenario.interference();
  EXPECT_EQ(before, std::vector<std::uint32_t>(after.begin(), after.end()));
  expect_matches_brute(scenario, "after invalid batch");
}

TEST(ApplyBatch, MoveToCurrentPositionInBatchIsNoOp) {
  const auto points = sim::uniform_square(25, 1.5, 13);
  graph::Graph topo(points.size());
  for (NodeId v = 1; v < points.size(); ++v) topo.add_edge(v - 1, v);
  Scenario scenario(points, topo);
  (void)scenario.interference();
  const std::vector<Mutation> batch{
      Mutation::move_node(4, scenario.position(4))};
  const BatchResult result = scenario.apply_batch(batch, nullptr);
  EXPECT_EQ(result.applied, 0u);
  EXPECT_EQ(result.disk_tasks, 0u);
  EXPECT_EQ(result.recounts, 0u);
  expect_matches_brute(scenario, "after same-position move batch");
}

TEST(ApplyBatch, AddThenRemoveSameNodeWithinBatch) {
  const auto points = sim::uniform_square(30, 1.5, 21);
  graph::Graph topo(points.size());
  for (NodeId v = 1; v < points.size(); ++v) topo.add_edge(v - 1, v);
  Scenario serial(points, topo);
  Scenario batched = serial;
  (void)serial.interference();
  (void)batched.interference();
  const auto newcomer = static_cast<NodeId>(points.size());
  const std::vector<Mutation> batch{
      Mutation::add_node({0.7, 0.7}),
      Mutation::add_edge(newcomer, 0),
      Mutation::remove_node(newcomer),
  };
  for (const Mutation& m : batch) serial.apply(m);
  batched.apply_batch(batch, nullptr);
  EXPECT_EQ(batched.node_count(), points.size());
  expect_scenarios_identical(serial, batched, "add+remove same batch");
  expect_matches_brute(batched, "add+remove same batch vs brute");
}

TEST(ApplyBatch, RemovalChurnWithRenamesMatchesSerial) {
  // Heavy removal mix: every removal triggers a swap-with-last rename, so
  // later mutations in the same batch target renamed ids.
  const auto points = sim::uniform_square(60, 2.0, 31);
  graph::Graph topo(points.size());
  for (NodeId v = 1; v < points.size(); ++v) topo.add_edge(v - 1, v);
  Scenario serial(points, topo);
  Scenario batched = serial;
  (void)serial.interference();
  (void)batched.interference();
  sim::Rng rng(31);
  std::vector<Mutation> batch;
  std::size_t n = points.size();
  for (int i = 0; i < 20; ++i) {
    batch.push_back(Mutation::remove_node(
        static_cast<NodeId>(rng.next_below(n--))));
  }
  for (int i = 0; i < 10; ++i) {
    batch.push_back(Mutation::move_node(
        static_cast<NodeId>(rng.next_below(n)),
        {rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)}));
  }
  for (const Mutation& m : batch) serial.apply(m);
  batched.apply_batch(batch, nullptr);
  expect_scenarios_identical(serial, batched, "removal churn");
  expect_matches_brute(batched, "removal churn vs brute");
}

TEST(ApplyBatch, GiantDiskBatchDefersAndStaysExact) {
  // A hub wired to everyone: moving it drags a deployment-spanning disk, so
  // the pipeline must fall back to a deferred full evaluation — and still
  // agree with the oracle.
  const auto points = sim::uniform_square(400, 2.0, 37);
  graph::Graph topo(points.size());
  for (NodeId v = 1; v < points.size(); ++v) topo.add_edge(0, v);
  Scenario scenario(points, topo);
  (void)scenario.interference();
  const std::vector<Mutation> batch{Mutation::move_node(0, {1.1, 0.9})};
  const BatchResult result = scenario.apply_batch(batch, nullptr);
  EXPECT_TRUE(result.deferred);
  EXPECT_GT(scenario.stats().batch_deferred, 0u);
  expect_matches_brute(scenario, "after deferred batch");
}

TEST(ApplyBatch, StatsJsonExposesBatchCounters) {
  const auto points = sim::uniform_square(40, 1.5, 41);
  graph::Graph topo(points.size());
  for (NodeId v = 1; v < points.size(); ++v) topo.add_edge(v - 1, v);
  Scenario scenario(points, topo);
  (void)scenario.interference();
  const std::vector<Mutation> batch{Mutation::move_node(3, {0.5, 0.5}),
                                    Mutation::add_node({1.0, 1.0})};
  scenario.apply_batch(batch, nullptr);
  const std::string json = scenario.stats_json().dump();
  EXPECT_NE(json.find("\"batches\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("batch_disk_tasks"), std::string::npos);
  EXPECT_NE(json.find("batch_wave_tasks"), std::string::npos);
  EXPECT_NE(json.find("\"grid\""), std::string::npos);
}

/// Applies the triple-field batch through the wave pipeline on a 4-worker
/// pool and checks it against serial application and the brute oracle.
void expect_triple_field_waves(double spacing, std::size_t ballast,
                               std::size_t waves) {
  parallel::ThreadPool pool(4);
  const TripleField field = make_triple_field(8, spacing, ballast);
  Scenario serial = make_triple_scenario(field);
  Scenario batched = make_triple_scenario(field);
  (void)serial.interference();
  (void)batched.interference();

  const BatchResult result = batched.apply_batch(field.batch, &pool);
  for (const Mutation& m : field.batch) serial.apply(m);

  // One disk task per active triple: C's disk shrinks to nothing, A's
  // farthest neighbor stays B.
  ASSERT_FALSE(result.deferred) << "spacing " << spacing;
  EXPECT_EQ(result.disk_tasks, 8u) << "spacing " << spacing;
  EXPECT_EQ(result.waves, waves) << "spacing " << spacing;
  expect_scenarios_identical(serial, batched, "triple field vs serial");
  expect_matches_brute(batched, "triple field vs brute");
}

TEST(ApplyBatch, DisjointTripleFieldRunsInOneWave) {
  // Spacing 100: the eight shrinking disks are pairwise disjoint, so the
  // whole batch is one wave.
  expect_triple_field_waves(100.0, 56, 1);
}

TEST(ApplyBatch, ClusteredTripleFieldRunsOneWavePerTask) {
  // Spacing 0.05 stacks the eight disks inside ~1.4 units: every task
  // conflicts with every other, one wave each.
  expect_triple_field_waves(0.05, 248, 8);
}

/// Records each disk task's wave from the wave workers, lock-free (the
/// BatchHooks contract: hooks run on pool workers).
class WaveRecorder : public BatchHooks {
 public:
  static constexpr std::size_t kCapacity = 4096;

  bool before_disk_task(std::size_t wave, std::size_t task) override {
    if (task < kCapacity) waves_[task].store(wave, std::memory_order_relaxed);
    return true;
  }
  [[nodiscard]] std::uint64_t wave_of(std::size_t task) const {
    return waves_[task].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kCapacity> waves_{};
};

/// FNV-1a over the eight little-endian bytes of \p value, folded into \p h.
void fnv1a_fold(std::uint64_t& h, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (value >> shift) & 0xFFu;
    h *= 0x100000001B3ULL;
  }
}

TEST(ApplyBatch, ScheduleMatchesParentDigest) {
  // Every task's wave over a seeded 5k-node local-churn trace, plus each
  // batch's waves / disk_tasks / recounts. The digest was recorded with
  // the per-wave membership scan first_fit_waves replaced.
  const double side = 20.0;  // 12.5 nodes per unit square
  Scenario reference = make_mst_scenario(5000, side, 53);
  Scenario batched = reference;
  (void)reference.interference();
  (void)batched.interference();
  parallel::ThreadPool pool(4);
  sim::Rng rng(0x5eedu);
  WaveRecorder recorder;
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  std::size_t waves = 0;
  for (int round = 0; round < 24; ++round) {
    const std::vector<Mutation> batch =
        make_local_batch(reference, rng, 32, side);
    for (const Mutation& m : batch) reference.apply(m);
    const BatchResult result = batched.apply_batch(batch, &pool, &recorder);
    ASSERT_FALSE(result.deferred) << "round " << round;
    ASSERT_LE(result.disk_tasks, WaveRecorder::kCapacity);
    fnv1a_fold(digest, result.waves);
    fnv1a_fold(digest, result.disk_tasks);
    fnv1a_fold(digest, result.recounts);
    for (std::size_t t = 0; t < result.disk_tasks; ++t) {
      fnv1a_fold(digest, recorder.wave_of(t));
    }
    waves += result.waves;
  }
  expect_scenarios_identical(reference, batched, "digest trace vs serial");
  EXPECT_GT(waves, 24u * 2);  // the trace exercises multi-wave schedules
  EXPECT_EQ(digest, 0x59dddcd019a17bebULL);
}

// --- first_fit_waves vs the per-wave membership scan ----------------------

/// The scan first_fit_waves replaced: each task joins the first wave none
/// of whose members' bounding squares meet its own.
std::vector<std::uint32_t> quadratic_first_fit(
    const std::vector<geom::Vec2>& centers, const std::vector<double>& q) {
  std::vector<std::vector<std::size_t>> waves;
  std::vector<std::uint32_t> wave_of(centers.size());
  for (std::size_t i = 0; i < centers.size(); ++i) {
    std::size_t target = waves.size();
    for (std::size_t w = 0; w < waves.size() && target == waves.size(); ++w) {
      bool conflicts = false;
      for (const std::size_t j : waves[w]) {
        const double reach = q[i] + q[j];
        if (std::abs(centers[i].x - centers[j].x) <= reach &&
            std::abs(centers[i].y - centers[j].y) <= reach) {
          conflicts = true;
          break;
        }
      }
      if (!conflicts) target = w;
    }
    if (target == waves.size()) waves.emplace_back();
    waves[target].push_back(i);
    wave_of[i] = static_cast<std::uint32_t>(target);
  }
  return wave_of;
}

/// first_fit_waves must assign every task the reference's wave.
void expect_same_schedule(const std::vector<geom::Vec2>& centers,
                          const std::vector<double>& q, const char* context) {
  ASSERT_EQ(centers.size(), q.size());
  const std::vector<std::uint32_t> expected = quadratic_first_fit(centers, q);
  std::vector<std::uint32_t> actual(centers.size(), 0xFFFFFFFFu);
  common::Arena arena;
  const std::size_t waves =
      first_fit_waves(centers, q, arena, {actual.data(), actual.size()});
  std::uint32_t expected_waves = 0;
  for (const std::uint32_t w : expected) {
    expected_waves = std::max(expected_waves, w + 1);
  }
  EXPECT_EQ(waves, expected_waves) << context;
  for (std::size_t i = 0; i < centers.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]) << context << ", task " << i;
  }
}

TEST(WaveSchedule, SeededRandomTaskSetsMatchTheQuadraticScan) {
  sim::Rng rng(0x3a7e5u);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.next_below(300);
    const double extent = rng.uniform(0.5, 200.0);
    const double max_q = rng.uniform(0.0, 3.0);
    std::vector<geom::Vec2> centers(n);
    std::vector<double> q(n);
    for (std::size_t i = 0; i < n; ++i) {
      centers[i] = {rng.uniform(0.0, extent), rng.uniform(0.0, extent)};
      // A quarter of the tasks shrink a disk to nothing: query radius 0.
      q[i] = rng.next_double() < 0.25 ? 0.0 : rng.uniform(0.0, max_q);
    }
    expect_same_schedule(centers, q, "random");
  }
}

TEST(WaveSchedule, EveryTaskAtOneCenter) {
  std::vector<geom::Vec2> centers(64, geom::Vec2{3.25, -7.5});
  std::vector<double> q(64);
  for (std::size_t i = 0; i < q.size(); ++i) {
    q[i] = static_cast<double>(i % 5) * 0.25;
  }
  expect_same_schedule(centers, q, "one center");
  std::fill(q.begin(), q.end(), 0.0);
  expect_same_schedule(centers, q, "one center, zero radii");
}

TEST(WaveSchedule, OneGiantDiskAmongSmallOnes) {
  sim::Rng rng(0x61a27u);
  std::vector<geom::Vec2> centers;
  std::vector<double> q;
  for (int i = 0; i < 400; ++i) {
    centers.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
    q.push_back(rng.uniform(0.0, 0.6));
    if (i == 150) {
      centers.push_back({50.0, 50.0});
      q.push_back(30.0);
    }
  }
  expect_same_schedule(centers, q, "giant disk");
}

TEST(WaveSchedule, BoundingSquaresTouchingExactlyConflict) {
  // Dyadic values keep every sum exact: |dx| == reach on one axis.
  std::vector<geom::Vec2> centers;
  std::vector<double> q;
  for (int i = 0; i < 32; ++i) {
    centers.push_back({static_cast<double>(i), 0.125 * (i % 3)});
    q.push_back(0.5);
  }
  for (int i = 0; i < 32; ++i) {
    centers.push_back({0.25 * (i % 4), 10.0 + 1.5 * static_cast<double>(i)});
    q.push_back(i % 2 == 0 ? 1.0 : 0.5);
  }
  expect_same_schedule(centers, q, "touching");
  // Adjacent squares touch, so the chain alternates between two waves.
  std::vector<std::uint32_t> wave_of(32);
  common::Arena arena;
  const std::vector<geom::Vec2> chain(centers.begin(), centers.begin() + 32);
  const std::vector<double> chain_q(q.begin(), q.begin() + 32);
  EXPECT_EQ(first_fit_waves(chain, chain_q, arena, wave_of), 2u);
}

TEST(WaveSchedule, ExtremeMagnitudesStayDefined) {
  sim::Rng rng(0xe77eu);
  std::vector<geom::Vec2> centers;
  std::vector<double> q;
  for (int i = 0; i < 120; ++i) {
    const double sx = rng.next_double() < 0.5 ? -1.0 : 1.0;
    const double sy = rng.next_double() < 0.5 ? -1.0 : 1.0;
    centers.push_back({sx * 1e300 * rng.uniform(0.5, 1.0),
                       sy * 1e300 * rng.uniform(0.5, 1.0)});
    q.push_back(i % 7 == 0 ? 1e300 : rng.uniform(0.0, 1.0));
  }
  expect_same_schedule(centers, q, "1e300");

  // Subnormal spacing: centres a few denorm_min apart.
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  centers.clear();
  q.clear();
  for (int i = 0; i < 120; ++i) {
    centers.push_back({kTiny * static_cast<double>(rng.next_below(40)),
                       kTiny * static_cast<double>(rng.next_below(40))});
    q.push_back(kTiny * static_cast<double>(rng.next_below(3)));
  }
  expect_same_schedule(centers, q, "subnormal");

  // Extents that overflow to infinity, and non-finite inputs.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  centers = {{-1.7e308, 0.0}, {1.7e308, 1.0}, {0.0, 0.0},  {kInf, 2.0},
             {kNaN, 0.0},     {1.0, kNaN},    {-kInf, -kInf}, {0.5, 0.5}};
  q = {1.0, 1.0, 1e308, 0.0, 1.0, 1.0, kInf, kNaN};
  expect_same_schedule(centers, q, "non-finite");
}

// --- Assessor::assess ----------------------------------------------------

TEST(Assess, DoesNotMutateTheScenario) {
  const auto points = sim::uniform_square(50, 2.0, 51);
  graph::Graph topo(points.size());
  for (NodeId v = 1; v < points.size(); ++v) topo.add_edge(v - 1, v);
  Scenario scenario(points, topo);
  const std::vector<std::uint32_t> before(scenario.interference().begin(),
                                          scenario.interference().end());
  const std::size_t edges_before = scenario.edge_count();

  (void)Assessor{}.assess(scenario, Mutation::remove_node(7));
  (void)Assessor{}.assess(scenario, Mutation::add_node({0.4, 0.6}));

  EXPECT_EQ(scenario.node_count(), points.size());
  EXPECT_EQ(scenario.edge_count(), edges_before);
  const auto after = scenario.interference();
  EXPECT_EQ(before, std::vector<std::uint32_t>(after.begin(), after.end()));
}

TEST(Assess, AdditionSequenceMatchesApplication) {
  const auto points = sim::uniform_square(50, 2.0, 61);
  graph::Graph topo(points.size());
  for (NodeId v = 1; v < points.size(); ++v) topo.add_edge(v - 1, v);
  Scenario scenario(points, topo);
  const geom::Vec2 p{0.8, 1.2};
  const auto newcomer = static_cast<NodeId>(points.size());
  const NodeId partner = scenario.nearest_node(p);
  const std::vector<Mutation> sequence{Mutation::add_node(p),
                                       Mutation::add_edge(newcomer, partner)};
  const Assessment assessment = Assessor{}.assess(scenario, sequence);

  Scenario applied = scenario;
  for (const Mutation& m : sequence) applied.apply(m);
  EXPECT_EQ(assessment.max_before, scenario.max_interference());
  EXPECT_EQ(assessment.max_after, applied.max_interference());
  EXPECT_EQ(assessment.newcomer_interference,
            applied.interference_of(newcomer));
  ASSERT_EQ(assessment.delta_per_node.size(), points.size());
  for (NodeId v = 0; v < points.size(); ++v) {
    EXPECT_EQ(assessment.delta_per_node[v],
              static_cast<std::int64_t>(applied.interference_of(v)) -
                  static_cast<std::int64_t>(scenario.interference_of(v)))
        << "node " << v;
  }
}

TEST(Assess, RemovalReportsVictimAndRenames) {
  const auto points = sim::uniform_square(40, 2.0, 71);
  graph::Graph topo(points.size());
  for (NodeId v = 1; v < points.size(); ++v) topo.add_edge(v - 1, v);
  Scenario scenario(points, topo);
  const NodeId victim = 5;
  const auto victim_before = scenario.interference_of(victim);
  const Assessment assessment = Assessor{}.assess(scenario, Mutation::remove_node(victim));

  // The victim's slot disappeared: its delta is minus its old value.
  EXPECT_EQ(assessment.delta_per_node[victim],
            -static_cast<std::int64_t>(victim_before));
  // affected_ids is ascending and exactly the non-zero deltas.
  for (std::size_t i = 1; i < assessment.affected_ids.size(); ++i) {
    EXPECT_LT(assessment.affected_ids[i - 1], assessment.affected_ids[i]);
  }
  for (const NodeId id : assessment.affected_ids) {
    EXPECT_NE(assessment.delta_per_node[id], 0);
  }
  // Cross-check against real application with the rename resolved.
  Scenario applied = scenario;
  const NodeId renamed = applied.remove_node(victim);
  for (NodeId v = 0; v < points.size(); ++v) {
    if (v == victim) continue;
    const NodeId where = v == renamed ? victim : v;
    EXPECT_EQ(assessment.delta_per_node[v],
              static_cast<std::int64_t>(applied.interference_of(where)) -
                  static_cast<std::int64_t>(scenario.interference_of(v)))
        << "node " << v;
  }
}

}  // namespace
}  // namespace rim::core
