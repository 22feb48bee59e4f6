/// Experiment E12 — performance of the library's kernels (google-benchmark):
/// interference evaluation strategies, UDG construction, spatial indices,
/// the Section 5 algorithms, the JSON codec on wire-sized documents, and
/// the snapshot codec and replica ship those documents carry.

#include <benchmark/benchmark.h>

#include "rim/core/interference.hpp"
#include "rim/core/radii.hpp"
#include "rim/core/scenario.hpp"
#include "rim/core/snapshot.hpp"
#include "rim/geom/grid_index.hpp"
#include "rim/graph/udg.hpp"
#include "rim/highway/a_apx.hpp"
#include "rim/highway/a_exp.hpp"
#include "rim/highway/a_gen.hpp"
#include "rim/highway/highway_instance.hpp"
#include "rim/highway/interference_1d.hpp"
#include "rim/io/json.hpp"
#include "rim/shard/replicator.hpp"
#include "rim/sim/generators.hpp"
#include "rim/sim/rng.hpp"
#include "rim/svc/protocol.hpp"
#include "rim/svc/service.hpp"
#include "rim/topology/mst_topology.hpp"
#include "rim/topology/registry.hpp"

#include "local_trace.hpp"

namespace {

using namespace rim;

struct Prepared {
  geom::PointSet points;
  graph::Graph udg;
  graph::Graph mst;
  std::vector<double> radii;
};

Prepared prepare(std::size_t n) {
  Prepared p;
  // Density held constant (~12.5 nodes per unit square).
  const double side = std::sqrt(static_cast<double>(n) / 12.5);
  p.points = sim::uniform_square(n, side, 42);
  p.udg = graph::build_udg(p.points, 1.0);
  p.mst = topology::mst_topology(p.points, p.udg);
  p.radii = core::transmission_radii(p.mst, p.points);
  return p;
}

void BM_InterferenceBrute(benchmark::State& state) {
  const Prepared p = prepare(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::interference_vector(
        p.points, p.radii, core::Strategy::kBrute));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_InterferenceBrute)->RangeMultiplier(4)->Range(256, 4096)->Complexity();

void BM_InterferenceGrid(benchmark::State& state) {
  const Prepared p = prepare(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::interference_vector(
        p.points, p.radii, core::Strategy::kGrid));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_InterferenceGrid)->RangeMultiplier(4)->Range(256, 65536)->Complexity();

void BM_InterferenceParallel(benchmark::State& state) {
  const Prepared p = prepare(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::interference_vector(
        p.points, p.radii, core::Strategy::kParallel));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_InterferenceParallel)
    ->RangeMultiplier(4)
    ->Range(256, 65536)
    ->Complexity();

void BM_ScenarioChurnEvent(benchmark::State& state) {
  // One fully-evaluated churn tick on the incremental engine: alternating
  // arrival (nearest-neighbor attachment) and departure, with the
  // interference cache refreshed after every event. Compare against
  // BM_InterferenceGrid at the same n for the incremental-vs-full gap.
  const Prepared p = prepare(static_cast<std::size_t>(state.range(0)));
  const double side = std::sqrt(static_cast<double>(p.points.size()) / 12.5);
  core::Scenario scenario(p.points, p.mst);
  benchmark::DoNotOptimize(scenario.max_interference());
  sim::Rng rng(19);
  bool add = true;
  for (auto _ : state) {
    if (add) {
      const geom::Vec2 q{rng.uniform(0.0, side), rng.uniform(0.0, side)};
      const NodeId id = scenario.add_node(q);
      const NodeId partner = scenario.nearest_node(q, id);
      if (partner != kInvalidNode) scenario.add_edge(id, partner);
    } else {
      scenario.remove_node(
          static_cast<NodeId>(rng.next_below(scenario.node_count())));
    }
    add = !add;
    benchmark::DoNotOptimize(scenario.max_interference());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ScenarioChurnEvent)
    ->RangeMultiplier(4)
    ->Range(256, 65536)
    ->Complexity();

void BM_ScenarioMoveNode(benchmark::State& state) {
  const Prepared p = prepare(static_cast<std::size_t>(state.range(0)));
  core::Scenario scenario(p.points, p.mst);
  benchmark::DoNotOptimize(scenario.max_interference());
  sim::Rng rng(23);
  for (auto _ : state) {
    const auto v = static_cast<NodeId>(rng.next_below(scenario.node_count()));
    const geom::Vec2 q = scenario.position(v);
    scenario.move_node(v, {q.x + 0.1 * (rng.next_double() - 0.5),
                           q.y + 0.1 * (rng.next_double() - 0.5)});
    benchmark::DoNotOptimize(scenario.max_interference());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ScenarioMoveNode)
    ->RangeMultiplier(4)
    ->Range(256, 65536)
    ->Complexity();

void BM_UdgConstruction(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const double side = std::sqrt(static_cast<double>(n) / 12.5);
  const auto points = sim::uniform_square(n, side, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::build_udg(points, 1.0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_UdgConstruction)->RangeMultiplier(4)->Range(256, 65536)->Complexity();

void BM_GridIndexQuery(benchmark::State& state) {
  const auto points = sim::uniform_square(65536, 72.0, 3);
  const geom::GridIndex index(points, 1.0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.count_in_disk(points[i % points.size()], 1.0));
    ++i;
  }
}
BENCHMARK(BM_GridIndexQuery);

void BM_AExp(benchmark::State& state) {
  const auto chain =
      highway::exponential_chain(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(highway::a_exp(chain));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AExp)->RangeMultiplier(2)->Range(64, 1024)->Complexity();

void BM_AGen(benchmark::State& state) {
  const auto inst = sim::uniform_highway(
      static_cast<std::size_t>(state.range(0)),
      static_cast<double>(state.range(0)) / 40.0, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(highway::a_gen(inst, 1.0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AGen)->RangeMultiplier(4)->Range(1024, 65536)->Complexity();

void BM_AApx(benchmark::State& state) {
  const auto inst = sim::uniform_highway(
      static_cast<std::size_t>(state.range(0)),
      static_cast<double>(state.range(0)) / 40.0, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(highway::a_apx(inst, 1.0));
  }
}
BENCHMARK(BM_AApx)->RangeMultiplier(4)->Range(1024, 65536);

void BM_Interference1D(benchmark::State& state) {
  const auto inst = sim::uniform_highway(
      static_cast<std::size_t>(state.range(0)),
      static_cast<double>(state.range(0)) / 40.0, 5);
  const auto topo = highway::a_gen(inst, 1.0).topology;
  for (auto _ : state) {
    benchmark::DoNotOptimize(highway::graph_interference_1d(inst, topo));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Interference1D)->RangeMultiplier(4)->Range(1024, 65536)->Complexity();

void BM_TopologyAlgorithms(benchmark::State& state) {
  const Prepared p = prepare(1000);
  const auto algorithms = topology::all_algorithms();
  const auto& algorithm = algorithms[static_cast<std::size_t>(state.range(0))];
  state.SetLabel(algorithm.name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algorithm.build(p.points, p.udg));
  }
}
BENCHMARK(BM_TopologyAlgorithms)->DenseRange(0, 9);

/// An apply_batch request as svc::Client sends it: one 256-mutation
/// local-churn batch (~294 mutations after its edge repairs), the batch
/// shape of the serving benchmark's bulk_churn workload.
io::Json batch_request() {
  const Prepared p = prepare(2000);
  const double side = std::sqrt(2000.0 / 12.5);
  bench::LocalTrace trace(p.points, side, 25);
  io::JsonArray mutations;
  for (const core::Mutation& m : trace.next_batch(256)) {
    mutations.push_back(svc::mutation_to_json(m));
  }
  io::JsonObject request;
  request["batch"] = io::Json(std::move(mutations));
  request["cmd"] = io::Json(svc::cmd::kApplyBatch);
  request["id"] = io::Json(1);
  request["session"] = io::Json(1);
  return io::Json(std::move(request));
}

void BM_JsonDumpBatch(benchmark::State& state) {
  const io::Json request = batch_request();
  state.SetLabel(
      std::to_string(request.find("batch")->as_array()->size()) +
      " mutations");
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = request.dump();
    bytes += text.size();
    benchmark::DoNotOptimize(text.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_JsonDumpBatch);

void parse_loop(benchmark::State& state, const std::string& text) {
  for (auto _ : state) {
    io::Json parsed;
    std::string error;
    if (!io::Json::parse(text, parsed, error)) state.SkipWithError("parse");
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}

void BM_JsonParseBatch(benchmark::State& state) {
  parse_loop(state, batch_request().dump());
}
BENCHMARK(BM_JsonParseBatch);

/// A 2000-node session snapshot: the document a replica ship carries.
core::Snapshot session_snapshot() {
  const Prepared p = prepare(2000);
  core::Scenario scenario(p.points, p.mst);
  return scenario.snapshot();
}

void BM_JsonParseSnapshot(benchmark::State& state) {
  parse_loop(state, session_snapshot().to_json().dump());
}
BENCHMARK(BM_JsonParseSnapshot);

void BM_SnapshotToJson(benchmark::State& state) {
  const core::Snapshot snapshot = session_snapshot();
  for (auto _ : state) {
    io::Json document = snapshot.to_json();
    benchmark::DoNotOptimize(document);
  }
}
BENCHMARK(BM_SnapshotToJson);

void BM_SnapshotFromJson(benchmark::State& state) {
  const io::Json document = session_snapshot().to_json();
  for (auto _ : state) {
    core::Snapshot decoded;
    std::string error;
    if (!core::Snapshot::from_json(document, decoded, error)) {
      state.SkipWithError("from_json");
    }
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_SnapshotFromJson);

void BM_ReplicaShip(benchmark::State& state) {
  // One full ship of a 2000-node session: owner snapshot and encode, the
  // router's hop, peer decode, verify and store. Owner and peer are real
  // Services; the exchange calls them in-process, so no socket time.
  svc::ServiceConfig config;
  config.batch_pool_threads = 1;
  svc::Service owner(config);
  svc::Service peer(config);
  (void)owner.handle(R"({"cmd":"create_session","id":1})");
  io::JsonObject restore;
  restore["cmd"] = io::Json(svc::cmd::kRestore);
  restore["id"] = io::Json(2);
  restore["session"] = io::Json(1);
  restore["snapshot"] = session_snapshot().to_json();
  if (owner.handle(io::Json(std::move(restore)).dump())
          .find("\"ok\":true") == std::string::npos) {
    state.SkipWithError("restore");
    return;
  }
  const shard::Exchange exchange =
      [&](const std::string& backend, const std::string& payload,
          std::string& response) {
        response = (backend == "owner" ? owner : peer).handle(payload);
        return svc::TransportStatus::kOk;
      };
  shard::Replicator replicator(shard::ReplicationPolicy{});
  shard::ReplicaState replica;
  for (auto _ : state) {
    // A peer without the replica takes the full shape, as a first ship.
    replica.has_replica = false;
    if (!replicator.ship(1, "owner", 1, "peer", exchange, replica, 0)) {
      state.SkipWithError("ship");
      break;
    }
  }
}
BENCHMARK(BM_ReplicaShip)->Unit(benchmark::kMillisecond);

void BM_ReplicaAppend(benchmark::State& state) {
  // One acked single-mutation write reaching the peer of a 2000-node
  // session as an append: the router's splice, the peer's parse, checks
  // and store. One full ship first sets the replica up; the fixed
  // iteration count keeps the tail below that snapshot's bytes, so every
  // timed ship is an append (checked after the loop).
  svc::ServiceConfig config;
  config.batch_pool_threads = 1;
  svc::Service peer(config);
  io::JsonObject snapshot_result;
  snapshot_result["snapshot"] = session_snapshot().to_json();
  const std::string owner_answer =
      svc::make_ok(0, io::Json(std::move(snapshot_result)));
  const shard::Exchange exchange =
      [&](const std::string& backend, const std::string& payload,
          std::string& response) {
        response = backend == "owner" ? owner_answer : peer.handle(payload);
        return svc::TransportStatus::kOk;
      };
  shard::Replicator replicator(shard::ReplicationPolicy{});
  shard::ReplicaState replica;
  if (!replicator.ship(1, "owner", 1, "peer", exchange, replica, 0)) {
    state.SkipWithError("full ship");
    return;
  }
  const std::string write =
      R"({"cmd":"move","id":7,"session":1,"v":5,"x":3.25,"y":4.5})";
  for (auto _ : state) {
    (void)replicator.record_mutation(replica, write, 0);
    if (!replicator.ship(1, "owner", 1, "peer", exchange, replica, 0)) {
      state.SkipWithError("append");
      break;
    }
  }
  if (replicator.counters().full_ships.value() != 1) {
    state.SkipWithError("a timed ship was not an append");
  }
}
BENCHMARK(BM_ReplicaAppend)->Iterations(1000)->Unit(benchmark::kMicrosecond);

}  // namespace
