#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "rim/core/scenario.hpp"
#include "rim/core/snapshot.hpp"
#include "rim/graph/udg.hpp"
#include "rim/io/json.hpp"
#include "rim/shard/replicator.hpp"
#include "rim/shard/router.hpp"
#include "rim/sim/generators.hpp"
#include "rim/svc/protocol.hpp"
#include "rim/svc/service.hpp"
#include "rim/svc/tcp.hpp"
#include "rim/topology/mst_topology.hpp"

/// Tests for the replica ship: the router forwards the owner's snapshot
/// bytes verbatim (byte-identical to parsing and re-dumping them), refuses
/// every other owner response shape without sending a replicate, and over
/// real sockets ships once per acked write.

namespace {

using namespace rim;

constexpr std::uint64_t kOrigin = 7;
constexpr std::uint64_t kOwnerSession = 3;

/// A backend Service with a one-thread batch pool.
svc::ServiceConfig one_thread_service() {
  svc::ServiceConfig config;
  config.batch_pool_threads = 1;
  return config;
}

/// A 2000-node session at the density of the serving benchmark.
core::Snapshot large_snapshot() {
  const geom::PointSet points =
      sim::uniform_square(2000, std::sqrt(2000.0 / 12.5), 42);
  const graph::Graph udg = graph::build_udg(points, 1.0);
  core::Scenario scenario(points, topology::mst_topology(points, udg));
  (void)scenario.interference();
  return scenario.snapshot();
}

/// What the owner's Service answers to the replicator's snapshot request.
std::string owner_response(const core::Snapshot& snapshot) {
  io::JsonObject result;
  result["snapshot"] = snapshot.to_json();
  return svc::make_ok(0, io::Json(std::move(result)));
}

/// The replicate_session request the parse -> re-dump path built from
/// \p response: the reference the forwarded bytes must equal.
std::string redumped_request(const std::string& response, std::uint64_t seq) {
  io::Json document;
  std::string error;
  EXPECT_TRUE(io::Json::parse(response, document, error)) << error;
  io::JsonObject request;
  request["cmd"] = io::Json(svc::cmd::kReplicateSession);
  request["id"] = io::Json(std::uint64_t{0});
  request["origin"] = io::Json(kOrigin);
  request["seq"] = io::Json(seq);
  request["snapshot"] = std::move(*document.find("result")->find("snapshot"));
  return io::Json(std::move(request)).dump();
}

/// A fake Exchange: "owner" answers every request with a canned response,
/// "peer" and "peer2" are real Services. Every payload sent is recorded;
/// one sent to \p unreachable is lost.
struct FakeBackends {
  std::string owner_answer;
  svc::Service peer{one_thread_service()};
  svc::Service peer2{one_thread_service()};
  std::string unreachable;
  std::vector<std::pair<std::string, std::string>> sent;

  [[nodiscard]] shard::Exchange exchange() {
    return [this](const std::string& backend, const std::string& payload,
                  std::string& response) {
      sent.emplace_back(backend, payload);
      if (backend == unreachable) return svc::TransportStatus::kConnectionLost;
      response = backend == "owner"   ? owner_answer
                 : backend == "peer2" ? peer2.handle(payload)
                                      : peer.handle(payload);
      return svc::TransportStatus::kOk;
    };
  }

  bool ship(shard::Replicator& replicator, shard::ReplicaState& state,
            const std::string& to = "peer") {
    return replicator.ship(kOrigin, "owner", kOwnerSession, to, exchange(),
                           state, 1);
  }

  /// Journal one acked add_node (a canonical request dump) and ship it.
  /// Returns the payload journaled.
  std::string write_and_ship(shard::Replicator& replicator,
                             shard::ReplicaState& state, std::uint64_t id,
                             const std::string& to = "peer") {
    io::JsonObject request;
    request["cmd"] = io::Json(svc::cmd::kAddNode);
    request["id"] = io::Json(id);
    request["session"] = io::Json(kOwnerSession);
    request["x"] = io::Json(0.125 * static_cast<double>(id));
    request["y"] = io::Json(0.5);
    std::string payload = io::Json(std::move(request)).dump();
    (void)replicator.record_mutation(state, payload, 1);
    EXPECT_TRUE(ship(replicator, state, to));
    return payload;
  }
};

/// The append request the parse -> re-dump path would build: the
/// reference the spliced bytes must equal.
std::string redumped_append(std::uint64_t base, std::uint64_t seq,
                            const std::vector<std::string>& payloads) {
  io::JsonArray journal;
  for (const std::string& payload : payloads) {
    io::Json entry;
    std::string error;
    EXPECT_TRUE(io::Json::parse(payload, entry, error)) << error;
    journal.push_back(std::move(entry));
  }
  io::JsonObject request;
  request["base"] = io::Json(base);
  request["cmd"] = io::Json(svc::cmd::kReplicateSession);
  request["id"] = io::Json(std::uint64_t{0});
  request["journal"] = io::Json(std::move(journal));
  request["origin"] = io::Json(kOrigin);
  request["seq"] = io::Json(seq);
  return io::Json(std::move(request)).dump();
}

/// True iff \p payload is a full ship's snapshot request to the owner.
bool is_snapshot_fetch(const std::pair<std::string, std::string>& sent) {
  return sent.first == "owner" &&
         sent.second.find(R"("cmd":"snapshot")") != std::string::npos;
}

/// True iff \p sent is a drop_replica of kOrigin addressed to \p backend.
bool is_drop_of_origin(const std::pair<std::string, std::string>& sent,
                       const std::string& backend) {
  return sent.first == backend &&
         sent.second == R"({"cmd":"drop_replica","id":0,"origin":7})";
}

void expect_forwarded_verbatim(const core::Snapshot& snapshot) {
  FakeBackends backends;
  backends.owner_answer = owner_response(snapshot);
  shard::Replicator replicator(shard::ReplicationPolicy{});
  shard::ReplicaState state;
  ASSERT_TRUE(backends.ship(replicator, state));
  ASSERT_EQ(backends.sent.size(), 2u);
  EXPECT_EQ(backends.sent[0].first, "owner");
  EXPECT_EQ(backends.sent[0].second,
            R"({"cmd":"snapshot","id":0,"session":3})");
  EXPECT_EQ(backends.sent[1].first, "peer");
  EXPECT_EQ(backends.sent[1].second,
            redumped_request(backends.owner_answer, 1));
  EXPECT_EQ(replicator.counters().shipped.value(), 1u);
  EXPECT_EQ(replicator.counters().ship_failures.value(), 0u);
  EXPECT_EQ(state.shipped_seq, 1u);

  // The peer verified and stored exactly the owner's state.
  svc::ReplicaStore::Replica replica;
  ASSERT_TRUE(backends.peer.replicas().take(kOrigin, replica));
  EXPECT_EQ(replica.seq, 1u);
  EXPECT_EQ(replica.checksum, snapshot.payload_checksum());
  EXPECT_EQ(replica.snapshot.to_bytes(), snapshot.to_bytes());
}

TEST(ShardReplicator, ForwardsLargeSnapshotBytesVerbatim) {
  const core::Snapshot snapshot = large_snapshot();
  ASSERT_EQ(snapshot.node_count(), 2000u);
  expect_forwarded_verbatim(snapshot);
}

TEST(ShardReplicator, ForwardsEmptySessionSnapshotVerbatim) {
  core::Scenario empty;
  expect_forwarded_verbatim(empty.snapshot());
}

TEST(ShardReplicator, RefusesEveryOtherOwnerResponseShape) {
  const std::string canonical = owner_response(large_snapshot());
  const std::string head = R"({"id":0,"ok":true,"result":{"snapshot":)";
  ASSERT_EQ(canonical.rfind(head, 0), 0u);
  const std::string value =
      canonical.substr(head.size(), canonical.size() - head.size() - 2);
  const std::string bomb = std::string(200, '[') + std::string(200, ']');
  const std::vector<std::pair<std::string, std::string>> responses = {
      {"error envelope",
       svc::make_error(0, svc::code::kNoSession, "no session 3")},
      {"trailing bytes after the value", head + value + "]}}"},
      {"trailing bytes after the envelope", canonical + "}}"},
      {"injected seq member", head + value + R"(,"seq":99}})"},
      {"truncated document", canonical.substr(0, canonical.size() / 2)},
      {"nesting-depth bomb", head + bomb + "}}"},
  };
  for (const auto& [name, response] : responses) {
    SCOPED_TRACE(name);
    FakeBackends backends;
    backends.owner_answer = response;
    shard::Replicator replicator(shard::ReplicationPolicy{});
    shard::ReplicaState state;
    (void)replicator.record_mutation(state, "first", 1);
    (void)replicator.record_mutation(state, "second", 1);
    EXPECT_FALSE(backends.ship(replicator, state));
    EXPECT_EQ(replicator.counters().ship_failures.value(), 1u);
    EXPECT_EQ(replicator.counters().shipped.value(), 0u);
    // Only the snapshot request went out: no replicate exchange.
    ASSERT_EQ(backends.sent.size(), 1u);
    EXPECT_EQ(backends.sent[0].first, "owner");
    EXPECT_EQ(backends.peer.replicas().size(), 0u);
    // The journal is kept whole and untagged, so failover replays it all.
    ASSERT_EQ(state.journal.size(), 2u);
    for (const shard::JournalEntry& entry : state.journal) {
      EXPECT_EQ(entry.ship_seq, 0u);
    }
    EXPECT_EQ(state.ship_attempt_seq, 0u);
    EXPECT_FALSE(state.has_replica);
    // The reason is kept, not dropped.
    EXPECT_EQ(replicator.last_ship_error().rfind("origin 7: snapshot: ", 0),
              0u)
        << replicator.last_ship_error();
  }
}

TEST(ShardReplicator, DepthLimitMatchesParsingTheWholeResponse) {
  // The cut-out value keeps the nesting budget it had inside the
  // envelope: exactly the responses parse() accepts are forwarded.
  const std::string head = R"({"id":0,"ok":true,"result":{"snapshot":)";
  for (const std::size_t levels : {62u, 63u, 64u, 65u}) {
    SCOPED_TRACE(levels);
    const std::string response = head + std::string(levels, '[') +
                                 std::string(levels, ']') + "}}";
    io::Json document;
    std::string error;
    const bool parses = io::Json::parse(response, document, error);
    EXPECT_EQ(parses, levels <= 63);
    FakeBackends backends;
    backends.owner_answer = response;
    shard::Replicator replicator(shard::ReplicationPolicy{});
    shard::ReplicaState state;
    (void)backends.ship(replicator, state);
    // A forwarded non-snapshot is refused by the peer, but it was sent.
    ASSERT_EQ(backends.sent.size(), parses ? 2u : 1u);
    if (parses) {
      EXPECT_EQ(backends.sent[1].second, redumped_request(response, 1));
    }
  }
}

TEST(ShardReplicator, SecondWriteShipsOneAppendAndNoSnapshot) {
  FakeBackends backends;
  backends.owner_answer = owner_response(large_snapshot());
  shard::Replicator replicator(shard::ReplicationPolicy{});
  shard::ReplicaState state;
  (void)backends.write_and_ship(replicator, state, 1);
  ASSERT_EQ(backends.sent.size(), 2u);  // snapshot + replicate
  const std::string payload = backends.write_and_ship(replicator, state, 2);
  // One exchange, with the peer: no snapshot fetched from the owner.
  ASSERT_EQ(backends.sent.size(), 3u);
  EXPECT_EQ(backends.sent[2].first, "peer");
  EXPECT_EQ(backends.sent[2].second, redumped_append(1, 2, {payload}));
  const shard::ReplicatorCounters& counters = replicator.counters();
  EXPECT_EQ(counters.shipped.value(), 2u);
  EXPECT_EQ(counters.full_ships.value(), 1u);
  EXPECT_EQ(counters.ship_failures.value(), 0u);
  EXPECT_EQ(replicator.last_ship_error(), "");
  EXPECT_EQ(state.shipped_seq, 2u);
  EXPECT_TRUE(state.journal.empty());
  EXPECT_EQ(state.tail_bytes, payload.size());
  // The peer keeps the entry's bytes after the snapshot, at the new seq.
  EXPECT_EQ(backends.peer.replicas().counters().appended.value(), 1u);
  svc::ReplicaStore::Replica replica;
  ASSERT_TRUE(backends.peer.replicas().take(kOrigin, replica));
  EXPECT_EQ(replica.seq, 2u);
  EXPECT_EQ(replica.tail, std::vector<std::string>{payload});
}

TEST(ShardReplicator, TailOutgrowingTheSnapshotForcesAFullShip) {
  // An empty session's snapshot is a few hundred bytes, so a handful of
  // appended writes outgrow it: the ship that would push the tail past
  // the snapshot's bytes starts a new log instead.
  FakeBackends backends;
  core::Scenario empty;
  backends.owner_answer = owner_response(empty.snapshot());
  shard::Replicator replicator(shard::ReplicationPolicy{});
  shard::ReplicaState state;
  (void)backends.write_and_ship(replicator, state, 1);
  const std::size_t snapshot_bytes = state.snapshot_bytes;
  ASSERT_GT(snapshot_bytes, 0u);
  std::size_t appends = 0;
  std::size_t fulls = 0;
  for (std::uint64_t id = 2; id < 40; ++id) {
    const std::size_t tail_before = state.tail_bytes;
    const std::size_t sent_before = backends.sent.size();
    const std::string payload =
        backends.write_and_ship(replicator, state, id);
    const bool fits = tail_before + payload.size() <= snapshot_bytes;
    ASSERT_EQ(backends.sent.size() - sent_before, fits ? 1u : 2u);
    EXPECT_EQ(is_snapshot_fetch(backends.sent[sent_before]), !fits);
    EXPECT_EQ(state.tail_bytes, fits ? tail_before + payload.size() : 0u);
    EXPECT_LE(state.tail_bytes, state.snapshot_bytes);
    ++(fits ? appends : fulls);
  }
  EXPECT_GT(appends, 0u);
  EXPECT_GT(fulls, 0u);
  EXPECT_EQ(replicator.counters().full_ships.value(), fulls + 1);
  EXPECT_EQ(replicator.counters().shipped.value(), appends + fulls + 1);
  EXPECT_EQ(replicator.counters().ship_failures.value(), 0u);
}

TEST(ShardReplicator, TruncatedJournalForcesAFullShip) {
  FakeBackends backends;
  backends.owner_answer = owner_response(large_snapshot());
  shard::Replicator replicator(
      shard::ReplicationPolicy{.ship_every = 1, .max_journal = 1});
  shard::ReplicaState state;
  (void)backends.write_and_ship(replicator, state, 1);
  // Two acked writes with no ship between: the journal sheds one.
  (void)replicator.record_mutation(state, R"({"cmd":"add_node"})", 1);
  (void)replicator.record_mutation(state, R"({"cmd":"add_node"})", 1);
  ASSERT_TRUE(state.truncated);
  const std::size_t sent_before = backends.sent.size();
  ASSERT_TRUE(backends.ship(replicator, state));
  ASSERT_EQ(backends.sent.size() - sent_before, 2u);
  EXPECT_TRUE(is_snapshot_fetch(backends.sent[sent_before]));
  EXPECT_FALSE(state.truncated);
  EXPECT_EQ(replicator.counters().full_ships.value(), 2u);
}

TEST(ShardReplicator, PeerChangeForcesAFullShip) {
  FakeBackends backends;
  backends.owner_answer = owner_response(large_snapshot());
  shard::Replicator replicator(shard::ReplicationPolicy{});
  shard::ReplicaState state;
  (void)backends.write_and_ship(replicator, state, 1);
  const std::size_t sent_before = backends.sent.size();
  (void)backends.write_and_ship(replicator, state, 2, "peer2");
  // Snapshot fetch, full replicate to peer2, then the stale copy's drop.
  ASSERT_EQ(backends.sent.size() - sent_before, 3u);
  EXPECT_TRUE(is_snapshot_fetch(backends.sent[sent_before]));
  EXPECT_EQ(backends.sent[sent_before + 1].first, "peer2");
  EXPECT_TRUE(is_drop_of_origin(backends.sent[sent_before + 2], "peer"));
  EXPECT_EQ(state.peer, "peer2");
  EXPECT_EQ(backends.peer2.replicas().size(), 1u);
  EXPECT_EQ(replicator.counters().full_ships.value(), 2u);
  EXPECT_EQ(replicator.counters().shipped.value(), 2u);
}

TEST(ShardReplicator, PeerChangeDropsTheOldReplica) {
  FakeBackends backends;
  backends.owner_answer = owner_response(large_snapshot());
  shard::Replicator replicator(shard::ReplicationPolicy{});
  shard::ReplicaState state;
  (void)backends.write_and_ship(replicator, state, 1, "peer");
  ASSERT_EQ(backends.peer.replicas().size(), 1u);
  (void)backends.write_and_ship(replicator, state, 2, "peer2");
  EXPECT_EQ(backends.peer.replicas().size(), 0u);
  EXPECT_EQ(backends.peer2.replicas().size(), 1u);
  EXPECT_EQ(backends.peer.replicas().counters().dropped.value(), 1u);
  EXPECT_EQ(replicator.counters().ship_failures.value(), 0u);
  EXPECT_EQ(replicator.last_ship_error(), "");
  // Shipping on to the same peer drops nothing more.
  const std::size_t sent_before = backends.sent.size();
  (void)backends.write_and_ship(replicator, state, 3, "peer2");
  for (std::size_t i = sent_before; i < backends.sent.size(); ++i) {
    EXPECT_FALSE(is_drop_of_origin(backends.sent[i], "peer"));
    EXPECT_FALSE(is_drop_of_origin(backends.sent[i], "peer2"));
  }
}

TEST(ShardReplicator, FailedDropIsNotAFailedShip) {
  // The old peer is unreachable when its stale copy is dropped: the ship
  // still succeeds, and the stale copy is named in last_ship_error.
  FakeBackends backends;
  backends.owner_answer = owner_response(large_snapshot());
  shard::Replicator replicator(shard::ReplicationPolicy{});
  shard::ReplicaState state;
  (void)backends.write_and_ship(replicator, state, 1, "peer");
  backends.unreachable = "peer";
  const std::size_t sent_before = backends.sent.size();
  (void)backends.write_and_ship(replicator, state, 2, "peer2");
  ASSERT_EQ(backends.sent.size() - sent_before, 3u);
  EXPECT_TRUE(is_drop_of_origin(backends.sent[sent_before + 2], "peer"));
  EXPECT_EQ(state.peer, "peer2");
  EXPECT_EQ(replicator.counters().shipped.value(), 2u);
  EXPECT_EQ(replicator.counters().ship_failures.value(), 0u);
  EXPECT_NE(replicator.last_ship_error().find("stale replica left on peer"),
            std::string::npos)
      << replicator.last_ship_error();
}

TEST(ShardReplicator, AdoptedReplicaIsNotDropped) {
  // restore() consumes the replica on the peer (adopt_session); the ship
  // that re-creates redundancy elsewhere must not send a drop for it.
  FakeBackends backends;
  backends.owner_answer = owner_response(large_snapshot());
  shard::Replicator replicator(shard::ReplicationPolicy{});
  shard::ReplicaState state;
  (void)backends.write_and_ship(replicator, state, 1, "peer");
  std::uint64_t promoted = 0;
  std::string error;
  ASSERT_TRUE(
      replicator.restore(kOrigin, "peer", backends.exchange(), state,
                         promoted, error))
      << error;
  EXPECT_FALSE(state.has_replica);
  const std::size_t sent_before = backends.sent.size();
  (void)backends.write_and_ship(replicator, state, 2, "peer2");
  for (std::size_t i = sent_before; i < backends.sent.size(); ++i) {
    EXPECT_EQ(backends.sent[i].second.find(svc::cmd::kDropReplica),
              std::string::npos)
        << backends.sent[i].second;
  }
  EXPECT_EQ(backends.peer.replicas().counters().dropped.value(), 0u);
  EXPECT_EQ(backends.peer2.replicas().size(), 1u);
}

TEST(ShardReplicator, RefusedAppendFallsBackToAFullShipInTheSameCall) {
  FakeBackends backends;
  backends.owner_answer = owner_response(large_snapshot());
  shard::Replicator replicator(shard::ReplicationPolicy{});
  shard::ReplicaState state;
  (void)backends.write_and_ship(replicator, state, 1);
  // A ship this router never saw acked lands at the peer (a torn replicate
  // that arrived): the peer's seq moves past the router's shipped_seq.
  svc::ReplicaStore::Replica landed;
  ASSERT_TRUE(backends.peer.replicas().take(kOrigin, landed));
  std::string error;
  ASSERT_TRUE(backends.peer.replicas().put(kOrigin, 2, landed.checksum,
                                           landed.snapshot, error))
      << error;
  state.ship_attempt_seq = 2;
  const std::size_t sent_before = backends.sent.size();
  (void)backends.write_and_ship(replicator, state, 2);
  // Append at base 1 refused, then snapshot + replicate at a fresh seq.
  ASSERT_EQ(backends.sent.size() - sent_before, 3u);
  EXPECT_EQ(backends.sent[sent_before].first, "peer");
  EXPECT_NE(backends.sent[sent_before].second.find(R"("base":1,)"),
            std::string::npos);
  EXPECT_TRUE(is_snapshot_fetch(backends.sent[sent_before + 1]));
  EXPECT_EQ(state.shipped_seq, 4u);
  const shard::ReplicatorCounters& counters = replicator.counters();
  EXPECT_EQ(counters.shipped.value(), 2u);
  EXPECT_EQ(counters.full_ships.value(), 2u);
  EXPECT_EQ(counters.ship_failures.value(), 0u);
  const std::string note = replicator.last_ship_error();
  EXPECT_EQ(note.rfind("origin 7: append refused (", 0), 0u) << note;
  EXPECT_NE(note.find("does not match the stored seq 2"), std::string::npos)
      << note;
  EXPECT_NE(note.find("fell back to a full ship"), std::string::npos) << note;
  svc::ReplicaStore::Replica replica;
  ASSERT_TRUE(backends.peer.replicas().take(kOrigin, replica));
  EXPECT_EQ(replica.seq, 4u);
  EXPECT_TRUE(replica.tail.empty());
}

TEST(ShardReplicator, EveryAckedWriteShipsOverTcp) {
  // Failover still succeeds from journal replay when every ship fails, so
  // only the counters show a broken ship path: over real sockets, each
  // acked write must ship once and none may fail.
  std::vector<std::unique_ptr<svc::Service>> services;
  std::vector<std::unique_ptr<svc::TcpServer>> servers;
  shard::RouterConfig config;
  for (int i = 0; i < 2; ++i) {
    services.push_back(std::make_unique<svc::Service>(one_thread_service()));
    servers.push_back(std::make_unique<svc::TcpServer>(
        *services.back(),
        svc::TcpServerConfig{.port = 0, .dispatch_threads = 2}));
    std::string error;
    ASSERT_TRUE(servers.back()->start(error)) << error;
    const std::uint16_t port = servers.back()->port();
    const auto connect = [port]() -> std::unique_ptr<svc::Transport> {
      auto transport = std::make_unique<svc::TcpClientTransport>();
      std::string connect_error;
      if (!transport->connect_to("127.0.0.1", port, connect_error)) {
        return nullptr;
      }
      return transport;
    };
    config.backends.push_back({"tcp-" + std::to_string(i), connect, connect});
  }
  auto router = std::make_unique<shard::Router>(std::move(config));
  ASSERT_NE(router->handle(R"({"cmd":"create_session","id":1})")
                .find("\"ok\":true"),
            std::string::npos);
  constexpr std::uint64_t kWrites = 12;
  std::uint64_t acked = 0;
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    io::JsonObject request;
    request["cmd"] = io::Json(svc::cmd::kAddNode);
    request["id"] = io::Json(i + 2);
    request["session"] = io::Json(1);
    request["x"] = io::Json(0.3 * static_cast<double>(i));
    request["y"] = io::Json(0.1 * static_cast<double>(i % 3));
    const std::string response =
        router->handle(io::Json(std::move(request)).dump());
    if (response.find("\"ok\":true") != std::string::npos) ++acked;
  }
  EXPECT_EQ(acked, kWrites);
  const shard::ReplicatorCounters& counters = router->replicator().counters();
  EXPECT_EQ(counters.shipped.value(), kWrites);
  EXPECT_EQ(counters.ship_failures.value(), 0u);
  EXPECT_EQ(services[0]->replicas().size() + services[1]->replicas().size(),
            1u);
  router.reset();
  for (auto& server : servers) server->stop();
}

}  // namespace
