#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <thread>

#include "rim/graph/udg.hpp"
#include "rim/obs/metrics.hpp"
#include "rim/parallel/thread_pool.hpp"
#include "rim/sim/generators.hpp"
#include "rim/svc/protocol.hpp"
#include "rim/svc/tcp.hpp"
#include "rim/topology/mst_topology.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using rim::core::Mutation;

/// Constant density with the UDG radius 1 and an EMST topology — the E19
/// deployment family, so disks stay local as sessions grow.
constexpr double kDensity = 12.5;

/// Independent per-purpose streams from one workload seed (splitmix64).
std::uint64_t derive(std::uint64_t seed, std::uint64_t index,
                     std::uint64_t purpose) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (index * 8 + purpose + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Seed chunk ends such that every apply_batch payload stays a margin below
/// the frame cap.
std::vector<std::size_t> chunk_seed(const std::vector<Mutation>& seed,
                                    std::size_t max_frame_bytes) {
  const std::size_t budget = max_frame_bytes - 4096;
  std::vector<std::size_t> ends;
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < seed.size(); ++i) {
    const std::size_t size = rim::svc::mutation_to_json(seed[i]).dump().size() + 1;
    if (bytes + size > budget) {
      ends.push_back(i);
      bytes = 0;
    }
    bytes += size;
  }
  ends.push_back(seed.size());
  return ends;
}

std::uint64_t answer_of_query_json(const rim::io::Json& result, bool& ok) {
  const rim::io::Json* per_node = result.find("per_node");
  const rim::io::Json* max = result.find("max");
  const rim::io::Json* total = result.find("total");
  if (per_node == nullptr || per_node->as_array() == nullptr ||
      max == nullptr || total == nullptr) {
    ok = false;
    return 0;
  }
  std::vector<std::uint32_t> values;
  values.reserve(per_node->as_array()->size());
  for (const rim::io::Json& value : *per_node->as_array()) {
    values.push_back(static_cast<std::uint32_t>(value.as_number()));
  }
  return answer_of_query_all(values,
                             static_cast<std::uint64_t>(max->as_number()),
                             static_cast<std::uint64_t>(total->as_number()));
}

std::uint64_t answer_of_assess_json(const rim::io::Json& result, bool& ok) {
  const rim::io::Json* affected = result.find("affected_ids");
  const rim::io::Json* deltas = result.find("delta_per_node");
  if (affected == nullptr || affected->as_array() == nullptr ||
      deltas == nullptr || deltas->as_array() == nullptr) {
    ok = false;
    return 0;
  }
  const auto number = [&result](const char* key) {
    const rim::io::Json* field = result.find(key);
    return field == nullptr ? 0 : static_cast<std::uint64_t>(field->as_number());
  };
  std::uint64_t hash = fold(0, number("max_before"));
  hash = fold(hash, number("max_after"));
  hash = fold(hash, number("newcomer_interference"));
  for (const rim::io::Json& v : *affected->as_array()) {
    hash = fold(hash, static_cast<std::uint64_t>(v.as_number()));
  }
  for (const rim::io::Json& d : *deltas->as_array()) {
    hash = fold(hash, static_cast<std::uint64_t>(
                          static_cast<std::int64_t>(d.as_number())));
  }
  return hash;
}

void refill(SessionState& session, std::size_t needed, std::size_t chunk) {
  while (session.pending.size() < needed) {
    const std::vector<Mutation> more = session.churn->next_batch(chunk);
    session.pending.insert(session.pending.end(), more.begin(), more.end());
  }
}

/// Send one mutation with its own wire command; yields the folded answer.
bool send_single(rim::svc::Client& client, std::uint64_t session,
                 const Mutation& m, std::uint64_t& answer) {
  switch (m.kind) {
    case Mutation::Kind::kAddNode: {
      const auto r = client.try_add_node(session, m.position.x, m.position.y);
      if (r) answer = *r;
      return r.has_value();
    }
    case Mutation::Kind::kRemoveNode: {
      const auto r = client.try_remove_node(session, m.v);
      if (r) answer = *r;
      return r.has_value();
    }
    case Mutation::Kind::kAddEdge: {
      const auto r = client.try_add_edge(session, m.u, m.v);
      if (r) answer = *r ? 1 : 0;
      return r.has_value();
    }
    case Mutation::Kind::kRemoveEdge: {
      const auto r = client.try_remove_edge(session, m.u, m.v);
      if (r) answer = *r ? 1 : 0;
      return r.has_value();
    }
    case Mutation::Kind::kMoveNode: {
      answer = 0;
      return client.try_move_node(session, m.v, m.position.x, m.position.y)
          .has_value();
    }
  }
  return false;
}

void track_nodes(SessionState& session, std::span<const Mutation> applied) {
  for (const Mutation& m : applied) {
    if (m.kind == Mutation::Kind::kAddNode) ++session.nodes;
    if (m.kind == Mutation::Kind::kRemoveNode) --session.nodes;
  }
}

Op pick_op(const WorkloadSpec& spec, ClientConn& conn) {
  if (spec.alternate) return conn.turn % 2 == 0 ? Op::kBatch : Op::kQueryOf;
  std::uint64_t r = conn.rng.next_below(1000);
  for (std::size_t op = 0; op < kOpCount; ++op) {
    if (r < spec.mix[op]) return static_cast<Op>(op);
    r -= spec.mix[op];
  }
  return Op::kQueryOf;
}

/// One closed-loop request: generate, send, wait, log.
void step(const WorkloadSpec& spec, Phase phase, ClientConn& conn) {
  const Op op = pick_op(spec, conn);
  SessionState& s = *conn.sessions[(conn.turn / (spec.alternate ? 2 : 1)) %
                                   conn.sessions.size()];
  ++conn.turn;
  rim::svc::Client& client = *conn.client;
  LogEntry e;
  e.op = op;
  e.phase = phase;
  e.first = static_cast<std::uint32_t>(s.mutations.size());
  switch (op) {
    case Op::kQueryOf: {
      e.node = static_cast<NodeId>(s.rng.next_below(s.nodes));
      e.start_ns = rim::obs::now_ns();
      const auto r = client.try_query_interference_of(s.wire_id, e.node);
      e.end_ns = rim::obs::now_ns();
      e.ok = r.has_value();
      if (e.ok) e.answer = *r;
      break;
    }
    case Op::kQueryAll: {
      e.start_ns = rim::obs::now_ns();
      const auto r = client.try_query_interference(s.wire_id);
      e.end_ns = rim::obs::now_ns();
      e.ok = r.has_value();
      if (e.ok) e.answer = answer_of_query_json(*r, e.ok);
      break;
    }
    case Op::kAssess: {
      // What-ifs are drawn from the session's churn generator but never
      // applied, so its position model drifts from the session's; the
      // mutations stay local and in range, which is all a what-if needs.
      const std::vector<Mutation> whatif =
          s.churn->next_batch(spec.whatif_size);
      s.mutations.insert(s.mutations.end(), whatif.begin(), whatif.end());
      e.count = static_cast<std::uint32_t>(whatif.size());
      e.start_ns = rim::obs::now_ns();
      const auto r = client.try_assess(s.wire_id, whatif);
      e.end_ns = rim::obs::now_ns();
      e.ok = r.has_value();
      if (e.ok) e.answer = answer_of_assess_json(*r, e.ok);
      break;
    }
    case Op::kMutation: {
      refill(s, 1, 64);
      s.mutations.push_back(s.pending.front());
      s.pending.pop_front();
      e.count = 1;
      e.start_ns = rim::obs::now_ns();
      e.ok = send_single(client, s.wire_id, s.mutations.back(), e.answer);
      e.end_ns = rim::obs::now_ns();
      break;
    }
    case Op::kBatch: {
      refill(s, spec.batch_size, std::max<std::size_t>(spec.batch_size, 64));
      const auto end = s.pending.begin() +
                       static_cast<std::ptrdiff_t>(spec.batch_size);
      s.mutations.insert(s.mutations.end(), s.pending.begin(), end);
      s.pending.erase(s.pending.begin(), end);
      e.count = static_cast<std::uint32_t>(spec.batch_size);
      const std::span<const Mutation> batch(s.mutations.data() + e.first,
                                            e.count);
      e.start_ns = rim::obs::now_ns();
      const auto r = client.try_apply_batch(s.wire_id, batch);
      e.end_ns = rim::obs::now_ns();
      e.ok = r.has_value();
      if (e.ok) e.answer = r->applied;
      break;
    }
  }
  e.request_id = client.last_request_id();
  if (!e.ok) {
    if (conn.failures++ == 0) {
      conn.first_error = std::string(client.error_code()) + ": " + client.error();
    }
  } else if (is_write(op)) {
    track_nodes(s, std::span<const Mutation>(s.mutations.data() + e.first,
                                             e.count));
  }
  s.log.push_back(e);
}

/// Run \p body(client) on one thread per client and join them all.
template <typename Body>
void for_each_client(std::vector<ClientConn>& clients, Body body) {
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (ClientConn& conn : clients) {
    threads.emplace_back([&conn, &body] {
      try {
        body(conn);
      } catch (const std::exception& ex) {
        if (conn.failures++ == 0) conn.first_error = ex.what();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

}  // namespace

std::uint64_t fold(std::uint64_t hash, std::uint64_t value) {
  // FNV-1a over the value's little-endian bytes, continuing \p hash (0
  // starts a fresh digest).
  if (hash == 0) hash = 0xCBF29CE484222325ULL;
  for (int shift = 0; shift < 64; shift += 8) {
    hash ^= (value >> shift) & 0xFFU;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

std::uint64_t answer_of_query_all(std::span<const std::uint32_t> per_node,
                                  std::uint64_t max, std::uint64_t total) {
  return fold(fold(rim::bench::fnv1a_interference(per_node), max), total);
}

std::uint64_t answer_of_assessment(const rim::core::Assessment& assessment) {
  std::uint64_t hash = fold(0, assessment.max_before);
  hash = fold(hash, assessment.max_after);
  hash = fold(hash, assessment.newcomer_interference);
  for (const NodeId v : assessment.affected_ids) hash = fold(hash, v);
  for (const std::int64_t d : assessment.delta_per_node) {
    hash = fold(hash, static_cast<std::uint64_t>(d));
  }
  return hash;
}

rim::io::Json WorkloadSpec::to_json() const {
  static const char* const kOpNames[kOpCount] = {
      "query_interference_of", "query_interference", "assess", "mutation",
      "apply_batch"};
  rim::io::JsonObject object;
  object["name"] = rim::io::Json(name);
  object["stack"] = rim::io::Json(
      routed ? "tcp client -> TcpServer -> shard::Router -> TcpServer -> "
               "svc::Service -> core::Scenario"
             : "tcp client -> TcpServer -> svc::Service -> core::Scenario");
  object["backends"] = rim::io::Json(routed ? backends : 1);
  object["sessions"] = rim::io::Json(sessions);
  object["nodes_per_session"] = rim::io::Json(nodes);
  object["clients"] = rim::io::Json(clients);
  object["loop"] = rim::io::Json("closed");
  rim::io::JsonObject mix_json;
  if (alternate) {
    mix_json["apply_batch"] = rim::io::Json(500);
    mix_json["query_interference_of"] = rim::io::Json(500);
  } else {
    for (std::size_t op = 0; op < kOpCount; ++op) {
      if (mix[op] != 0) mix_json[kOpNames[op]] = rim::io::Json(mix[op]);
    }
  }
  object["mix_per_mille"] = rim::io::Json(std::move(mix_json));
  object["batch_size"] = rim::io::Json(batch_size);
  object["whatif_size"] = rim::io::Json(whatif_size);
  return rim::io::Json(std::move(object));
}

bool find_workload(const std::string& name, WorkloadSpec& out) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "routed_reads") {
    spec.mix[static_cast<std::size_t>(Op::kQueryOf)] = 800;
    spec.mix[static_cast<std::size_t>(Op::kQueryAll)] = 100;
    spec.mix[static_cast<std::size_t>(Op::kAssess)] = 100;
  } else if (name == "routed_writes") {
    spec.mix[static_cast<std::size_t>(Op::kMutation)] = 700;
    spec.mix[static_cast<std::size_t>(Op::kBatch)] = 100;
    spec.mix[static_cast<std::size_t>(Op::kQueryOf)] = 200;
  } else if (name == "bulk_churn") {
    spec.routed = false;
    spec.backends = 1;
    spec.sessions = 1;
    spec.nodes = 100000;
    spec.clients = 1;
    spec.alternate = true;
    spec.batch_size = 256;
  } else {
    return false;
  }
  out = spec;
  return true;
}

std::vector<std::string> workload_names() {
  return {"routed_reads", "routed_writes", "bulk_churn"};
}

void make_sessions(const WorkloadSpec& spec, std::uint64_t seed,
                   std::size_t max_frame_bytes,
                   const rim::core::EvalOptions& eval,
                   std::size_t batch_pool_threads,
                   std::vector<SessionState>& sessions,
                   std::vector<rim::core::Scenario>& twins) {
  rim::parallel::ThreadPool pool(batch_pool_threads);
  const double side = std::sqrt(static_cast<double>(spec.nodes) / kDensity);
  sessions = std::vector<SessionState>(spec.sessions);
  twins.clear();
  for (std::size_t i = 0; i < spec.sessions; ++i) {
    SessionState& s = sessions[i];
    const rim::geom::PointSet points =
        rim::sim::uniform_square(spec.nodes, side, derive(seed, i, 1));
    const rim::graph::Graph emst = rim::topology::mst_topology(
        points, rim::graph::build_udg(points, 1.0));
    s.seed.reserve(points.size() + emst.edges().size());
    for (const rim::geom::Vec2& p : points) s.seed.push_back(Mutation::add_node(p));
    for (const rim::graph::Edge& edge : emst.edges()) {
      s.seed.push_back(Mutation::add_edge(edge.u, edge.v));
    }
    s.seed_chunks = chunk_seed(s.seed, max_frame_bytes);
    s.churn = std::make_unique<rim::bench::LocalTrace>(points, side,
                                                       derive(seed, i, 2));
    s.rng = rim::sim::Rng(derive(seed, i, 3));
    s.nodes = points.size();

    rim::core::Scenario& twin = twins.emplace_back(eval);
    std::size_t begin = 0;
    for (const std::size_t end : s.seed_chunks) {
      (void)twin.apply_batch(
          std::span<const Mutation>(s.seed.data() + begin, end - begin), &pool);
      begin = end;
    }
    const std::uint64_t t0 = rim::obs::now_ns();
    const std::span<const std::uint32_t> values = twin.interference();
    s.full_eval_ms = static_cast<double>(rim::obs::now_ns() - t0) / 1e6;
    s.seeded_digest = answer_of_query_all(values, twin.max_interference(),
                                          twin.total_interference());
  }
}

bool connect_clients(const WorkloadSpec& spec, std::uint64_t seed,
                     std::uint16_t port, bool traced,
                     std::vector<SessionState>& sessions,
                     std::vector<ClientConn>& clients, std::string& error) {
  clients = std::vector<ClientConn>(spec.clients);
  for (std::size_t c = 0; c < clients.size(); ++c) {
    auto tcp = std::make_unique<rim::svc::TcpClientTransport>();
    if (!tcp->connect_to("127.0.0.1", port, error)) return false;
    ClientConn& conn = clients[c];
    if (traced) {
      conn.transport =
          std::make_unique<TracedTransport>(std::move(tcp), Layer::kClient, 0);
    } else {
      conn.transport = std::move(tcp);
    }
    conn.client = std::make_unique<rim::svc::Client>(*conn.transport);
    conn.rng = rim::sim::Rng(derive(seed, c, 4));
  }
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    clients[i % clients.size()].sessions.push_back(&sessions[i]);
  }
  return true;
}

double seed_over_wire(std::vector<ClientConn>& clients, std::string& error) {
  const std::uint64_t t0 = rim::obs::now_ns();
  for_each_client(clients, [](ClientConn& conn) {
    rim::svc::Client& client = *conn.client;
    for (SessionState* s : conn.sessions) {
      const auto created = client.try_create_session();
      if (!created) {
        if (conn.failures++ == 0) conn.first_error = "create_session refused";
        return;
      }
      s->wire_id = *created;
      std::size_t begin = 0;
      for (const std::size_t end : s->seed_chunks) {
        const auto r = client.try_apply_batch(
            s->wire_id, std::span<const Mutation>(s->seed.data() + begin,
                                                  end - begin));
        if (!r || r->applied != end - begin) {
          if (conn.failures++ == 0) conn.first_error = "seed batch refused";
          return;
        }
        begin = end;
      }
      const auto seeded = client.try_query_interference(s->wire_id);
      bool ok = seeded.has_value();
      const std::uint64_t digest = ok ? answer_of_query_json(*seeded, ok) : 0;
      if (!ok || digest != s->seeded_digest) {
        if (conn.failures++ == 0) conn.first_error = "set-up digest mismatch";
        return;
      }
    }
  });
  const double seconds = static_cast<double>(rim::obs::now_ns() - t0) / 1e9;
  for (const ClientConn& conn : clients) {
    if (conn.failures != 0) {
      error = conn.first_error + " (" + conn.client->error() + ")";
      return -1.0;
    }
  }
  return seconds;
}

Window run_phase(const WorkloadSpec& spec, Phase phase, double seconds,
                 std::vector<ClientConn>& clients) {
  const std::uint64_t start = rim::obs::now_ns();
  const std::uint64_t deadline =
      start + static_cast<std::uint64_t>(seconds * 1e9);
  for_each_client(clients, [&spec, phase, deadline](ClientConn& conn) {
    while (conn.failures == 0 && rim::obs::now_ns() < deadline) {
      step(spec, phase, conn);
    }
  });
  Window window{start, start};
  for (const ClientConn& conn : clients) {
    for (const SessionState* s : conn.sessions) {
      if (!s->log.empty()) {
        window.end_ns = std::max(window.end_ns, s->log.back().end_ns);
      }
    }
  }
  return window;
}

bool read_final_digests(std::vector<ClientConn>& clients, std::string& error) {
  for (ClientConn& conn : clients) {
    for (SessionState* s : conn.sessions) {
      const auto r = conn.client->try_query_interference(s->wire_id);
      bool ok = r.has_value();
      if (ok) s->final_digest = answer_of_query_json(*r, ok);
      if (!ok) {
        error = "final query_interference failed: " + conn.client->error();
        return false;
      }
    }
  }
  return true;
}

}  // namespace perfbench
