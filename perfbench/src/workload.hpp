#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "local_trace.hpp"
#include "rim/core/scenario.hpp"
#include "rim/io/json.hpp"
#include "rim/sim/rng.hpp"
#include "rim/svc/client.hpp"
#include "rim/svc/transport.hpp"

/// \file workload.hpp
/// The three workloads, their seeded inputs, and the closed-loop clients
/// that drive them. Only this file's generators read the seed; the system
/// under test sees nothing but the generated requests.

namespace perfbench {

using rim::NodeId;

/// Request kinds. Reads: kQueryOf, kQueryAll, kAssess. Writes: kMutation,
/// kBatch.
enum class Op : std::uint8_t { kQueryOf, kQueryAll, kAssess, kMutation, kBatch };
inline constexpr std::size_t kOpCount = 5;

[[nodiscard]] inline bool is_write(Op op) {
  return op == Op::kMutation || op == Op::kBatch;
}

/// Which window a request was sent in. The log of every phase is replayed;
/// only kMeasure (untraced) and kTraced requests are reported.
enum class Phase : std::uint8_t { kWarmup, kMeasure, kTraced };

struct WorkloadSpec {
  std::string name;
  bool routed = true;  ///< through shard::Router (else straight to a Service)
  std::size_t backends = 2;
  std::size_t sessions = 32;
  std::size_t nodes = 2000;  ///< per session, at set-up
  std::size_t clients = 4;   ///< closed-loop connections
  /// Op mix in per mille, indexed by Op (ignored when alternate is set).
  std::uint32_t mix[kOpCount] = {0, 0, 0, 0, 0};
  /// bulk_churn: strictly one kBatch, then one kQueryOf.
  bool alternate = false;
  std::size_t batch_size = 16;
  std::size_t whatif_size = 4;

  [[nodiscard]] rim::io::Json to_json() const;
};

/// The named workloads; false when \p name is unknown.
[[nodiscard]] bool find_workload(const std::string& name, WorkloadSpec& out);
[[nodiscard]] std::vector<std::string> workload_names();

/// One request as the client sent it and the answer it got.
struct LogEntry {
  Op op = Op::kQueryOf;
  Phase phase = Phase::kWarmup;
  bool ok = false;
  NodeId node = 0;          ///< kQueryOf target
  std::uint32_t first = 0;  ///< first mutation in SessionState::mutations
  std::uint32_t count = 0;  ///< mutations carried (kMutation/kBatch/kAssess)
  std::uint64_t answer = 0; ///< the SUT's answer, folded (see answer_of_*)
  std::uint64_t request_id = 0;
  std::uint64_t start_ns = 0;  ///< client call start/end (end-to-end latency)
  std::uint64_t end_ns = 0;
  std::uint64_t engine_ns = 0;  ///< the same call replayed on core (traced)
};

/// One session: its seeded deployment and everything sent to it.
struct SessionState {
  /// add_node for every point, then add_edge for every EMST edge.
  std::vector<rim::core::Mutation> seed;
  /// Seed chunk ends: each chunk's apply_batch payload fits one frame.
  std::vector<std::size_t> seed_chunks;
  std::uint64_t seeded_digest = 0;  ///< expected query_interference digest
  double full_eval_ms = 0.0;        ///< first full evaluation of the twin

  std::unique_ptr<rim::bench::LocalTrace> churn;  ///< writes and what-ifs
  rim::sim::Rng rng{0};
  std::deque<rim::core::Mutation> pending;  ///< churn not yet sent
  std::size_t nodes = 0;                    ///< live node count, as acked

  std::uint64_t wire_id = 0;       ///< session id the SUT assigned
  std::uint64_t final_digest = 0;  ///< query_interference after the run
  std::vector<rim::core::Mutation> mutations;
  std::vector<LogEntry> log;
};

/// Build every session's inputs from \p seed, and its replay twin: a bare
/// core::Scenario seeded with the same chunks, whose first full evaluation
/// gives the expected set-up digest.
void make_sessions(const WorkloadSpec& spec, std::uint64_t seed,
                   std::size_t max_frame_bytes,
                   const rim::core::EvalOptions& eval,
                   std::size_t batch_pool_threads,
                   std::vector<SessionState>& sessions,
                   std::vector<rim::core::Scenario>& twins);

/// One closed-loop connection and the sessions it owns.
struct ClientConn {
  std::unique_ptr<rim::svc::Transport> transport;
  std::unique_ptr<rim::svc::Client> client;
  std::vector<SessionState*> sessions;
  rim::sim::Rng rng{0};
  std::size_t turn = 0;
  std::uint64_t failures = 0;
  std::string first_error;
};

/// Connect spec.clients clients to \p port; sessions are dealt round-robin.
[[nodiscard]] bool connect_clients(const WorkloadSpec& spec,
                                   std::uint64_t seed, std::uint16_t port,
                                   bool traced,
                                   std::vector<SessionState>& sessions,
                                   std::vector<ClientConn>& clients,
                                   std::string& error);

/// Create and seed every session over the wire, then read each back with
/// query_interference (the first full evaluation) and check its digest.
/// Clients run in parallel. Returns the wall time in seconds, or a
/// negative value with \p error on any failure.
[[nodiscard]] double seed_over_wire(std::vector<ClientConn>& clients,
                                    std::string& error);

/// A timed window: from its start to the last completed request.
struct Window {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) / 1e9;
  }
};

/// Run every client closed-loop until \p seconds have passed.
Window run_phase(const WorkloadSpec& spec, Phase phase, double seconds,
                 std::vector<ClientConn>& clients);

/// Read every session's final query_interference digest (untimed).
[[nodiscard]] bool read_final_digests(std::vector<ClientConn>& clients,
                                      std::string& error);

// --- answer folding: one 64-bit value per answer, the same on both sides --

[[nodiscard]] std::uint64_t fold(std::uint64_t hash, std::uint64_t value);
[[nodiscard]] std::uint64_t answer_of_query_all(
    std::span<const std::uint32_t> per_node, std::uint64_t max,
    std::uint64_t total);
[[nodiscard]] std::uint64_t answer_of_assessment(
    const rim::core::Assessment& assessment);

}  // namespace perfbench
