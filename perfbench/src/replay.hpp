#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rim/core/scenario.hpp"
#include "workload.hpp"

/// \file replay.hpp
/// The correctness gate and the engine-layer timings.
///
/// After the timed windows, each session's logged request stream is
/// replayed in order on its twin: a bare core::Scenario with the SUT's
/// EvalOptions, seeded with the same chunks. Every answer the SUT gave is
/// compared with the twin's, and so is the final query_interference digest.
///
/// With timing on, the traced window's calls are also timed one by one
/// (core::Scenario / core::Assessor, no wire), and its batches are applied
/// a second time, one mutation at a time through Scenario::apply, on a copy
/// taken at the window's start — the serial baseline for batch speed-up.

namespace perfbench {

struct EngineSamples {
  std::vector<double> apply_batch_ms;
  std::vector<double> serial_apply_ms;  ///< the same batches through apply()
  std::vector<double> mutation_us;      ///< single mutations
  std::vector<double> query_us;         ///< interference_of
  std::vector<double> assess_us;
  // ScenarioStats deltas over the traced window, summed over sessions.
  std::uint64_t batches = 0;
  std::uint64_t batch_mutations = 0;
  std::uint64_t batch_waves = 0;
  std::uint64_t batch_disk_tasks = 0;
  std::uint64_t batch_deferred = 0;
  std::uint64_t batch_recounts = 0;
  std::uint64_t cells_touched = 0;
  std::uint64_t mutations = 0;  ///< single + batched, as sent
};

struct ReplayReport {
  std::uint64_t checked = 0;     ///< answers compared
  std::uint64_t mismatches = 0;  ///< answers (or final digests) that differ
  std::string first_mismatch;
  EngineSamples engine;
};

/// Replay every session on its twin. \p timed records EngineSamples and
/// LogEntry::engine_ns for the traced window. \p wrong_digest flips one
/// bit of the first session's expected final digest (the self-test that
/// proves the gate can fail).
[[nodiscard]] ReplayReport replay_sessions(
    std::vector<SessionState>& sessions,
    std::vector<rim::core::Scenario>& twins, std::size_t pool_threads,
    bool timed, bool wrong_digest);

}  // namespace perfbench
