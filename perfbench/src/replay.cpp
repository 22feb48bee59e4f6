#include "replay.hpp"

#include <algorithm>
#include <optional>

#include "rim/core/assessor.hpp"
#include "rim/obs/metrics.hpp"
#include "rim/parallel/thread_pool.hpp"

namespace perfbench {

namespace {

using rim::core::Mutation;
using rim::core::Scenario;

/// The Scenario call each single-mutation command makes (svc/service.cpp),
/// folded like the client folds the wire answer.
std::uint64_t apply_single(Scenario& scenario, const Mutation& m) {
  switch (m.kind) {
    case Mutation::Kind::kAddNode:
      return scenario.add_node(m.position);
    case Mutation::Kind::kRemoveNode:
      return scenario.remove_node(m.v);
    case Mutation::Kind::kAddEdge:
      return scenario.add_edge(m.u, m.v) ? 1 : 0;
    case Mutation::Kind::kRemoveEdge:
      return scenario.remove_edge(m.u, m.v) ? 1 : 0;
    case Mutation::Kind::kMoveNode:
      scenario.move_node(m.v, m.position);
      return 0;
  }
  return 0;
}

std::uint64_t digest(Scenario& scenario) {
  const std::span<const std::uint32_t> values = scenario.interference();
  return answer_of_query_all(values, scenario.max_interference(),
                             scenario.total_interference());
}

struct StatsMark {
  std::uint64_t batches, batch_mutations, batch_waves, batch_disk_tasks,
      batch_deferred, batch_recounts, cells_touched;

  static StatsMark of(const rim::core::ScenarioStats& s) {
    return {s.batches,       s.batch_mutations, s.batch_waves,
            s.batch_disk_tasks, s.batch_deferred, s.batch_recounts,
            s.cells_touched};
  }
};

void add_delta(EngineSamples& engine, const StatsMark& from,
               const StatsMark& to) {
  engine.batches += to.batches - from.batches;
  engine.batch_mutations += to.batch_mutations - from.batch_mutations;
  engine.batch_waves += to.batch_waves - from.batch_waves;
  engine.batch_disk_tasks += to.batch_disk_tasks - from.batch_disk_tasks;
  engine.batch_deferred += to.batch_deferred - from.batch_deferred;
  engine.batch_recounts += to.batch_recounts - from.batch_recounts;
  engine.cells_touched += to.cells_touched - from.cells_touched;
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kQueryOf:
      return "query_interference_of";
    case Op::kQueryAll:
      return "query_interference";
    case Op::kAssess:
      return "assess";
    case Op::kMutation:
      return "mutation";
    case Op::kBatch:
      return "apply_batch";
  }
  return "?";
}

}  // namespace

ReplayReport replay_sessions(std::vector<SessionState>& sessions,
                             std::vector<Scenario>& twins,
                             std::size_t pool_threads, bool timed,
                             bool wrong_digest) {
  rim::parallel::ThreadPool pool(pool_threads);
  ReplayReport report;
  EngineSamples& engine = report.engine;
  const auto mismatch = [&report](const std::string& what) {
    if (report.mismatches++ == 0) report.first_mismatch = what;
  };
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    SessionState& s = sessions[i];
    Scenario& twin = twins[i];
    const bool traced_batches =
        timed && std::any_of(s.log.begin(), s.log.end(), [](const LogEntry& e) {
          return e.phase == Phase::kTraced && e.op == Op::kBatch;
        });
    std::optional<Scenario> serial;  // the per-mutation baseline twin
    std::optional<StatsMark> window_start;
    for (LogEntry& e : s.log) {
      if (!e.ok) continue;  // already counted failed; nothing was acked
      const bool traced = timed && e.phase == Phase::kTraced;
      if (traced && !window_start) {
        window_start = StatsMark::of(twin.stats());
        if (traced_batches) serial.emplace(twin);
      }
      const std::span<const Mutation> muts(s.mutations.data() + e.first,
                                           e.count);
      std::uint64_t expected = 0;
      const std::uint64_t t0 = rim::obs::now_ns();
      switch (e.op) {
        case Op::kQueryOf:
          expected = twin.interference_of(e.node);
          break;
        case Op::kQueryAll:
          expected = digest(twin);
          break;
        case Op::kAssess:
          expected = answer_of_assessment(rim::core::Assessor{}.assess(twin, muts));
          break;
        case Op::kMutation:
          expected = apply_single(twin, muts.front());
          break;
        case Op::kBatch:
          expected = twin.apply_batch(muts, &pool).applied;
          break;
      }
      const std::uint64_t elapsed = rim::obs::now_ns() - t0;
      if (traced) {
        e.engine_ns = elapsed;
        const double us = static_cast<double>(elapsed) / 1e3;
        switch (e.op) {
          case Op::kQueryOf:
            engine.query_us.push_back(us);
            break;
          case Op::kAssess:
            engine.assess_us.push_back(us);
            break;
          case Op::kMutation:
            engine.mutation_us.push_back(us);
            break;
          case Op::kBatch:
            engine.apply_batch_ms.push_back(us / 1e3);
            break;
          case Op::kQueryAll:
            break;
        }
        if (is_write(e.op)) engine.mutations += e.count;
      }
      if (serial && traced && is_write(e.op)) {
        const std::uint64_t s0 = rim::obs::now_ns();
        for (const Mutation& m : muts) (void)serial->apply(m);
        if (e.op == Op::kBatch) {
          engine.serial_apply_ms.push_back(
              static_cast<double>(rim::obs::now_ns() - s0) / 1e6);
        }
      }
      ++report.checked;
      if (expected != e.answer) {
        mismatch("session " + std::to_string(i) + " " + op_name(e.op) +
                 " request " + std::to_string(e.request_id) +
                 ": SUT answered " + std::to_string(e.answer) +
                 ", replay expects " + std::to_string(expected));
      }
    }
    if (window_start) add_delta(engine, *window_start, StatsMark::of(twin.stats()));
    std::uint64_t expected_final = digest(twin);
    if (wrong_digest && i == 0) expected_final ^= 1;
    ++report.checked;
    if (expected_final != s.final_digest) {
      mismatch("session " + std::to_string(i) +
               " final query_interference digest differs from the replay");
    }
    if (serial && digest(*serial) != digest(twin)) {
      mismatch("session " + std::to_string(i) +
               ": apply_batch and per-mutation apply replays diverged");
    }
  }
  return report;
}

}  // namespace perfbench
