#include <algorithm>
#include <cassert>
#include <cmath>

#include "rim/core/scenario.hpp"
#include "rim/core/wave_schedule.hpp"
#include "rim/parallel/thread_pool.hpp"

/// \file scenario_batch.cpp
/// Scenario::apply_batch — the parallel batch pipeline.
///
/// Semantics: identical, bit for bit, to applying the batch's mutations one
/// at a time with Scenario::apply(). The pipeline exploits that the final
/// interference vector is a pure function of the final configuration
/// (containment tests are exact and contributions are commuting integer
/// +-1s — the robustness property of the model), so intermediate states
/// never need to materialise:
///
///  1. One serial *structural pass* applies all topology/position changes
///     (adjacency, store columns, radii, grid, swap-with-last renames,
///     cached interference slots) while coalescing, per surviving physical
///     node, its pre-batch disk vs. its final disk, and collecting the
///     pre-batch disks of removed nodes. Every id it flags is also logged.
///  2. *Coalesce*: the logged ids, sorted and deduplicated, are exactly the
///     touched nodes in ascending final id — O(touched log touched), never
///     a scan of all n ids. Each yields its surviving *disk tasks* (one or
///     two region deltas per changed transmitter) and, when added or moved,
///     a recount.
///  3. The disk tasks are scheduled into waves of pairwise AABB-disjoint
///     regions — greedy first-fit in task order (wave_schedule.hpp, over
///     query radii computed once per task), so the
///     schedule is a deterministic function of the batch — each wave
///     running concurrently on the thread pool via fork_join (disjoint
///     regions mean disjoint interference_ writes, no atomics needed).
///     Without a pool, or for waves below
///     EvalOptions::batch_min_parallel_tasks, a wave runs inline on the
///     calling thread (DESIGN.md §11).
///  4. A final wave of *recount tasks* rebuilds I(v) from scratch for every
///     added or moved node (each owns its slot; everything else is frozen
///     reads), overwriting any stale deltas phase 3 wrote there.
///
/// Pipeline scratch — the pending-node table, task and recount lists, the
/// wave schedule and its execution order — lives in the scenario's batch
/// arena (common::Arena): bump-allocated per batch, reset wholesale at the
/// next one, allocation-free in steady state. The pending flags and the
/// touched-id log are Scenario-owned vectors reused across batches; the
/// flags are all clear between batches, so no batch pays to zero them.
/// Wave task lambdas capture only raw pointers into the arena (see the
/// wave-vector-scratch lint rule); bounds are exact: pending entries are
/// keyed by node id (< n0 + batch size), removed disks number at most the
/// batch size, and tasks at most removed + 2 * pending.
///
/// When the grid-occupancy estimate says the batch's regions cover more of
/// the instance than a full evaluation would (per-task over the
/// EvalOptions::touched_threshold, or in total over n), the pipeline marks
/// the cache dirty instead and the next query performs one sharded full
/// evaluation — the same fallback the serial path uses, batched.
///
/// Each stage's wall time lands in its own ScenarioStats counter
/// (batch_structural_ns, batch_coalesce_ns, batch_schedule_ns,
/// batch_waves_ns, batch_recount_ns).

namespace rim::core {

namespace {

/// Per-physical-node coalesced state, keyed by *current* id and re-keyed
/// across swap-with-last renames. Trivially destructible (arena-resident).
struct PendingNode {
  geom::Vec2 orig_pos{};
  double orig_r2 = 0.0;
  bool existed = false;  ///< present before the batch (has a disk to retire)
  bool recount = false;  ///< added or moved: final I(v) needs a recount
};

/// One coalesced region delta: remove the disk (center, old_r2) and apply
/// (center, new_r2), skipping slot `exclude`. Trivially destructible
/// (arena-resident).
struct DiskTask {
  NodeId exclude = kInvalidNode;
  geom::Vec2 center{};
  double old_r2 = 0.0;
  double new_r2 = 0.0;

  [[nodiscard]] double query_radius() const {
    return std::sqrt(std::max({old_r2, new_r2, 0.0}));
  }
};

/// Run body(k) for every k in [0, count): inline when \p pool is absent,
/// has at most one worker, or \p count is below \p min_parallel; otherwise
/// in 2 * workers chunks on a caller-joins fork_join.
template <typename Body>
void run_tasks(parallel::ThreadPool* pool, std::size_t count,
               std::size_t min_parallel, const Body& body) {
  const std::size_t workers = pool != nullptr ? pool->thread_count() : 0;
  if (workers <= 1 || count < min_parallel) {
    for (std::size_t k = 0; k < count; ++k) body(k);
    return;
  }
  const std::size_t chunks = std::min(count, workers * 2);
  const std::size_t per = (count + chunks - 1) / chunks;
  pool->fork_join(chunks, [&body, count, per](std::size_t c) {
    const std::size_t end = std::min(c * per + per, count);
    for (std::size_t k = c * per; k < end; ++k) body(k);
  });
}

}  // namespace

BatchResult Scenario::apply_batch(std::span<const Mutation> batch) {
  return apply_batch(batch, &parallel::ThreadPool::shared());
}

BatchResult Scenario::apply_batch(std::span<const Mutation> batch,
                                  parallel::ThreadPool* pool,
                                  BatchHooks* hooks) {
  BatchResult result;
  result.abort_index = batch.size();
  if (batch.empty()) return result;
  ensure_grid();
  const obs::ScopedTimer timer(stats_.batch_ns);
  ++stats_.batches;
  const bool was_dirty = dirty_;

  // All scratch below lives until the next apply_batch (or copy/assign).
  batch_arena_.reset();

  // ---- 1. Serial structural pass --------------------------------------
  // Pending state is keyed directly by node id: ids stay below
  // n0 + batch size (every add raises the ceiling by one), so a flat
  // arena table replaces a hash map. The flags live across batches (all
  // clear between them); every id flagged is logged in batch_touched_.
  const std::size_t id_cap = nodes_.size() + batch.size();
  PendingNode* pending = batch_arena_.alloc_array<PendingNode>(id_cap);
  if (batch_pending_.size() < id_cap) batch_pending_.resize(id_cap, 0);
  std::uint8_t* has_pending = batch_pending_.data();
  batch_touched_.clear();
  // Pre-batch disks of removed nodes: at most one per removal.
  DiskTask* removed_disks = batch_arena_.alloc_array<DiskTask>(batch.size());
  std::size_t removed_count = 0;
  bool rescan_max = false;

  const auto flag = [&](NodeId id, const PendingNode& state) {
    pending[id] = state;
    has_pending[id] = 1;
    batch_touched_.push_back(id);
  };
  // First touch of a node this batch captures its pre-batch disk.
  const auto note = [&](NodeId id) -> PendingNode& {
    if (has_pending[id] == 0) {
      flag(id, {nodes_.position(id), nodes_.radius2(id), true, false});
    }
    return pending[id];
  };
  const auto change_radius = [&](NodeId id, double new_r2) {
    const double cur_r2 = nodes_.radius2(id);
    if (cur_r2 == new_r2) return;
    note(id);
    if (new_r2 > max_radius2_) {
      max_radius2_ = new_r2;
    } else if (cur_r2 == max_radius2_ && new_r2 < cur_r2) {
      rescan_max = true;
    }
    set_node_radius2(id, new_r2);
  };

  {
    const obs::ScopedTimer stage(stats_.batch_structural_ns);
    for (std::size_t bi = 0; bi < batch.size(); ++bi) {
      if (hooks != nullptr && !hooks->before_mutation(bi)) {
        // Simulated crash: stop dead mid-batch. The applied prefix is
        // consistent structural state, but its region deltas never ran.
        result.aborted = true;
        result.abort_index = bi;
        break;
      }
      const Mutation& m = batch[bi];
      const std::size_t n = nodes_.size();
      switch (m.kind) {
        case Mutation::Kind::kAddNode: {
          const auto id = static_cast<NodeId>(n);
          nodes_.insert(id, m.position, 0.0);
          adjacency_.emplace_back();
          grid_.insert(id, m.position, 0.0);
          if (!was_dirty) interference_.push_back(0u);
          flag(id, {m.position, 0.0, false, true});
          ++result.applied;
          break;
        }
        case Mutation::Kind::kRemoveNode: {
          if (m.v >= n) break;
          const NodeId v = m.v;
          for (const NodeId w : adjacency_[v]) {
            auto& aw = adjacency_[w];
            aw.erase(std::find(aw.begin(), aw.end(), v));
            --edge_count_;
          }
          const std::vector<NodeId> former = std::move(adjacency_[v]);
          adjacency_[v].clear();
          change_radius(v, 0.0);
          for (const NodeId w : former) {
            change_radius(w, farthest_neighbor_squared(w));
          }
          // Retire the node's *pre-batch* disk (its only applied
          // contribution); a node added this batch never contributed.
          if (has_pending[v] != 0) {
            if (pending[v].existed && pending[v].orig_r2 > 0.0) {
              removed_disks[removed_count++] = {
                  kInvalidNode, pending[v].orig_pos, pending[v].orig_r2, 0.0};
            }
            has_pending[v] = 0;
          }
          const auto last = static_cast<NodeId>(n - 1);
          grid_.erase(v);
          nodes_.remove(v);
          if (v != last) {
            nodes_.relabel(last, v);
            adjacency_[v] = std::move(adjacency_[last]);
            for (NodeId w : adjacency_[v]) {
              std::replace(adjacency_[w].begin(), adjacency_[w].end(), last,
                           v);
            }
            grid_.relabel(last, v);
            if (has_pending[last] != 0) {
              flag(v, pending[last]);
              has_pending[last] = 0;
            }
          }
          if (!was_dirty && interference_.size() == n) {
            if (v != last) interference_[v] = interference_[last];
            interference_.pop_back();
          }
          adjacency_.pop_back();
          ++result.applied;
          break;
        }
        case Mutation::Kind::kAddEdge: {
          if (m.u >= n || m.v >= n || m.u == m.v || has_edge(m.u, m.v)) break;
          adjacency_[m.u].push_back(m.v);
          adjacency_[m.v].push_back(m.u);
          ++edge_count_;
          const double d2 =
              geom::dist2(nodes_.position(m.u), nodes_.position(m.v));
          if (d2 > nodes_.radius2(m.u)) change_radius(m.u, d2);
          if (d2 > nodes_.radius2(m.v)) change_radius(m.v, d2);
          ++result.applied;
          break;
        }
        case Mutation::Kind::kRemoveEdge: {
          if (m.u >= n || m.v >= n) break;
          auto& au = adjacency_[m.u];
          const auto it = std::find(au.begin(), au.end(), m.v);
          if (it == au.end()) break;
          au.erase(it);
          auto& av = adjacency_[m.v];
          av.erase(std::find(av.begin(), av.end(), m.u));
          --edge_count_;
          change_radius(m.u, farthest_neighbor_squared(m.u));
          change_radius(m.v, farthest_neighbor_squared(m.v));
          ++result.applied;
          break;
        }
        case Mutation::Kind::kMoveNode: {
          if (m.v >= n) break;
          if (nodes_.position(m.v) == m.position) break;  // strict no-op
          PendingNode& p = note(m.v);
          p.recount = true;
          nodes_.set_position(m.v, m.position);
          grid_.move(m.v, m.position);
          change_radius(m.v, farthest_neighbor_squared(m.v));
          for (NodeId w : adjacency_[m.v]) {
            change_radius(w, farthest_neighbor_squared(w));
          }
          ++result.applied;
          break;
        }
      }
    }
    if (rescan_max) {
      max_radius2_ = 0.0;
      for (double r2 : nodes_.radii2()) {
        max_radius2_ = std::max(max_radius2_, r2);
      }
    }
  }
  stats_.batch_mutations += result.applied;

  if (result.aborted || was_dirty) {
    // Nothing to coalesce: only restore the all-clear flag invariant.
    for (const NodeId id : batch_touched_) has_pending[id] = 0;
    if (result.aborted) {
      // Invalidate the cache so queries on the surviving prefix state stay
      // correct; recovery (Scenario::restore + replay) is the caller's job.
      dirty_ = true;
      ++stats_.batch_aborts;
    } else {
      // Cache was already invalid: the structural pass is all there is.
      result.deferred = true;
      ++stats_.batch_deferred;
    }
    return result;
  }

  // ---- 2. Coalesce the touched ids ------------------------------------
  // Sorted and deduplicated, the log holds every id flagged this batch in
  // ascending order; the live pending nodes are those still flagged and
  // inside the final id range. Every logged flag is cleared on the way.
  std::size_t live_count = 0;
  {
    const obs::ScopedTimer stage(stats_.batch_coalesce_ns);
    std::sort(batch_touched_.begin(), batch_touched_.end());
    const auto unique_end =
        std::unique(batch_touched_.begin(), batch_touched_.end());
    for (auto it = batch_touched_.begin(); it != unique_end; ++it) {
      const NodeId id = *it;
      if (has_pending[id] != 0 && id < nodes_.size()) {
        batch_touched_[live_count++] = id;
      }
      has_pending[id] = 0;
    }
  }

  // Deterministic task order: removed disks first (batch order), then
  // ascending final id. Exact bound: <= removed + 2 per live pending node.
  const std::size_t task_cap = removed_count + 2 * live_count;
  DiskTask* tasks = batch_arena_.alloc_array<DiskTask>(task_cap);
  geom::Vec2* centers = batch_arena_.alloc_array<geom::Vec2>(task_cap);
  double* query = batch_arena_.alloc_array<double>(task_cap);
  NodeId* recounts = batch_arena_.alloc_array<NodeId>(live_count);
  std::size_t task_count = 0;
  std::size_t recount_count = 0;
  bool defer = false;
  {
    const obs::ScopedTimer stage(stats_.batch_coalesce_ns);
    for (std::size_t i = 0; i < removed_count; ++i) {
      tasks[task_count++] = removed_disks[i];
    }
    for (std::size_t k = 0; k < live_count; ++k) {
      const NodeId id = batch_touched_[k];
      const PendingNode& p = pending[id];
      const geom::Vec2 new_pos = nodes_.position(id);
      const double new_r2 = nodes_.radius2(id);
      if (p.existed && p.orig_pos == new_pos) {
        // Radius-only change: one symmetric-difference delta.
        if (p.orig_r2 != new_r2) {
          tasks[task_count++] = {id, new_pos, p.orig_r2, new_r2};
        }
      } else {
        // Moved (or newly added): retire the old disk, apply the new one.
        if (p.existed && p.orig_r2 > 0.0) {
          tasks[task_count++] = {id, p.orig_pos, p.orig_r2, 0.0};
        }
        if (new_r2 > 0.0) {
          tasks[task_count++] = {id, new_pos, 0.0, new_r2};
        }
      }
      if (p.recount) recounts[recount_count++] = id;
    }
    result.disk_tasks = task_count;
    result.recounts = recount_count;
    stats_.batch_disk_tasks += task_count;
    stats_.batch_recounts += recount_count;

    // Defer when the regions rival a full evaluation. Each task's query
    // radius is computed here once, for this estimate and the schedule.
    const std::size_t threshold = options_.touched_threshold(nodes_.size());
    const double max_radius = std::sqrt(std::max(max_radius2_, 0.0));
    std::size_t estimated = 0;
    for (std::size_t i = 0; i < task_count; ++i) {
      centers[i] = tasks[i].center;
      query[i] = tasks[i].query_radius();
      const std::size_t est = grid_.estimate_in_disk(centers[i], query[i]);
      if (est > threshold) defer = true;
      estimated += est;
    }
    for (std::size_t i = 0; i < recount_count; ++i) {
      const std::size_t est =
          grid_.estimate_in_disk(nodes_.position(recounts[i]), max_radius);
      if (est > threshold) defer = true;
      estimated += est;
    }
    defer = defer || estimated > nodes_.size();
  }
  if (defer) {
    dirty_ = true;
    result.deferred = true;
    ++stats_.batch_deferred;
    ++stats_.deferred_mutations;
    return result;
  }

  // ---- 3. Schedule the disk tasks into conflict-free waves ------------
  // Greedy first-fit in task order: each task lands in the earliest wave
  // none of whose members it conflicts with. Purely a function of the
  // batch, so the schedule (and hence the execution) is deterministic.
  // A counting sort by wave then lays the waves out back to back in one
  // execution-order array, task order within each wave.
  std::uint32_t* order = batch_arena_.alloc_array<std::uint32_t>(task_count);
  std::uint32_t* wave_start = nullptr;
  std::size_t wave_count = 0;
  {
    const obs::ScopedTimer stage(stats_.batch_schedule_ns);
    std::uint32_t* wave_of = batch_arena_.alloc_array<std::uint32_t>(task_count);
    wave_count = first_fit_waves({centers, task_count}, {query, task_count},
                                 batch_arena_, {wave_of, task_count});
    wave_start = batch_arena_.alloc_array<std::uint32_t>(wave_count + 1);
    std::fill(wave_start, wave_start + wave_count + 1, 0u);
    for (std::size_t i = 0; i < task_count; ++i) ++wave_start[wave_of[i] + 1];
    for (std::size_t w = 0; w < wave_count; ++w) {
      wave_start[w + 1] += wave_start[w];
    }
    std::uint32_t* cursor = batch_arena_.alloc_array<std::uint32_t>(wave_count);
    std::copy(wave_start, wave_start + wave_count, cursor);
    for (std::size_t i = 0; i < task_count; ++i) {
      order[cursor[wave_of[i]]++] = static_cast<std::uint32_t>(i);
    }
  }
  result.waves = wave_count;
  stats_.batch_waves += wave_count;

  // ---- 4. Run the waves -----------------------------------------------
  // The commuting ±1 deltas make the final vector independent of the order
  // and interleaving, as long as no two concurrent tasks write the same
  // slot — which AABB-disjoint waves guarantee. Hooks veto individual
  // tasks (poisoned-wave faults); the veto is decided from immutable
  // state, so calling it from pool workers is safe.
  {
    const obs::ScopedTimer stage(stats_.batch_waves_ns);
    for (std::size_t w = 0; w < wave_count; ++w) {
      const std::uint32_t* wave_order = order + wave_start[w];
      const std::size_t wave_size = wave_start[w + 1] - wave_start[w];
      stats_.batch_wave_tasks.record(wave_size);
      run_tasks(pool, wave_size, options_.batch_min_parallel_tasks,
                [&](std::size_t k) {
                  const std::uint32_t t = wave_order[k];
                  if (hooks != nullptr && !hooks->before_disk_task(w, t)) {
                    ++stats_.hook_skipped_tasks;
                    return;
                  }
                  run_disk_delta(tasks[t].exclude, tasks[t].center,
                                 tasks[t].old_r2, tasks[t].new_r2);
                });
    }
  }

  // ---- 5. Recount wave ------------------------------------------------
  // Every recount owns its own interference_ slot and only reads the now
  // frozen store/grid, so the whole set is one parallel wave.
  {
    const obs::ScopedTimer stage(stats_.batch_recount_ns);
    run_tasks(pool, recount_count, options_.batch_min_parallel_tasks,
              [&](std::size_t k) {
                if (hooks != nullptr && !hooks->before_recount(k)) {
                  ++stats_.hook_skipped_tasks;
                  return;
                }
                interference_[recounts[k]] = run_recount(recounts[k]);
              });
  }
  stats_.incremental_updates += result.applied;
  return result;
}

}  // namespace rim::core
