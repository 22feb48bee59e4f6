#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "rim/common/mutex.hpp"
#include "rim/common/thread_annotations.hpp"

/// \file thread_pool.hpp
/// A small fixed-size worker pool.
///
/// Per the HPC guides: parallelism is explicit — callers decide what runs in
/// parallel; the pool only executes. RAII owns the workers: destruction
/// drains the queue and joins every thread, so no thread ever outlives the
/// pool object.
///
/// Two ways in. fork_join() is the compute path: a caller-joins fork-join
/// over a fixed number of chunks whose cost is bounded by the call's own
/// work — the caller drains chunks itself, so it never waits for sleeping
/// workers or for other callers' tasks, and it may be called from inside
/// a pool task. submit()/wait_idle() remain for fire-and-forget work whose
/// owner drains the whole pool (the TCP dispatch pool, WorkloadDriver).
///
/// All mutable pool state is guarded by `mutex_` and statically checked by
/// clang's thread-safety analysis (DESIGN.md §8): `queue_`, `in_flight_` and
/// `stopping_` carry RIM_GUARDED_BY, and the public entry points are
/// RIM_EXCLUDES(mutex_) — submitting from inside a task that somehow holds
/// the pool lock is a compile error under `-Werror=thread-safety-analysis`.

namespace rim::parallel {

class ThreadPool {
 public:
  /// Start \p thread_count workers (hardware concurrency when 0).
  explicit ThreadPool(std::size_t thread_count = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Waits for all pending work, then joins.
  ~ThreadPool();

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

  /// Enqueue a task. Tasks must not throw (the pool std::terminates on
  /// escaping exceptions, matching the no-exceptions-in-kernels policy).
  void submit(std::function<void()> task) RIM_EXCLUDES(mutex_);

  /// Block until every submitted task has finished — including tasks other
  /// callers submitted. Never call it from a task on this pool.
  void wait_idle() RIM_EXCLUDES(mutex_);

  /// Run fn(c) exactly once for every chunk c in [0, chunks) and return
  /// when all of them have finished. Chunks are claimed from an atomic
  /// counter; the calling thread drains chunks too, and at most
  /// min(workers, chunks - 1) helpers are woken. The call returns as soon
  /// as every claimed chunk is done: it never waits for a helper that has
  /// not woken yet (such a helper later finds no chunk left and touches
  /// nothing of the caller's), so it is safe from inside a pool task.
  /// fn must be safe to call concurrently on distinct chunks and must not
  /// throw.
  template <typename Fn>
  void fork_join(std::size_t chunks, const Fn& fn) RIM_EXCLUDES(mutex_) {
    fork_join_erased(
        chunks,
        [](const void* context, std::size_t chunk) {
          (*static_cast<const Fn*>(context))(chunk);
        },
        &fn);
  }

  /// Process-wide shared pool (lazily constructed, sized to the hardware).
  static ThreadPool& shared();

 private:
  /// One fork_join call's shared state (thread_pool.cpp).
  struct ForkJoin;
  using ChunkFn = void (*)(const void* context, std::size_t chunk);

  void fork_join_erased(std::size_t chunks, ChunkFn invoke,
                        const void* context) RIM_EXCLUDES(mutex_);
  void worker_loop() RIM_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  common::Mutex mutex_;
  std::queue<std::function<void()>> queue_ RIM_GUARDED_BY(mutex_);
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::size_t in_flight_ RIM_GUARDED_BY(mutex_) = 0;
  bool stopping_ RIM_GUARDED_BY(mutex_) = false;
};

}  // namespace rim::parallel
