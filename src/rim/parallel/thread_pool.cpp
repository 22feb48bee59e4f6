#include "rim/parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

namespace rim::parallel {

using common::MutexLock;

/// Reference-counted by the caller and every helper it woke, so a helper
/// that runs after the call returned still reads valid counters: it claims
/// an index past `chunks` and leaves without touching `context`.
struct ThreadPool::ForkJoin {
  ForkJoin(std::size_t chunk_count, ChunkFn fn, const void* fn_context)
      : chunks(chunk_count), invoke(fn), context(fn_context) {}

  /// Claim and run chunks until none is left.
  void drain() RIM_EXCLUDES(mutex) {
    while (true) {
      const std::size_t chunk = next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= chunks) return;
      invoke(context, chunk);
      // acq_rel: the caller's acquire of the final count sees every
      // chunk's writes.
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
        MutexLock lock(mutex);
        finished = true;
        all_done.notify_all();
      }
    }
  }

  const std::size_t chunks;
  const ChunkFn invoke;
  const void* const context;
  std::atomic<std::size_t> next{0};  ///< next unclaimed chunk
  std::atomic<std::size_t> done{0};  ///< chunks finished
  common::Mutex mutex;
  std::condition_variable all_done;
  bool finished RIM_GUARDED_BY(mutex) = false;
};

ThreadPool::ThreadPool(std::size_t thread_count) {
  if (thread_count == 0) {
    thread_count = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(thread_count);
  for (std::size_t i = 0; i < thread_count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  MutexLock lock(mutex_);
  // Explicit re-check loop (not a wait-predicate lambda): the thread-safety
  // analysis treats a lambda as a separate unlocked function, but sees the
  // capability held across this wait (mutex.hpp).
  while (in_flight_ != 0) idle_.wait(lock.native());
}

void ThreadPool::fork_join_erased(std::size_t chunks, ChunkFn invoke,
                                  const void* context) {
  if (chunks == 0) return;
  const std::size_t helpers = std::min(workers_.size(), chunks - 1);
  if (helpers == 0) {
    for (std::size_t c = 0; c < chunks; ++c) invoke(context, c);
    return;
  }
  const auto state = std::make_shared<ForkJoin>(chunks, invoke, context);
  {
    MutexLock lock(mutex_);
    for (std::size_t h = 0; h < helpers; ++h) {
      queue_.push([state] { state->drain(); });
    }
    in_flight_ += helpers;
  }
  if (helpers == workers_.size()) {
    work_available_.notify_all();
  } else {
    for (std::size_t h = 0; h < helpers; ++h) work_available_.notify_one();
  }
  ForkJoin& join = *state;
  join.drain();
  // Every chunk is claimed now; wait only for the ones still running.
  if (join.done.load(std::memory_order_acquire) == chunks) return;
  MutexLock lock(join.mutex);
  while (!join.finished) join.all_done.wait(lock.native());
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) work_available_.wait(lock.native());
      if (queue_.empty()) return;  // stopping_ with drained queue
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      MutexLock lock(mutex_);
      if (--in_flight_ == 0) idle_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace rim::parallel
