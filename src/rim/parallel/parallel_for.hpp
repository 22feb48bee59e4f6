#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "rim/parallel/thread_pool.hpp"

/// \file parallel_for.hpp
/// Blocked parallel loop over an index range, in the OpenMP
/// `parallel for schedule(static)` spirit but with explicit pool ownership.
///
/// Thread-safety contract (DESIGN.md §8): these helpers hold no locks of
/// their own — they run on ThreadPool::fork_join, whose caller drains
/// blocks alongside the pool's workers and waits only for blocks already
/// claimed. They are therefore safe to call from inside a task running on
/// the same pool.

namespace rim::parallel {

/// Invoke body(i) for every i in [begin, end), split into contiguous blocks
/// of at least \p grain indices executed on \p pool. Blocks until all
/// iterations complete. body must be safe to call concurrently on disjoint
/// indices. Falls back to a serial loop for small ranges.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, const Body& body,
                  ThreadPool& pool = ThreadPool::shared(),
                  std::size_t grain = 256) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  const std::size_t workers = pool.thread_count();
  if (count <= grain || workers <= 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  const std::size_t blocks = std::min(workers * 4, (count + grain - 1) / grain);
  const std::size_t block_size = (count + blocks - 1) / blocks;
  pool.fork_join(blocks, [begin, end, block_size, &body](std::size_t b) {
    const std::size_t lo = begin + b * block_size;
    const std::size_t hi = std::min(end, lo + block_size);
    for (std::size_t i = lo; i < hi; ++i) body(i);
  });
}

/// Parallel map-reduce: reduce(body(i)) over [begin, end) with a
/// deterministic block-ordered combine (the per-block partials are combined
/// in block order, so floating-point reductions are reproducible run to run).
template <typename T, typename Body, typename Combine>
[[nodiscard]] T parallel_reduce(std::size_t begin, std::size_t end, T init,
                                const Body& body, const Combine& combine,
                                ThreadPool& pool = ThreadPool::shared(),
                                std::size_t grain = 256) {
  if (begin >= end) return init;
  const std::size_t count = end - begin;
  const std::size_t workers = pool.thread_count();
  if (count <= grain || workers <= 1) {
    T acc = init;
    for (std::size_t i = begin; i < end; ++i) acc = combine(acc, body(i));
    return acc;
  }
  const std::size_t blocks = std::min(workers * 4, (count + grain - 1) / grain);
  const std::size_t block_size = (count + blocks - 1) / blocks;
  std::vector<T> partial(blocks, init);
  pool.fork_join(blocks, [&](std::size_t b) {
    const std::size_t lo = begin + b * block_size;
    const std::size_t hi = std::min(end, lo + block_size);
    T acc = init;
    for (std::size_t i = lo; i < hi; ++i) acc = combine(acc, body(i));
    partial[b] = acc;
  });
  T acc = init;
  for (const T& p : partial) acc = combine(acc, p);
  return acc;
}

}  // namespace rim::parallel
