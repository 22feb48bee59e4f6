#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <numeric>
#include <thread>
#include <vector>

#include "rim/parallel/parallel_for.hpp"
#include "rim/parallel/thread_pool.hpp"
#include "rim/sim/rng.hpp"

namespace rim::parallel {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor joins
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ThreadCountMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
}

TEST(ThreadPool, SharedPoolIsUsable) {
  std::atomic<int> counter{0};
  ThreadPool::shared().submit([&counter] { counter.fetch_add(1); });
  ThreadPool::shared().wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(10000);
  parallel_for(0, touched.size(),
               [&](std::size_t i) { touched[i].fetch_add(1); }, pool, 64);
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ParallelFor, EmptyAndSingleRanges) {
  ThreadPool pool(2);
  int count = 0;
  parallel_for(5, 5, [&](std::size_t) { ++count; }, pool);
  EXPECT_EQ(count, 0);
  parallel_for(7, 8, [&](std::size_t i) { EXPECT_EQ(i, 7u); ++count; }, pool);
  EXPECT_EQ(count, 1);
}

TEST(ParallelFor, OffsetRange) {
  ThreadPool pool(4);
  std::atomic<std::size_t> sum{0};
  parallel_for(100, 200, [&](std::size_t i) { sum.fetch_add(i); }, pool, 8);
  EXPECT_EQ(sum.load(), (100u + 199u) * 100u / 2u);
}

TEST(ParallelReduce, SumMatchesSerial) {
  ThreadPool pool(4);
  const std::size_t n = 100000;
  const auto sum = parallel_reduce<std::uint64_t>(
      0, n, 0ull, [](std::size_t i) { return static_cast<std::uint64_t>(i); },
      [](std::uint64_t a, std::uint64_t b) { return a + b; }, pool, 128);
  EXPECT_EQ(sum, static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

TEST(ParallelReduce, MaxReduction) {
  ThreadPool pool(3);
  std::vector<double> values(5000);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>((i * 7919) % 4999);
  }
  const double expected = *std::max_element(values.begin(), values.end());
  const double got = parallel_reduce<double>(
      0, values.size(), 0.0, [&](std::size_t i) { return values[i]; },
      [](double a, double b) { return a > b ? a : b; }, pool, 100);
  EXPECT_DOUBLE_EQ(got, expected);
}

TEST(ParallelReduce, DeterministicAcrossRuns) {
  ThreadPool pool(8);
  const auto run = [&] {
    return parallel_reduce<double>(
        0, 50000, 0.0,
        [](std::size_t i) { return 1.0 / (1.0 + static_cast<double>(i)); },
        [](double a, double b) { return a + b; }, pool, 64);
  };
  const double first = run();
  for (int trial = 0; trial < 5; ++trial) {
    EXPECT_EQ(run(), first);  // bitwise equal: block-ordered combine
  }
}

TEST(ParallelReduce, EmptyRangeReturnsInit) {
  ThreadPool pool(2);
  const int result = parallel_reduce<int>(
      3, 3, 42, [](std::size_t) { return 0; },
      [](int a, int b) { return a + b; }, pool);
  EXPECT_EQ(result, 42);
}

TEST(ForkJoin, EveryChunkRunsExactlyOnce) {
  ThreadPool pool(4);
  sim::Rng rng(0xf0f0u);
  for (int call = 0; call < 300; ++call) {
    const std::size_t chunks = rng.next_below(70);
    std::vector<std::atomic<int>> runs(chunks);
    pool.fork_join(chunks, [&runs](std::size_t c) {
      runs[c].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t c = 0; c < chunks; ++c) {
      ASSERT_EQ(runs[c].load(), 1) << "call " << call << ", chunk " << c;
    }
  }
}

TEST(ForkJoin, ReturnsWhileEveryWorkerIsParked) {
  // Every worker blocks on a latch that is released only after fork_join
  // returns: the caller must drain all chunks itself and never wait for
  // the helpers it woke.
  constexpr std::size_t kWorkers = 3;
  ThreadPool pool(kWorkers);
  std::latch parked(kWorkers);
  std::latch release(1);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    pool.submit([&parked, &release] {
      parked.count_down();
      release.wait();
    });
  }
  parked.wait();
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> runs(16);
  std::atomic<int> on_caller{0};
  pool.fork_join(runs.size(), [&](std::size_t c) {
    runs[c].fetch_add(1, std::memory_order_relaxed);
    if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
  });
  EXPECT_EQ(on_caller.load(), 16);
  release.count_down();
  pool.wait_idle();  // the late helpers find nothing left to run
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
}

TEST(ForkJoin, NestedCallFromAPoolTaskReturns) {
  ThreadPool pool(2);
  std::atomic<int> inner{0};
  // From inside a pool task, and nested inside another fork_join's chunk.
  pool.submit([&pool, &inner] {
    pool.fork_join(4, [&pool, &inner](std::size_t) {
      pool.fork_join(3, [&inner](std::size_t) { inner.fetch_add(1); });
    });
  });
  pool.wait_idle();
  EXPECT_EQ(inner.load(), 12);
  // parallel_for from a pool task used to deadlock in wait_idle().
  std::vector<std::atomic<int>> touched(4096);
  pool.submit([&pool, &touched] {
    parallel_for(0, touched.size(),
                 [&touched](std::size_t i) { touched[i].fetch_add(1); }, pool,
                 64);
  });
  pool.wait_idle();
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ParallelReduce, BitIdenticalToTheBlockOrderedSerialCombine) {
  // The reduction's bits are fixed by its block partition: per-block
  // partials summed left to right, then combined in block order.
  ThreadPool pool(4);
  const std::size_t n = 30011;
  const std::size_t grain = 97;
  const auto body = [](std::size_t i) {
    return 1.0 / (3.0 + static_cast<double>(i)) -
           1.0 / (7.0 + static_cast<double>(i * i % 101));
  };
  const auto add = [](double a, double b) { return a + b; };
  const std::size_t blocks =
      std::min(pool.thread_count() * 4, (n + grain - 1) / grain);
  const std::size_t block_size = (n + blocks - 1) / blocks;
  double expected = 0.0;
  for (std::size_t b = 0; b < blocks; ++b) {
    double partial = 0.0;
    for (std::size_t i = b * block_size; i < std::min(n, (b + 1) * block_size);
         ++i) {
      partial += body(i);
    }
    expected += partial;
  }
  for (int trial = 0; trial < 5; ++trial) {
    EXPECT_EQ(parallel_reduce<double>(0, n, 0.0, body, add, pool, grain),
              expected);
  }
}

}  // namespace
}  // namespace rim::parallel
