// Fixture: the `wave-vector-scratch` rule fires on std::vector scratch
// declared inside task lambdas handed to submit() or fork_join(), and only
// there.
#include <cstddef>
#include <vector>

struct FakePool {
  template <typename F>
  void submit(F&& task) {
    task();
  }
  template <typename F>
  void fork_join(std::size_t chunks, const F& fn) {
    for (std::size_t c = 0; c < chunks; ++c) fn(c);
  }
};

void fixture_wave_scratch(FakePool& pool, std::size_t n) {
  // Outside any submit lambda: fine — this is the caller's scratch.
  std::vector<double> staged(n, 0.0);

  pool.submit([n] {
    std::vector<double> scratch(n);  // trigger: per-task heap allocation
    scratch[0] = 1.0;
  });

  pool.submit([&staged] { staged[0] += 1.0; });  // no scratch: clean

  pool.submit([n]() mutable {
    std::vector<int> a(n);  // trigger
    std::vector<int> b(n);  // trigger
    a[0] = b[0];
  });

  // fork_join takes the lambda as its second argument.
  pool.fork_join(n, [&staged](std::size_t c) {
    std::vector<double> per_chunk(c + 1);  // trigger
    staged[c] = per_chunk[0];
  });

  pool.fork_join(n, [&staged](std::size_t c) { staged[c] += 1.0; });  // clean
}
