#include "rim/core/wave_schedule.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace rim::core {

std::size_t first_fit_waves(std::span<const geom::Vec2> centers,
                            std::span<const double> query_radii,
                            common::Arena& arena,
                            std::span<std::uint32_t> wave_of) {
  const std::size_t n = centers.size();
  assert(query_radii.size() == n && wave_of.size() == n);
  assert(n < std::numeric_limits<std::uint32_t>::max());
  if (n == 0) return 0;
  // First-fit: the smallest wave index not held by an earlier conflicting
  // task. blocked[w] == i marks wave w as taken for task i.
  std::uint32_t* blocked = arena.alloc_array<std::uint32_t>(n);
  std::fill(blocked, blocked + n, std::numeric_limits<std::uint32_t>::max());
  std::size_t wave_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto stamp = static_cast<std::uint32_t>(i);
    for (std::size_t j = 0; j < i; ++j) {
      if (waves_conflict(centers[i], query_radii[i], centers[j],
                         query_radii[j])) {
        blocked[wave_of[j]] = stamp;
      }
    }
    std::uint32_t wave = 0;
    while (blocked[wave] == stamp) ++wave;
    wave_of[i] = wave;
    wave_count = std::max<std::size_t>(wave_count, wave + 1);
  }
  return wave_count;
}

}  // namespace rim::core
