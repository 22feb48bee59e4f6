#pragma once

#include <cmath>
#include <cstdint>
#include <span>

#include "rim/common/arena.hpp"
#include "rim/geom/vec2.hpp"

/// \file wave_schedule.hpp
/// The batch pipeline's wave scheduler (Scenario::apply_batch, phase 4),
/// exposed as a pure function so tests can hold it against a quadratic
/// reference.
///
/// Task i is a region delta centred at centers[i] whose affected disk has
/// radius query_radii[i]. Two tasks *conflict* when their axis-aligned
/// bounding squares intersect (waves_conflict). Greedy first-fit assigns,
/// in task order, each task the smallest wave index that no earlier
/// conflicting task holds — so tasks in one wave are pairwise disjoint and
/// the schedule is a deterministic function of the task list.
///
/// Query radii come in precomputed (one per task), so a pair test is two
/// subtractions and two compares. The scan over every earlier task is
/// quadratic, but at ~440 tasks a batch a bucket grid for the candidate
/// search did not move the served batch latency (EXPERIMENTS E19).

namespace rim::core {

/// The conflict test: the bounding squares of the disks (a_center, a_q)
/// and (b_center, b_q) intersect. A superset of disk intersection; NaN
/// never conflicts.
[[nodiscard]] inline bool waves_conflict(geom::Vec2 a_center, double a_q,
                                         geom::Vec2 b_center, double b_q) {
  const double reach = a_q + b_q;
  return std::abs(a_center.x - b_center.x) <= reach &&
         std::abs(a_center.y - b_center.y) <= reach;
}

/// Greedy first-fit wave assignment: writes each task's wave index to
/// \p wave_of (same length as \p centers and \p query_radii) and returns
/// the number of waves. Scratch is bump-allocated from \p arena.
std::size_t first_fit_waves(std::span<const geom::Vec2> centers,
                            std::span<const double> query_radii,
                            common::Arena& arena,
                            std::span<std::uint32_t> wave_of);

}  // namespace rim::core
