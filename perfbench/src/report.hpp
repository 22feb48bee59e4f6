#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "replay.hpp"
#include "rim/io/json.hpp"
#include "stack.hpp"
#include "trace.hpp"
#include "workload.hpp"

/// \file report.hpp
/// Turns the request logs, spans and replay timings into named metrics.

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Nearest-rank percentile summary of one latency population.
struct Percentiles {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  std::size_t count = 0;
  std::size_t beyond_p99 = 0;  ///< samples strictly above p99

  [[nodiscard]] rim::io::Json to_json() const;
};
[[nodiscard]] Percentiles percentiles(std::vector<double> samples);
[[nodiscard]] double median(std::vector<double> samples);

/// One of WindowStats::kSlices equal time slices of a window.
struct SliceStats {
  double req_per_s = 0.0;
  double mutations_per_s = 0.0;
  Percentiles all_ms;
  Percentiles read_ms;
};

/// Client-side view of one window (LogEntry timings, all sessions): the
/// pooled percentiles, and the same figures per time slice.
struct WindowStats {
  static constexpr std::size_t kSlices = 10;

  double seconds = 0.0;
  std::size_t requests = 0;
  std::size_t mutations = 0;  ///< acked mutations (singles + batched)
  Percentiles all_ms;
  Percentiles read_ms;
  Percentiles write_ms;
  std::vector<SliceStats> slices;

  /// Median over the slices, so a stall confined to a few slices does not
  /// move it.
  [[nodiscard]] double req_per_s() const;
  [[nodiscard]] double mutations_per_s() const;
  [[nodiscard]] rim::io::Json to_json() const;
};
[[nodiscard]] WindowStats window_stats(const std::vector<SessionState>& sessions,
                                       Phase phase, const Window& window);

/// Everything the per-layer split is computed from (the traced window).
struct LayerInputs {
  bool routed = true;
  std::vector<Span> spans;
  std::vector<CapturedExchange> captures;
  const std::vector<SessionState>* sessions = nullptr;
  const EngineSamples* engine = nullptr;
  StackCounters counters;  ///< SUT counters over the traced window
  std::uint64_t service_rejected_total = 0;
  double full_eval_ms = 0.0;
  double untraced_req_per_s = 0.0;
  double traced_req_per_s = 0.0;
};

/// The per-layer metrics, in BENCHMARK.json order. Layers absent from the
/// workload's path read 0. \p detail receives the sample counts and the
/// per-request decomposition of the client round trip.
[[nodiscard]] std::vector<Metric> layer_metrics(const LayerInputs& in,
                                                rim::io::JsonObject& detail);

}  // namespace perfbench
