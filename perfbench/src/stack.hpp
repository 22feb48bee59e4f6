#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rim/core/interference.hpp"
#include "rim/io/json.hpp"
#include "rim/shard/router.hpp"
#include "rim/svc/service.hpp"
#include "rim/svc/tcp.hpp"
#include "trace.hpp"

/// \file stack.hpp
/// The system under test, assembled in-process from librim's public
/// pieces and served over loopback TCP:
///
///   routed:  client → TcpServer → shard::Router → (TcpClientTransport →)
///            TcpServer → svc::Service → core::Scenario, on N backends
///   direct:  client → TcpServer → svc::Service → core::Scenario
///
/// Every pool size is set here explicitly (never "0 = hardware
/// concurrency"), so a result names the configuration it measured.

namespace perfbench {

struct PoolSizes {
  std::size_t front_dispatch = 4;    ///< client-facing TcpServer pool
  std::size_t backend_dispatch = 4;  ///< each backend TcpServer pool
  std::size_t batch_pool = 4;        ///< each Service's apply_batch pool

  [[nodiscard]] rim::io::Json to_json() const;
};

struct StackConfig {
  bool routed = true;
  std::size_t backends = 2;  ///< routed only; a direct stack has one
  PoolSizes pools;
  rim::svc::SvcLimits limits;
  rim::core::EvalOptions eval{};
  /// Install the TracedHandler/TracedTransport wrappers (spans are only
  /// recorded while SpanRecorder::enabled()).
  bool traced = false;
};

/// Counters the SUT keeps itself, read at the end of a window.
struct StackCounters {
  std::uint64_t shipped = 0;
  std::uint64_t ship_failures = 0;
  std::uint64_t journal_truncated = 0;
  std::uint64_t service_rejected = 0;  ///< service sheds (global + tenant)

  [[nodiscard]] StackCounters minus(const StackCounters& base) const;
};

class Stack {
 public:
  Stack() = default;
  ~Stack() { stop(); }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Build and start every server. False with \p error on failure.
  [[nodiscard]] bool start(const StackConfig& config, std::string& error);

  /// Stop servers front to back and join every thread (idempotent).
  void stop();

  /// The client-facing port.
  [[nodiscard]] std::uint16_t port() const { return front_port_; }

  [[nodiscard]] StackCounters counters() const;

 private:
  std::vector<std::unique_ptr<rim::svc::Service>> services_;
  std::vector<std::unique_ptr<TracedHandler>> backend_wrappers_;
  std::vector<std::unique_ptr<rim::svc::TcpServer>> backend_servers_;
  std::unique_ptr<rim::shard::Router> router_;
  std::unique_ptr<TracedHandler> front_wrapper_;
  std::unique_ptr<rim::svc::TcpServer> front_server_;
  std::uint16_t front_port_ = 0;
};

}  // namespace perfbench
