#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rim/common/mutex.hpp"
#include "rim/svc/handler.hpp"
#include "rim/svc/transport.hpp"

/// \file trace.hpp
/// Out-of-program tracing for the serving benchmark.
///
/// Every span is recorded from outside librim, around the public seams a
/// deployment already has:
///
///  - TracedHandler wraps a svc::RequestHandler (the Router, or a Service)
///    and times handle_admitted(): the front span (the handler the client's
///    TcpServer dispatches to) or a backend span (a Service behind the
///    router).
///  - TracedTransport wraps a svc::Transport and times roundtrip(): the
///    client's socket exchange, or one router→backend exchange.
///
/// Parent links need no change to the wire. A router exchange runs on the
/// thread that runs the router's handle_admitted(), so its parent is that
/// thread's active front span. A backend span runs on the backend's own
/// dispatch thread; its parent is the exchange currently in flight on that
/// backend's router connection, which the router serializes
/// (Backend::conn_mutex), so one slot per backend names it. Client and
/// front spans are joined afterwards on (session, request id), which is
/// unique because every session belongs to exactly one client.
///
/// Spans go to per-thread buffers (no shared lock on the hot path) and are
/// read back with collect() once every traced thread has been joined.

namespace perfbench {

enum class Layer : std::uint8_t {
  kClient,    ///< client socket round trip (TracedTransport)
  kFront,     ///< handler behind the client-facing TcpServer
  kExchange,  ///< router→backend round trip (TracedTransport)
  kBackend,   ///< Service behind the router (TracedHandler)
};

/// The request commands the analysis tells apart.
enum class Command : std::uint8_t {
  kOther,
  kQuery,      ///< query_interference (one node or whole session)
  kAssess,
  kMutation,   ///< one add_node/remove_node/add_edge/remove_edge/move
  kBatch,      ///< apply_batch
  kSnapshot,   ///< replicator: fetch the owner's snapshot
  kReplicate,  ///< replicator: ship it to the peer
  kPing,
};

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: none recorded
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t session = 0;
  std::uint64_t request_id = 0;
  std::uint32_t request_bytes = 0;
  std::uint32_t response_bytes = 0;
  std::uint32_t thread = 0;
  std::uint8_t backend = 0;
  Layer layer = Layer::kClient;
  Command cmd = Command::kOther;

  [[nodiscard]] std::uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// One sampled client exchange: request and response payloads, kept so
/// the codec cost can be re-timed offline (io::Json::parse / dump).
using CapturedExchange = std::pair<std::string, std::string>;

class SpanRecorder {
 public:
  static constexpr std::size_t kMaxBackends = 8;

  [[nodiscard]] static SpanRecorder& instance();

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_acquire);
  }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }

  [[nodiscard]] std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void record(const Span& span);
  void capture(std::string_view request, std::string_view response);

  /// The calling thread's active front span (0 outside one).
  [[nodiscard]] static std::uint64_t active_span();
  static void set_active_span(std::uint64_t span);

  /// The exchange currently in flight on \p backend's router connection.
  [[nodiscard]] std::atomic<std::uint64_t>& backend_slot(std::size_t backend) {
    return slots_[backend];
  }

  /// All spans and captures recorded so far. Call only while no traced
  /// thread runs (after the stack and the clients have been joined).
  [[nodiscard]] std::vector<Span> collect_spans() const;
  [[nodiscard]] std::vector<CapturedExchange> collect_captures() const;

  /// Keep one client exchange in this many (the sample the codec metrics
  /// are re-timed on).
  static constexpr std::uint64_t kCaptureEvery = 7;

 private:
  struct ThreadBuffer {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
    std::vector<CapturedExchange> captures;
    std::uint64_t exchanges = 0;
  };
  ThreadBuffer& local();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> slots_[kMaxBackends] = {};
  mutable rim::common::Mutex buffers_mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_
      RIM_GUARDED_BY(buffers_mutex_);
};

/// Times handle_admitted() of the wrapped handler. Admission is delegated:
/// try_admit() hands out the inner handler's own ticket, so the wrapped
/// handler's in-flight accounting is unchanged.
class TracedHandler final : public rim::svc::RequestHandler {
 public:
  /// \p layer is kFront or kBackend; \p backend indexes the backend slot.
  TracedHandler(rim::svc::RequestHandler& inner, Layer layer,
                std::size_t backend)
      : inner_(inner), layer_(layer), backend_(backend) {}

  TracedHandler(const TracedHandler&) = delete;
  TracedHandler& operator=(const TracedHandler&) = delete;

  [[nodiscard]] Ticket try_admit() override { return inner_.try_admit(); }
  [[nodiscard]] std::string handle_admitted(std::string_view payload) override;
  [[nodiscard]] std::string overloaded_response(
      std::string_view payload) override {
    return inner_.overloaded_response(payload);
  }
  [[nodiscard]] std::size_t max_frame_bytes() const override {
    return inner_.max_frame_bytes();
  }

 protected:
  /// Never called: the tickets handed out belong to the inner handler.
  void release_admission() override {}

 private:
  rim::svc::RequestHandler& inner_;
  const Layer layer_;
  const std::size_t backend_;
};

/// Times roundtrip() of the wrapped transport (kClient or kExchange).
class TracedTransport final : public rim::svc::Transport {
 public:
  TracedTransport(std::unique_ptr<rim::svc::Transport> inner, Layer layer,
                  std::size_t backend)
      : inner_(std::move(inner)), layer_(layer), backend_(backend) {}

  [[nodiscard]] rim::svc::TransportStatus roundtrip(
      std::string_view frame, std::string& response_frame,
      std::string& error) override;

 private:
  std::unique_ptr<rim::svc::Transport> inner_;
  const Layer layer_;
  const std::size_t backend_;
};

/// Write \p spans as Chrome trace-event JSON (loads in Perfetto). At most
/// \p max_events spans are written, earliest first; the document records
/// how many were dropped. False when the file cannot be written.
[[nodiscard]] bool write_chrome_trace(const std::string& path,
                                      std::vector<Span> spans,
                                      std::size_t max_events);

}  // namespace perfbench
