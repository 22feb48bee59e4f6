#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "rim/obs/metrics.hpp"
#include "rim/svc/protocol.hpp"

namespace perfbench {

namespace {

thread_local std::uint64_t t_active_span = 0;

/// Digits of the number that follows \p key in \p payload (0 when absent).
std::uint64_t scan_number(std::string_view payload, std::string_view key) {
  const std::size_t at = payload.find(key);
  if (at == std::string_view::npos) return 0;
  std::uint64_t value = 0;
  for (std::size_t i = at + key.size(); i < payload.size(); ++i) {
    const char c = payload[i];
    if (c < '0' || c > '9') break;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

Command classify(std::string_view name) {
  using namespace rim::svc;
  if (name == cmd::kQueryInterference) return Command::kQuery;
  if (name == cmd::kAssess) return Command::kAssess;
  if (name == cmd::kApplyBatch) return Command::kBatch;
  if (name == cmd::kSnapshot) return Command::kSnapshot;
  if (name == cmd::kReplicateSession) return Command::kReplicate;
  if (name == cmd::kPing) return Command::kPing;
  if (name == cmd::kAddNode || name == cmd::kRemoveNode ||
      name == cmd::kAddEdge || name == cmd::kRemoveEdge ||
      name == cmd::kMove) {
    return Command::kMutation;
  }
  return Command::kOther;
}

/// The payload inside an encoded frame (the frame header is skipped).
std::string_view frame_payload(std::string_view frame) {
  return frame.size() >= rim::svc::kFrameHeaderBytes
             ? frame.substr(rim::svc::kFrameHeaderBytes)
             : std::string_view{};
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kClient:
      return "client";
    case Layer::kFront:
      return "front";
    case Layer::kExchange:
      return "exchange";
    case Layer::kBackend:
      return "backend";
  }
  return "unknown";
}

const char* command_name(Command command) {
  switch (command) {
    case Command::kQuery:
      return "query_interference";
    case Command::kAssess:
      return "assess";
    case Command::kMutation:
      return "mutation";
    case Command::kBatch:
      return "apply_batch";
    case Command::kSnapshot:
      return "snapshot";
    case Command::kReplicate:
      return "replicate_session";
    case Command::kPing:
      return "ping";
    case Command::kOther:
      break;
  }
  return "other";
}

/// Top-level fields of one request payload, read by a cheap scan: the
/// writer (io::Json::dump) emits compact objects with sorted keys, and no
/// nested object of a request carries a "cmd", "id" or "session" key ahead
/// of the top-level one.
struct PayloadKeys {
  Command cmd = Command::kOther;
  std::uint64_t id = 0;
  std::uint64_t session = 0;
};

PayloadKeys scan_payload(std::string_view payload) {
  PayloadKeys keys;
  constexpr std::string_view kCmd = "\"cmd\":\"";
  const std::size_t at = payload.find(kCmd);
  if (at != std::string_view::npos) {
    const std::size_t begin = at + kCmd.size();
    const std::size_t end = payload.find('"', begin);
    if (end != std::string_view::npos) {
      keys.cmd = classify(payload.substr(begin, end - begin));
    }
  }
  keys.id = scan_number(payload, "\"id\":");
  keys.session = scan_number(payload, "\"session\":");
  return keys;
}

/// A new span of \p layer for a request \p payload (times not yet set).
Span open_span(SpanRecorder& recorder, Layer layer, std::size_t backend,
               std::string_view payload) {
  const PayloadKeys keys = scan_payload(payload);
  Span span;
  span.id = recorder.next_id();
  span.layer = layer;
  span.backend = static_cast<std::uint8_t>(backend);
  span.cmd = keys.cmd;
  span.request_id = keys.id;
  span.session = keys.session;
  span.request_bytes = static_cast<std::uint32_t>(payload.size());
  return span;
}

}  // namespace

SpanRecorder& SpanRecorder::instance() {
  static SpanRecorder recorder;
  return recorder;
}

SpanRecorder::ThreadBuffer& SpanRecorder::local() {
  // Buffers live as long as the recorder (the process), so the cached
  // pointer never dangles even after the recording thread exits.
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    rim::common::MutexLock lock(buffers_mutex_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffer = buffers_.back().get();
    buffer->thread = static_cast<std::uint32_t>(buffers_.size());
    buffer->spans.reserve(1u << 14);
  }
  return *buffer;
}

void SpanRecorder::record(const Span& span) {
  ThreadBuffer& buffer = local();
  buffer.spans.push_back(span);
  buffer.spans.back().thread = buffer.thread;
}

void SpanRecorder::capture(std::string_view request,
                           std::string_view response) {
  ThreadBuffer& buffer = local();
  if (buffer.exchanges++ % kCaptureEvery != 0) return;
  buffer.captures.emplace_back(std::string(request), std::string(response));
}

std::uint64_t SpanRecorder::active_span() { return t_active_span; }

void SpanRecorder::set_active_span(std::uint64_t span) {
  t_active_span = span;
}

std::vector<Span> SpanRecorder::collect_spans() const {
  rim::common::MutexLock lock(buffers_mutex_);
  std::vector<Span> all;
  for (const std::unique_ptr<ThreadBuffer>& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

std::vector<CapturedExchange> SpanRecorder::collect_captures() const {
  rim::common::MutexLock lock(buffers_mutex_);
  std::vector<CapturedExchange> all;
  for (const std::unique_ptr<ThreadBuffer>& buffer : buffers_) {
    all.insert(all.end(), buffer->captures.begin(), buffer->captures.end());
  }
  return all;
}

std::string TracedHandler::handle_admitted(std::string_view payload) {
  SpanRecorder& recorder = SpanRecorder::instance();
  if (!recorder.enabled()) return inner_.handle_admitted(payload);
  Span span = open_span(recorder, layer_, backend_, payload);
  if (layer_ == Layer::kBackend) {
    span.parent =
        recorder.backend_slot(backend_).load(std::memory_order_acquire);
  }
  const std::uint64_t outer = SpanRecorder::active_span();
  SpanRecorder::set_active_span(span.id);
  span.start_ns = rim::obs::now_ns();
  std::string response = inner_.handle_admitted(payload);
  span.end_ns = rim::obs::now_ns();
  SpanRecorder::set_active_span(outer);
  span.response_bytes = static_cast<std::uint32_t>(response.size());
  recorder.record(span);
  return response;
}

rim::svc::TransportStatus TracedTransport::roundtrip(
    std::string_view frame, std::string& response_frame, std::string& error) {
  SpanRecorder& recorder = SpanRecorder::instance();
  if (!recorder.enabled()) return inner_->roundtrip(frame, response_frame, error);
  const std::string_view payload = frame_payload(frame);
  Span span = open_span(recorder, layer_, backend_, payload);
  std::atomic<std::uint64_t>* slot = nullptr;
  if (layer_ == Layer::kExchange) {
    span.parent = SpanRecorder::active_span();
    slot = &recorder.backend_slot(backend_);
    slot->store(span.id, std::memory_order_release);
  }
  span.start_ns = rim::obs::now_ns();
  const rim::svc::TransportStatus status =
      inner_->roundtrip(frame, response_frame, error);
  span.end_ns = rim::obs::now_ns();
  if (slot != nullptr) slot->store(0, std::memory_order_release);
  const std::string_view response = frame_payload(response_frame);
  span.response_bytes = static_cast<std::uint32_t>(response.size());
  recorder.record(span);
  if (layer_ == Layer::kClient && status == rim::svc::TransportStatus::kOk) {
    recorder.capture(payload, response);
  }
  return status;
}

bool write_chrome_trace(const std::string& path, std::vector<Span> spans,
                        std::size_t max_events) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  const std::size_t dropped =
      spans.size() > max_events ? spans.size() - max_events : 0;
  spans.resize(spans.size() - dropped);
  std::ofstream out(path);
  if (!out) return false;
  const std::uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"spans_written\":"
      << spans.size() << ",\"spans_dropped\":" << dropped
      << "},\"traceEvents\":[";
  char line[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int written = std::snprintf(
        line, sizeof line,
        "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
        "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
        "\"parent\":%llu,\"request\":%llu,\"session\":%llu,"
        "\"backend\":%u,\"request_bytes\":%u,\"response_bytes\":%u}}",
        i == 0 ? "" : ",\n", command_name(s.cmd), layer_name(s.layer),
        s.thread, static_cast<double>(s.start_ns - origin) / 1e3,
        static_cast<double>(s.duration_ns()) / 1e3,
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(s.request_id),
        static_cast<unsigned long long>(s.session),
        static_cast<unsigned>(s.backend), s.request_bytes, s.response_bytes);
    if (written > 0) out.write(line, std::min<int>(written, sizeof line - 1));
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
