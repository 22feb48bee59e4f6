#include "stack.hpp"

namespace perfbench {

namespace {

/// The same connection factory rim_cli router builds: a blocking
/// TcpClientTransport with the given exchange deadline.
std::function<std::unique_ptr<rim::svc::Transport>()> connect_factory(
    std::uint16_t port, std::uint32_t deadline_ms, bool traced,
    std::size_t backend) {
  return [port, deadline_ms, traced,
          backend]() -> std::unique_ptr<rim::svc::Transport> {
    auto transport = std::make_unique<rim::svc::TcpClientTransport>();
    transport->exchange_deadline_ms = deadline_ms;
    std::string error;
    if (!transport->connect_to("127.0.0.1", port, error)) return nullptr;
    if (!traced) return transport;
    return std::make_unique<TracedTransport>(std::move(transport),
                                             Layer::kExchange, backend);
  };
}

}  // namespace

rim::io::Json PoolSizes::to_json() const {
  rim::io::JsonObject object;
  object["backend_dispatch"] = rim::io::Json(backend_dispatch);
  object["batch_pool"] = rim::io::Json(batch_pool);
  object["front_dispatch"] = rim::io::Json(front_dispatch);
  return rim::io::Json(std::move(object));
}

StackCounters StackCounters::minus(const StackCounters& base) const {
  StackCounters delta;
  delta.shipped = shipped - base.shipped;
  delta.ship_failures = ship_failures - base.ship_failures;
  delta.journal_truncated = journal_truncated - base.journal_truncated;
  delta.service_rejected = service_rejected - base.service_rejected;
  return delta;
}

bool Stack::start(const StackConfig& config, std::string& error) {
  const std::size_t backends = config.routed ? config.backends : 1;
  if (backends == 0 || backends > SpanRecorder::kMaxBackends) {
    error = "backend count out of range";
    return false;
  }
  rim::svc::ServiceConfig service_config;
  service_config.limits = config.limits;
  service_config.eval = config.eval;
  service_config.batch_pool_threads = config.pools.batch_pool;
  for (std::size_t b = 0; b < backends; ++b) {
    services_.push_back(std::make_unique<rim::svc::Service>(service_config));
  }
  if (!config.routed) {
    rim::svc::RequestHandler* handler = services_.front().get();
    if (config.traced) {
      front_wrapper_ =
          std::make_unique<TracedHandler>(*handler, Layer::kFront, 0);
      handler = front_wrapper_.get();
    }
    front_server_ = std::make_unique<rim::svc::TcpServer>(
        *handler, rim::svc::TcpServerConfig{0, config.pools.front_dispatch});
    if (!front_server_->start(error)) return false;
    front_port_ = front_server_->port();
    return true;
  }

  rim::shard::RouterConfig router_config;
  for (std::size_t b = 0; b < backends; ++b) {
    rim::svc::RequestHandler* handler = services_[b].get();
    if (config.traced) {
      backend_wrappers_.push_back(
          std::make_unique<TracedHandler>(*handler, Layer::kBackend, b));
      handler = backend_wrappers_.back().get();
    }
    backend_servers_.push_back(std::make_unique<rim::svc::TcpServer>(
        *handler,
        rim::svc::TcpServerConfig{0, config.pools.backend_dispatch}));
    if (!backend_servers_.back()->start(error)) return false;
    const std::uint16_t port = backend_servers_.back()->port();
    // rim_cli router's defaults: forwards never time out, probes use a
    // dedicated 2 s-deadline connection.
    router_config.backends.push_back(
        {"backend-" + std::to_string(b),
         connect_factory(port, 0, config.traced, b),
         connect_factory(port, 2000, false, b)});
  }
  router_ = std::make_unique<rim::shard::Router>(std::move(router_config));
  rim::svc::RequestHandler* handler = router_.get();
  if (config.traced) {
    front_wrapper_ = std::make_unique<TracedHandler>(*handler, Layer::kFront, 0);
    handler = front_wrapper_.get();
  }
  front_server_ = std::make_unique<rim::svc::TcpServer>(
      *handler, rim::svc::TcpServerConfig{0, config.pools.front_dispatch});
  if (!front_server_->start(error)) return false;
  front_port_ = front_server_->port();
  router_->start_health_monitor();
  return true;
}

void Stack::stop() {
  if (front_server_) front_server_->stop();
  if (router_) router_->stop();
  for (const auto& server : backend_servers_) server->stop();
  front_server_.reset();
  front_wrapper_.reset();
  router_.reset();
  backend_servers_.clear();
  backend_wrappers_.clear();
  services_.clear();
}

StackCounters Stack::counters() const {
  StackCounters counters;
  for (const auto& service : services_) {
    counters.service_rejected += service->counters().rejected_overloaded +
                                 service->counters().rejected_tenant;
  }
  if (router_) {
    const rim::shard::ReplicatorCounters& repl =
        router_->replicator().counters();
    counters.shipped = repl.shipped;
    counters.ship_failures = repl.ship_failures;
    counters.journal_truncated = repl.journal_truncated;
  }
  return counters;
}

}  // namespace perfbench
