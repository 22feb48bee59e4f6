#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "rim/obs/metrics.hpp"

namespace perfbench {

namespace {

std::uint64_t span_key(std::uint64_t session, std::uint64_t request_id) {
  return (session << 32) ^ request_id;
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

bool is_client_request(Command cmd) {
  return cmd == Command::kQuery || cmd == Command::kAssess ||
         cmd == Command::kMutation || cmd == Command::kBatch;
}

bool is_ship(Command cmd) {
  return cmd == Command::kSnapshot || cmd == Command::kReplicate;
}

double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

std::int64_t signed_ns(std::uint64_t a, std::uint64_t b) {
  return static_cast<std::int64_t>(a) - static_cast<std::int64_t>(b);
}

/// Codec cost of the sampled client exchanges, re-timed offline: one
/// io::Json::parse and one dump of the request and of the response.
void codec_costs(const std::vector<CapturedExchange>& captures,
                 double& parse_us, double& dump_us) {
  std::vector<double> parse;
  std::vector<double> dump;
  for (const CapturedExchange& capture : captures) {
    rim::io::Json request;
    rim::io::Json response;
    std::string error;
    const std::uint64_t t0 = rim::obs::now_ns();
    const bool ok = rim::io::Json::parse(capture.first, request, error) &&
                    rim::io::Json::parse(capture.second, response, error);
    const std::uint64_t t1 = rim::obs::now_ns();
    const std::size_t bytes = request.dump().size() + response.dump().size();
    const std::uint64_t t2 = rim::obs::now_ns();
    if (!ok || bytes == 0) continue;
    parse.push_back(static_cast<double>(t1 - t0) / 1e3);
    dump.push_back(static_cast<double>(t2 - t1) / 1e3);
  }
  parse_us = mean(parse);
  dump_us = mean(dump);
}

}  // namespace

rim::io::Json Percentiles::to_json() const {
  rim::io::JsonObject object;
  object["beyond_p99"] = rim::io::Json(beyond_p99);
  object["count"] = rim::io::Json(count);
  object["p50"] = rim::io::Json(p50);
  object["p90"] = rim::io::Json(p90);
  object["p99"] = rim::io::Json(p99);
  return rim::io::Json(std::move(object));
}

Percentiles percentiles(std::vector<double> samples) {
  Percentiles p;
  p.count = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  const auto rank = [&samples](double q) {
    const auto r = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    return samples[std::clamp<std::size_t>(r, 1, samples.size()) - 1];
  };
  p.p50 = rank(0.50);
  p.p90 = rank(0.90);
  p.p99 = rank(0.99);
  p.beyond_p99 = static_cast<std::size_t>(
      samples.end() - std::upper_bound(samples.begin(), samples.end(), p.p99));
  return p;
}

double median(std::vector<double> samples) {
  return percentiles(std::move(samples)).p50;
}

double WindowStats::req_per_s() const {
  std::vector<double> values;
  for (const SliceStats& slice : slices) values.push_back(slice.req_per_s);
  return median(std::move(values));
}

double WindowStats::mutations_per_s() const {
  std::vector<double> values;
  for (const SliceStats& slice : slices) values.push_back(slice.mutations_per_s);
  return median(std::move(values));
}

rim::io::Json WindowStats::to_json() const {
  rim::io::JsonObject object;
  object["all_ms"] = all_ms.to_json();
  object["mutations"] = rim::io::Json(mutations);
  object["read_ms"] = read_ms.to_json();
  object["requests"] = rim::io::Json(requests);
  object["seconds"] = rim::io::Json(seconds);
  object["write_ms"] = write_ms.to_json();
  rim::io::JsonArray slice_list;
  for (const SliceStats& slice : slices) {
    rim::io::JsonObject entry;
    entry["all_ms"] = slice.all_ms.to_json();
    entry["read_ms"] = slice.read_ms.to_json();
    entry["req_per_s"] = rim::io::Json(slice.req_per_s);
    slice_list.emplace_back(std::move(entry));
  }
  object["slices"] = rim::io::Json(std::move(slice_list));
  return rim::io::Json(std::move(object));
}

WindowStats window_stats(const std::vector<SessionState>& sessions,
                         Phase phase, const Window& window) {
  constexpr std::size_t kSlices = WindowStats::kSlices;
  WindowStats stats;
  stats.seconds = window.seconds();
  const double slice_ns =
      static_cast<double>(window.end_ns - window.start_ns) / kSlices;
  std::vector<double> all;
  std::vector<double> reads;
  std::vector<double> writes;
  std::vector<std::vector<double>> slice_all(kSlices);
  std::vector<std::vector<double>> slice_reads(kSlices);
  std::vector<double> slice_mutations(kSlices, 0.0);
  for (const SessionState& s : sessions) {
    for (const LogEntry& e : s.log) {
      if (e.phase != phase || !e.ok) continue;
      const double ms = static_cast<double>(e.end_ns - e.start_ns) / 1e6;
      const auto slice = std::min<std::size_t>(
          kSlices - 1, static_cast<std::size_t>(
                           static_cast<double>(e.end_ns - window.start_ns) /
                           slice_ns));
      all.push_back(ms);
      slice_all[slice].push_back(ms);
      if (is_write(e.op)) {
        writes.push_back(ms);
        stats.mutations += e.count;
        slice_mutations[slice] += e.count;
      } else {
        reads.push_back(ms);
        slice_reads[slice].push_back(ms);
      }
    }
  }
  for (std::size_t i = 0; i < kSlices; ++i) {
    SliceStats slice;
    slice.req_per_s = static_cast<double>(slice_all[i].size()) / (slice_ns / 1e9);
    slice.mutations_per_s = slice_mutations[i] / (slice_ns / 1e9);
    slice.all_ms = percentiles(std::move(slice_all[i]));
    slice.read_ms = percentiles(std::move(slice_reads[i]));
    stats.slices.push_back(slice);
  }
  stats.requests = all.size();
  stats.all_ms = percentiles(std::move(all));
  stats.read_ms = percentiles(std::move(reads));
  stats.write_ms = percentiles(std::move(writes));
  return stats;
}

std::vector<Metric> layer_metrics(const LayerInputs& in,
                                  rim::io::JsonObject& detail) {
  std::unordered_map<std::uint64_t, const Span*> front_by_key;
  std::unordered_map<std::uint64_t, std::vector<const Span*>> exchanges_of;
  std::unordered_map<std::uint64_t, const Span*> backend_of;
  std::vector<const Span*> client_spans;
  for (const Span& span : in.spans) {
    switch (span.layer) {
      case Layer::kClient:
        if (is_client_request(span.cmd)) client_spans.push_back(&span);
        break;
      case Layer::kFront:
        front_by_key[span_key(span.session, span.request_id)] = &span;
        break;
      case Layer::kExchange:
        exchanges_of[span.parent].push_back(&span);
        break;
      case Layer::kBackend:
        if (span.parent != 0) backend_of[span.parent] = &span;
        break;
    }
  }
  std::unordered_map<std::uint64_t, const LogEntry*> log_of;
  for (const SessionState& s : *in.sessions) {
    for (const LogEntry& e : s.log) {
      if (e.phase == Phase::kTraced) log_of[span_key(s.wire_id, e.request_id)] = &e;
    }
  }

  std::vector<double> client_rtt_us, front_self_us, router_self_us,
      pre_forward_us, exchanges, back_self_us, ship_ms, service_span_us,
      service_self_us;
  double req_bytes = 0, resp_bytes = 0, ship_bytes = 0;
  std::uint64_t writes = 0, matched = 0;
  std::int64_t front_ns = 0, ship_ns_total = 0;
  // Sums over fully matched requests: the client call (what the end-to-end
  // latency times) split into each layer's self time along the blocking
  // path. The parts telescope, so on a matched request they add up to the
  // call exactly; the slack is the share of requests left unmatched.
  std::int64_t sum_call = 0, sum_client_codec = 0;
  std::int64_t sum_rtt = 0, sum_front_self = 0, sum_router_self = 0,
               sum_back_self = 0, sum_service_self = 0, sum_engine = 0,
               sum_ship_service = 0;
  for (const Span* c : client_spans) {
    req_bytes += c->request_bytes;
    resp_bytes += c->response_bytes;
    if (c->cmd == Command::kMutation || c->cmd == Command::kBatch) ++writes;
    const auto front = front_by_key.find(span_key(c->session, c->request_id));
    if (front == front_by_key.end()) continue;
    const Span& f = *front->second;
    const auto log = log_of.find(span_key(c->session, c->request_id));
    const LogEntry* entry = log == log_of.end() ? nullptr : log->second;
    const std::int64_t engine =
        entry == nullptr ? 0 : static_cast<std::int64_t>(entry->engine_ns);
    const std::int64_t front_self = signed_ns(c->duration_ns(), f.duration_ns());
    client_rtt_us.push_back(us(static_cast<std::int64_t>(c->duration_ns())));
    front_self_us.push_back(us(front_self));
    bool complete = entry != nullptr;
    std::int64_t router_self = 0, back_self = 0, service_self = 0,
                 ship_service = 0;
    if (in.routed) {
      static const std::vector<const Span*> kNone;
      const auto found = exchanges_of.find(f.id);
      const std::vector<const Span*>& ex =
          found == exchanges_of.end() ? kNone : found->second;
      std::int64_t inside = 0, ship_ns = 0;
      std::uint64_t first_start = f.end_ns;
      for (const Span* x : ex) {
        inside += static_cast<std::int64_t>(x->duration_ns());
        first_start = std::min(first_start, x->start_ns);
        const auto backend = backend_of.find(x->id);
        if (backend == backend_of.end()) {
          complete = false;
          continue;
        }
        const Span& b = *backend->second;
        const std::int64_t self = signed_ns(x->duration_ns(), b.duration_ns());
        back_self_us.push_back(us(self));
        back_self += self;
        if (is_ship(x->cmd)) {
          ship_ns += static_cast<std::int64_t>(x->duration_ns());
          ship_bytes += x->cmd == Command::kSnapshot ? x->response_bytes
                                                     : x->request_bytes;
          ship_service += static_cast<std::int64_t>(b.duration_ns());
        } else {
          service_span_us.push_back(us(static_cast<std::int64_t>(b.duration_ns())));
          service_self = static_cast<std::int64_t>(b.duration_ns()) - engine;
          service_self_us.push_back(us(service_self));
        }
      }
      router_self = static_cast<std::int64_t>(f.duration_ns()) - inside;
      router_self_us.push_back(us(router_self));
      exchanges.push_back(static_cast<double>(ex.size()));
      if (!ex.empty()) pre_forward_us.push_back(us(signed_ns(first_start, f.start_ns)));
      if (ship_ns > 0) ship_ms.push_back(static_cast<double>(ship_ns) / 1e6);
      ship_ns_total += ship_ns;
      front_ns += static_cast<std::int64_t>(f.duration_ns());
      complete = complete && !ex.empty();
    } else {
      service_span_us.push_back(us(static_cast<std::int64_t>(f.duration_ns())));
      service_self = static_cast<std::int64_t>(f.duration_ns()) - engine;
      service_self_us.push_back(us(service_self));
    }
    if (!complete) continue;
    ++matched;
    const std::int64_t call = signed_ns(entry->end_ns, entry->start_ns);
    sum_call += call;
    sum_client_codec += call - static_cast<std::int64_t>(c->duration_ns());
    sum_rtt += static_cast<std::int64_t>(c->duration_ns());
    sum_front_self += front_self;
    sum_router_self += router_self;
    sum_back_self += back_self;
    sum_service_self += service_self;
    sum_engine += engine;
    sum_ship_service += ship_service;
  }

  const double requests = static_cast<double>(client_spans.size());
  const Percentiles front_self = percentiles(front_self_us);
  const Percentiles router_self = percentiles(router_self_us);
  const Percentiles ship = percentiles(ship_ms);
  const Percentiles service_span = percentiles(service_span_us);
  const EngineSamples& engine = *in.engine;
  const Percentiles apply_batch = percentiles(engine.apply_batch_ms);
  double parse_us = 0.0, dump_us = 0.0;
  codec_costs(in.captures, parse_us, dump_us);
  const double serial_total = std::accumulate(
      engine.serial_apply_ms.begin(), engine.serial_apply_ms.end(), 0.0);
  const double batch_total = std::accumulate(
      engine.apply_batch_ms.begin(), engine.apply_batch_ms.end(), 0.0);

  std::vector<Metric> m = {
      {"svc.tcp.front_self_us.p50", front_self.p50, "us"},
      {"svc.tcp.front_self_us.p99", front_self.p99, "us"},
      {"shard.router.self_us.p50", router_self.p50, "us"},
      {"shard.router.self_us.p99", router_self.p99, "us"},
      {"shard.router.pre_forward_us.p50", median(pre_forward_us), "us"},
      {"shard.router.exchanges_per_req", mean(exchanges), "count"},
      {"svc.tcp.back_self_us.p50", median(back_self_us), "us"},
      {"shard.replicator.ship_ms.p50", ship.p50, "ms"},
      {"shard.replicator.ship_ms.p99", ship.p99, "ms"},
      {"shard.replicator.ship_share",
       ratio(static_cast<double>(ship_ns_total), static_cast<double>(front_ns)),
       "ratio"},
      {"shard.replicator.ship_bytes_per_write",
       ratio(ship_bytes, static_cast<double>(writes)), "bytes"},
      {"shard.replicator.shipped", static_cast<double>(in.counters.shipped),
       "count"},
      {"shard.replicator.ship_failures",
       static_cast<double>(in.counters.ship_failures), "count"},
      {"shard.replicator.journal_truncated",
       static_cast<double>(in.counters.journal_truncated), "count"},
      {"io.json.req_bytes.mean", ratio(req_bytes, requests), "bytes"},
      {"io.json.resp_bytes.mean", ratio(resp_bytes, requests), "bytes"},
      {"io.json.parse_us.mean", parse_us, "us"},
      {"io.json.dump_us.mean", dump_us, "us"},
      {"svc.service.span_us.p50", service_span.p50, "us"},
      {"svc.service.span_us.p99", service_span.p99, "us"},
      {"svc.service.self_us.p50", median(service_self_us), "us"},
      {"svc.service.rejected", static_cast<double>(in.service_rejected_total),
       "count"},
      {"core.scenario.apply_batch_ms.p50", apply_batch.p50, "ms"},
      {"core.scenario.apply_batch_ms.p99", apply_batch.p99, "ms"},
      {"core.scenario.serial_apply_ms.p50", median(engine.serial_apply_ms),
       "ms"},
      {"core.scenario.batch_speedup", ratio(serial_total, batch_total), "ratio"},
      {"core.scenario.waves_per_batch",
       ratio(static_cast<double>(engine.batch_waves),
             static_cast<double>(engine.batches)),
       "count"},
      {"core.scenario.wave_tasks.mean",
       ratio(static_cast<double>(engine.batch_disk_tasks),
             static_cast<double>(engine.batch_waves)),
       "count"},
      {"core.scenario.deferred_share",
       ratio(static_cast<double>(engine.batch_deferred),
             static_cast<double>(engine.batches)),
       "ratio"},
      {"core.scenario.recounts_per_mutation",
       ratio(static_cast<double>(engine.batch_recounts),
             static_cast<double>(engine.batch_mutations)),
       "count"},
      {"core.scenario.cells_touched_per_mutation",
       ratio(static_cast<double>(engine.cells_touched),
             static_cast<double>(engine.mutations)),
       "count"},
      {"core.scenario.mutation_us.p50", median(engine.mutation_us), "us"},
      {"core.scenario.query_us.p50", median(engine.query_us), "us"},
      {"core.scenario.full_eval_ms", in.full_eval_ms, "ms"},
      {"core.assessor.assess_us.p50", median(engine.assess_us), "us"},
      {"trace.overhead_share",
       1.0 - ratio(in.traced_req_per_s, in.untraced_req_per_s), "ratio"},
      {"trace.matched_share", ratio(static_cast<double>(matched), requests),
       "ratio"},
  };

  const auto share_of_rtt = [sum_call](std::int64_t part) {
    return ratio(static_cast<double>(part), static_cast<double>(sum_call));
  };
  const auto mean_us = [matched](std::int64_t total) {
    return matched == 0 ? 0.0 : us(total) / static_cast<double>(matched);
  };
  rim::io::JsonObject split;
  split["requests_matched"] = rim::io::Json(matched);
  split["client_call_us_mean"] = rim::io::Json(mean_us(sum_call));
  split["client_rtt_us_mean"] = rim::io::Json(mean_us(sum_rtt));
  split["client_codec_share"] = rim::io::Json(share_of_rtt(sum_client_codec));
  split["front_self_share"] = rim::io::Json(share_of_rtt(sum_front_self));
  split["router_self_share"] = rim::io::Json(share_of_rtt(sum_router_self));
  split["back_self_share"] = rim::io::Json(share_of_rtt(sum_back_self));
  split["service_self_share"] = rim::io::Json(share_of_rtt(sum_service_self));
  split["engine_share"] = rim::io::Json(share_of_rtt(sum_engine));
  split["ship_service_share"] = rim::io::Json(share_of_rtt(sum_ship_service));
  const std::int64_t attributed = sum_client_codec + sum_front_self + sum_router_self +
                                  sum_back_self + sum_service_self +
                                  sum_engine + sum_ship_service;
  split["unattributed_share"] = rim::io::Json(share_of_rtt(sum_call - attributed));
  detail["rtt_split"] = rim::io::Json(std::move(split));
  rim::io::JsonObject counts;
  counts["client_spans"] = rim::io::Json(client_spans.size());
  counts["client_rtt_us"] = percentiles(client_rtt_us).to_json();
  counts["front_self_us"] = front_self.to_json();
  counts["router_self_us"] = router_self.to_json();
  counts["ship_ms"] = ship.to_json();
  counts["service_span_us"] = service_span.to_json();
  counts["apply_batch_ms"] = apply_batch.to_json();
  counts["codec_captures"] = rim::io::Json(in.captures.size());
  detail["layer_samples"] = rim::io::Json(std::move(counts));
  return m;
}

}  // namespace perfbench
