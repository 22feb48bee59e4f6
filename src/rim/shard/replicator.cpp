#include "rim/shard/replicator.hpp"

#include <algorithm>
#include <limits>
#include <string_view>
#include <utility>

#include "rim/svc/protocol.hpp"

namespace rim::shard {

namespace {

/// Run one exchange. False with \p error when the transport failed.
bool exchange_ok(const Exchange& exchange, const std::string& backend,
                 const std::string& payload, std::string& response,
                 std::string& error) {
  const svc::TransportStatus status = exchange(backend, payload, response);
  if (status == svc::TransportStatus::kOk) return true;
  error = status == svc::TransportStatus::kConnectionLost
              ? "connection to " + backend + " lost"
              : "exchange with " + backend + " failed";
  return false;
}

/// Parse a response envelope. True iff it is ok:true; \p result then holds
/// the "result" document (null Json when absent).
bool parse_ok(const std::string& backend, const std::string& response,
              io::Json& result, std::string& error) {
  io::Json document;
  if (!io::Json::parse(response, document, error)) return false;
  const io::Json* ok = document.find("ok");
  if (ok == nullptr || !ok->as_bool(false)) {
    const io::Json* message = document.find("error");
    const std::string* text =
        message != nullptr ? message->as_string() : nullptr;
    error = backend + " answered: " +
            (text != nullptr ? *text : std::string("unknown error"));
    return false;
  }
  io::Json* result_field = document.find("result");
  result = result_field != nullptr ? std::move(*result_field) : io::Json();
  return true;
}

/// Run one exchange and parse the response envelope (see parse_ok).
bool call_ok(const Exchange& exchange, const std::string& backend,
             const std::string& payload, io::Json& result,
             std::string& error) {
  std::string response;
  return exchange_ok(exchange, backend, payload, response, error) &&
         parse_ok(backend, response, result, error);
}

/// The owner's answer to {"cmd":"snapshot","id":0,...} as its codec dumps
/// it: the snapshot document sits between these two fixed strings.
constexpr std::string_view kSnapshotHead =
    R"({"id":0,"ok":true,"result":{"snapshot":)";
constexpr std::string_view kSnapshotTail = "}}";
/// Nesting level of the snapshot value inside that envelope.
constexpr std::size_t kSnapshotDepth = 2;

/// Cut the snapshot document out of the owner's \p response without
/// building it. True iff the response is exactly the envelope above around
/// one well-formed JSON value; \p snapshot then views that value's bytes.
/// Anything else (an error envelope, another member, trailing bytes, a
/// document parse() refuses) is false, with the reason in \p error.
bool cut_snapshot(const std::string& owner, const std::string& response,
                  std::string_view& snapshot, std::string& error) {
  const std::string_view text(response);
  if (text.size() >= kSnapshotHead.size() + kSnapshotTail.size() &&
      text.starts_with(kSnapshotHead) && text.ends_with(kSnapshotTail)) {
    snapshot = text.substr(kSnapshotHead.size(), text.size() -
                                                     kSnapshotHead.size() -
                                                     kSnapshotTail.size());
    if (io::Json::validate(snapshot, error, kSnapshotDepth)) return true;
  }
  // Not the canonical envelope: the full parse names the failure (an
  // error envelope's text, or where the document breaks).
  io::Json result;
  if (parse_ok(owner, response, result, error)) {
    error = owner + " answered with an unexpected snapshot envelope";
  }
  return false;
}

/// Total payload bytes of \p journal.
std::size_t journal_bytes(const std::vector<JournalEntry>& journal) {
  std::size_t bytes = 0;
  for (const JournalEntry& entry : journal) bytes += entry.payload.size();
  return bytes;
}

/// replicate_session{base, journal, origin, seq}. The journaled payloads
/// are the codec's own dumps (Router::forward_locked), so splicing them
/// into the dumped request's empty "journal" array yields exactly the
/// bytes dumping the whole request would.
std::string append_request(std::uint64_t origin, std::uint64_t base,
                           std::uint64_t seq,
                           const std::vector<JournalEntry>& journal) {
  io::JsonObject header;
  header["base"] = io::Json(base);
  header["cmd"] = io::Json(svc::cmd::kReplicateSession);
  header["id"] = io::Json(std::uint64_t{0});
  header["journal"] = io::Json(io::JsonArray{});
  header["origin"] = io::Json(origin);
  header["seq"] = io::Json(seq);
  const std::string text = io::Json(std::move(header)).dump();
  // Every other member is a number or the command name, so this is the
  // one empty array; split just after its '['.
  constexpr std::string_view kEmptyJournal = R"("journal":[])";
  const std::size_t split = text.find(kEmptyJournal) + kEmptyJournal.size() - 1;
  std::string request;
  request.reserve(text.size() + journal_bytes(journal) + journal.size());
  request.append(text, 0, split);
  for (std::size_t i = 0; i < journal.size(); ++i) {
    if (i != 0) request += ',';
    request += journal[i].payload;
  }
  request.append(text, split);
  return request;
}

/// Rewrite the "session" field of a journaled request payload to the
/// replayed session id. False when the payload no longer parses (it was
/// acked by a backend, so this indicates memory corruption, not input).
bool rewrite_session(const std::string& payload, std::uint64_t session,
                     std::string& out, std::string& error) {
  io::Json request;
  if (!io::Json::parse(payload, request, error)) return false;
  (*request.as_object())["session"] = io::Json(session);
  out = request.dump();
  return true;
}

}  // namespace

io::Json ReplicatorCounters::to_json() const {
  io::JsonObject object;
  object["adoption_failures"] = adoption_failures.to_json();
  object["adoptions"] = adoptions.to_json();
  object["full_ships"] = full_ships.to_json();
  object["journal_truncated"] = journal_truncated.to_json();
  object["lag_ns"] = lag_ns.to_json();
  object["replays"] = replays.to_json();
  object["ship_failures"] = ship_failures.to_json();
  object["shipped"] = shipped.to_json();
  return io::Json(std::move(object));
}

bool Replicator::record_mutation(ReplicaState& state, std::string payload,
                                 std::uint64_t now_ns) {
  if (state.journal.size() >= policy_.max_journal) {
    // The journal only grows while ships keep failing; shedding the
    // oldest entry keeps memory bounded at the cost of giving up
    // replayability. The truncated flag makes that loss honest: failover
    // refuses to replay a journal with a hole (the router reports the
    // session lost), and the next successful ship heals it.
    state.journal.erase(state.journal.begin());
    state.truncated = true;
    ++counters_.journal_truncated;
  }
  if (state.journal.empty()) state.oldest_unshipped_ns = now_ns;
  state.journal.push_back(JournalEntry{std::move(payload), 0});
  ++state.muts_since_ship;
  return state.muts_since_ship >= policy_.ship_every;
}

std::string Replicator::last_ship_error() const {
  common::MutexLock lock(error_mutex_);
  return last_ship_error_;
}

void Replicator::keep_error(std::uint64_t origin, const std::string& error) {
  common::MutexLock lock(error_mutex_);
  last_ship_error_ = "origin " + std::to_string(origin) + ": " + error;
}

bool Replicator::ship_failed(std::uint64_t origin, const std::string& error) {
  ++counters_.ship_failures;
  keep_error(origin, error);
  return false;
}

void Replicator::shipped(ReplicaState& state, const std::string& peer,
                         std::uint64_t seq, std::uint64_t now_ns) {
  state.shipped_seq = seq;
  state.journal.clear();
  state.muts_since_ship = 0;
  state.peer = peer;
  state.has_replica = true;
  state.truncated = false;
  if (state.oldest_unshipped_ns != 0 &&
      now_ns >= state.oldest_unshipped_ns) {
    counters_.lag_ns.record(now_ns - state.oldest_unshipped_ns);
  }
  state.oldest_unshipped_ns = 0;
  ++counters_.shipped;
}

void Replicator::drop_stale(std::uint64_t origin, const std::string& backend,
                            const Exchange& exchange) {
  io::JsonObject drop;
  drop["cmd"] = io::Json(svc::cmd::kDropReplica);
  drop["id"] = io::Json(std::uint64_t{0});
  drop["origin"] = io::Json(origin);
  io::Json result;
  std::string error;
  if (!call_ok(exchange, backend, io::Json(std::move(drop)).dump(), result,
               error)) {
    keep_error(origin, "stale replica left on " + backend + ": " + error);
  }
}

bool Replicator::ship(std::uint64_t origin, const std::string& owner,
                      std::uint64_t owner_session, const std::string& peer,
                      const Exchange& exchange, ReplicaState& state,
                      std::uint64_t now_ns) {
  // A torn replicate may have stored an earlier attempt at the peer, so
  // each attempt's seq must be above every attempt ever sent — resending
  // a possibly-landed seq would be rejected as stale forever. The attempt
  // carries every journaled mutation so far: tag untagged entries so a
  // failover that adopts it (even via a torn-but-landed replicate) skips
  // them.
  const auto next_seq = [&state] {
    const std::uint64_t seq =
        std::max(state.shipped_seq, state.ship_attempt_seq) + 1;
    state.ship_attempt_seq = seq;
    for (JournalEntry& entry : state.journal) {
      if (entry.ship_seq == 0) entry.ship_seq = seq;
    }
    return seq;
  };
  std::string error;
  std::string fallback;  // why an append was refused, if one was
  const std::size_t appended = journal_bytes(state.journal);
  if (state.has_replica && state.peer == peer && !state.truncated &&
      state.tail_bytes + appended <= state.snapshot_bytes) {
    const std::uint64_t seq = next_seq();
    std::string response;
    if (!exchange_ok(exchange, peer,
                     append_request(origin, state.shipped_seq, seq,
                                    state.journal),
                     response, error)) {
      return ship_failed(origin, "append: " + error);
    }
    io::Json result;
    if (parse_ok(peer, response, result, error)) {
      state.tail_bytes += appended;
      shipped(state, peer, seq, now_ns);
      return true;
    }
    // The peer answered but did not apply it (no replica, or a torn ship
    // moved its seq past our base): the snapshot below starts a new log.
    fallback = "append refused (" + error + "), fell back to a full ship";
  }
  const std::string failed_prefix = fallback.empty() ? "" : fallback + ": ";
  io::JsonObject snapshot_request;
  snapshot_request["cmd"] = io::Json(svc::cmd::kSnapshot);
  snapshot_request["id"] = io::Json(std::uint64_t{0});
  snapshot_request["session"] = io::Json(owner_session);
  std::string snapshot_response;
  std::string_view snapshot;
  if (!exchange_ok(exchange, owner,
                   io::Json(std::move(snapshot_request)).dump(),
                   snapshot_response, error) ||
      !cut_snapshot(owner, snapshot_response, snapshot, error)) {
    return ship_failed(origin, failed_prefix + "snapshot: " + error);
  }
  const std::uint64_t seq = next_seq();
  // The owner's snapshot bytes go on as they came. The codec dumps keys in
  // sorted order and "snapshot" sorts after every header key, so splicing
  // it in last yields exactly the bytes dumping the whole request would.
  io::JsonObject replicate_header;
  replicate_header["cmd"] = io::Json(svc::cmd::kReplicateSession);
  replicate_header["id"] = io::Json(std::uint64_t{0});
  replicate_header["origin"] = io::Json(origin);
  replicate_header["seq"] = io::Json(seq);
  constexpr std::string_view kSnapshotMember = R"(,"snapshot":)";
  std::string replicate_request = io::Json(std::move(replicate_header)).dump();
  replicate_request.pop_back();  // the header's closing '}'
  replicate_request.reserve(replicate_request.size() + kSnapshotMember.size() +
                            snapshot.size() + 1);
  replicate_request += kSnapshotMember;
  replicate_request += snapshot;
  replicate_request += '}';
  io::Json replicate_result;
  if (!call_ok(exchange, peer, replicate_request, replicate_result, error)) {
    return ship_failed(origin, failed_prefix + "replicate: " + error);
  }
  // The replica moved: the previous peer's copy (if it was not consumed
  // by an adopt) is stale from here on.
  const std::string previous =
      state.has_replica && state.peer != peer ? state.peer : std::string();
  state.snapshot_bytes = snapshot.size();
  state.tail_bytes = 0;
  ++counters_.full_ships;
  shipped(state, peer, seq, now_ns);
  if (!fallback.empty()) keep_error(origin, fallback);
  if (!previous.empty()) drop_stale(origin, previous, exchange);
  return true;
}

bool Replicator::restore(std::uint64_t origin, const std::string& target,
                         const Exchange& exchange, ReplicaState& state,
                         std::uint64_t& backend_session, std::string& error) {
  io::Json result;
  const bool adopted = state.has_replica;
  if (state.has_replica) {
    io::JsonObject adopt_request;
    adopt_request["cmd"] = io::Json(svc::cmd::kAdoptSession);
    adopt_request["id"] = io::Json(std::uint64_t{0});
    adopt_request["origin"] = io::Json(origin);
    if (!call_ok(exchange, target, io::Json(std::move(adopt_request)).dump(),
                 result, error)) {
      ++counters_.adoption_failures;
      return false;
    }
  } else {
    // Nothing was ever shipped: the journal holds the session's entire
    // mutation history, so a fresh session + full replay reconstructs it.
    io::JsonObject create_request;
    create_request["cmd"] = io::Json(svc::cmd::kCreateSession);
    create_request["id"] = io::Json(std::uint64_t{0});
    if (!call_ok(exchange, target, io::Json(std::move(create_request)).dump(),
                 result, error)) {
      ++counters_.adoption_failures;
      return false;
    }
  }
  const io::Json* session_field = result.find("session");
  std::uint64_t session = 0;
  if (session_field == nullptr ||
      !io::json_to_u64(*session_field,
                       std::numeric_limits<std::uint64_t>::max(), session)) {
    ++counters_.adoption_failures;
    error = target + " returned no session id";
    return false;
  }
  // The adopted replica may be newer than the last *acked* ship (a torn
  // replicate that landed): its seq says exactly which journal entries
  // its snapshot already contains, and replaying those would apply them
  // twice.
  std::uint64_t adopted_seq = 0;
  if (adopted) {
    const io::Json* seq_field = result.find("seq");
    if (seq_field != nullptr) {
      (void)io::json_to_u64(*seq_field,
                            std::numeric_limits<std::uint64_t>::max(),
                             adopted_seq);
    }
  }
  for (const JournalEntry& entry : state.journal) {
    if (adopted && entry.ship_seq != 0 && entry.ship_seq <= adopted_seq) {
      continue;  // already inside the adopted snapshot
    }
    std::string replay_payload;
    if (!rewrite_session(entry.payload, session, replay_payload, error)) {
      ++counters_.adoption_failures;
      return false;
    }
    io::Json replay_result;
    if (!call_ok(exchange, target, replay_payload, replay_result, error)) {
      ++counters_.adoption_failures;
      return false;
    }
    ++counters_.replays;
  }
  backend_session = session;
  // The replica (if any) was consumed by the adopt; the caller ships a
  // fresh snapshot to a new peer to restore redundancy.
  state.peer.clear();
  state.has_replica = false;
  state.ship_attempt_seq = std::max(state.ship_attempt_seq, adopted_seq);
  ++counters_.adoptions;
  return true;
}

}  // namespace rim::shard
