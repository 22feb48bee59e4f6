#include "rim/svc/client.hpp"

#include <limits>
#include <utility>

namespace rim::svc {

namespace {

/// Read an unsigned field out of a result document (fallback on absence).
std::uint64_t u64_field(const io::Json& result, const char* key,
                        std::uint64_t fallback = 0) {
  const io::Json* field = result.find(key);
  std::uint64_t value = 0;
  if (field == nullptr ||
      !io::json_to_u64(*field,
                       std::numeric_limits<std::uint64_t>::max(), value)) {
    return fallback;
  }
  return value;
}

io::JsonObject session_params(std::uint64_t session) {
  io::JsonObject params;
  params["session"] = io::Json(session);
  return params;
}

}  // namespace

common::Unexpected<SvcError> Client::fail(SvcError error) {
  error_ = error.message;
  error_code_ = error.wire_code();
  return common::Unexpected(std::move(error));
}

common::Unexpected<SvcError> Client::transport_failure(std::string message) {
  return fail(SvcError{SvcErrorCode::kTransport, std::move(message)});
}

SvcResult<io::Json> Client::try_call(const std::string& command,
                                     io::JsonObject params) {
  error_.clear();
  error_code_.clear();
  last_response_payload_.clear();
  last_id_ = next_id_++;
  params["cmd"] = io::Json(command);
  params["id"] = io::Json(last_id_);
  const std::string payload = io::Json(std::move(params)).dump();
  std::string response_frame;
  std::string transport_error;
  const TransportStatus transport_status = transport_.roundtrip(
      encode_frame(payload), response_frame, transport_error);
  if (transport_status == TransportStatus::kConnectionLost) {
    // A torn exchange is typed distinctly from other transport failures:
    // the request may or may not have been applied, and the shard
    // router's failover path keys on exactly this code (DESIGN.md §14).
    return fail(
        SvcError{SvcErrorCode::kConnectionLost, std::move(transport_error)});
  }
  if (transport_status != TransportStatus::kOk) {
    return transport_failure(std::move(transport_error));
  }
  std::size_t consumed = 0;
  const FrameStatus status = try_decode_frame(
      response_frame, std::numeric_limits<std::uint32_t>::max(), consumed,
      last_response_payload_);
  if (status != FrameStatus::kFrame) {
    return transport_failure("transport returned an incomplete frame");
  }
  io::Json response;
  std::string parse_error;
  if (!io::Json::parse(last_response_payload_, response, parse_error)) {
    return transport_failure("unparseable response: " + parse_error);
  }
  if (!response.is_object()) {
    return transport_failure("response is not a JSON object");
  }
  const io::Json* ok = response.find("ok");
  if (ok == nullptr) {
    return transport_failure("response carries no 'ok' field");
  }
  if (!ok->as_bool(false)) {
    const io::Json* code = response.find("code");
    const io::Json* message = response.find("error");
    const std::string* code_str =
        code != nullptr ? code->as_string() : nullptr;
    const std::string* message_str =
        message != nullptr ? message->as_string() : nullptr;
    SvcError error;
    error.code = code_str != nullptr ? code_from_wire(*code_str)
                                     : SvcErrorCode::kInternal;
    error.message = message_str != nullptr ? *message_str : "unknown error";
    // Preserve the verbatim wire code (even an unrecognised one) for the
    // string-based diagnostics accessors.
    error_ = error.message;
    error_code_ = code_str != nullptr ? *code_str : error.wire_code();
    return common::Unexpected(std::move(error));
  }
  io::Json* result_field = response.find("result");
  return result_field != nullptr ? std::move(*result_field) : io::Json();
}

SvcResult<void> Client::try_ping() {
  SvcResult<io::Json> result = try_call(cmd::kPing, {});
  if (!result.has_value()) {
    return common::Unexpected(std::move(result).error());
  }
  return {};
}

SvcResult<std::uint64_t> Client::try_create_session() {
  SvcResult<io::Json> result = try_call(cmd::kCreateSession, {});
  if (!result.has_value()) {
    return common::Unexpected(std::move(result).error());
  }
  return u64_field(*result, "session");
}

SvcResult<void> Client::try_close_session(std::uint64_t session) {
  SvcResult<io::Json> result =
      try_call(cmd::kCloseSession, session_params(session));
  if (!result.has_value()) {
    return common::Unexpected(std::move(result).error());
  }
  return {};
}

SvcResult<NodeId> Client::try_add_node(std::uint64_t session, double x,
                                       double y) {
  io::JsonObject params = session_params(session);
  params["x"] = io::Json(x);
  params["y"] = io::Json(y);
  SvcResult<io::Json> result = try_call(cmd::kAddNode, std::move(params));
  if (!result.has_value()) {
    return common::Unexpected(std::move(result).error());
  }
  return static_cast<NodeId>(u64_field(*result, "node", kInvalidNode));
}

SvcResult<NodeId> Client::try_remove_node(std::uint64_t session, NodeId v) {
  io::JsonObject params = session_params(session);
  params["v"] = io::Json(v);
  SvcResult<io::Json> result = try_call(cmd::kRemoveNode, std::move(params));
  if (!result.has_value()) {
    return common::Unexpected(std::move(result).error());
  }
  return static_cast<NodeId>(u64_field(*result, "renamed", kInvalidNode));
}

SvcResult<bool> Client::try_add_edge(std::uint64_t session, NodeId u,
                                     NodeId v) {
  io::JsonObject params = session_params(session);
  params["u"] = io::Json(u);
  params["v"] = io::Json(v);
  SvcResult<io::Json> result = try_call(cmd::kAddEdge, std::move(params));
  if (!result.has_value()) {
    return common::Unexpected(std::move(result).error());
  }
  const io::Json* field = result->find("added");
  return field != nullptr && field->as_bool(false);
}

SvcResult<bool> Client::try_remove_edge(std::uint64_t session, NodeId u,
                                        NodeId v) {
  io::JsonObject params = session_params(session);
  params["u"] = io::Json(u);
  params["v"] = io::Json(v);
  SvcResult<io::Json> result = try_call(cmd::kRemoveEdge, std::move(params));
  if (!result.has_value()) {
    return common::Unexpected(std::move(result).error());
  }
  const io::Json* field = result->find("removed");
  return field != nullptr && field->as_bool(false);
}

SvcResult<void> Client::try_move_node(std::uint64_t session, NodeId v,
                                      double x, double y) {
  io::JsonObject params = session_params(session);
  params["v"] = io::Json(v);
  params["x"] = io::Json(x);
  params["y"] = io::Json(y);
  SvcResult<io::Json> result = try_call(cmd::kMove, std::move(params));
  if (!result.has_value()) {
    return common::Unexpected(std::move(result).error());
  }
  return {};
}

SvcResult<core::BatchResult> Client::try_apply_batch(
    std::uint64_t session, std::span<const core::Mutation> batch) {
  io::JsonObject params = session_params(session);
  io::JsonArray mutations;
  mutations.reserve(batch.size());
  for (const core::Mutation& mutation : batch) {
    mutations.push_back(mutation_to_json(mutation));
  }
  params["batch"] = io::Json(std::move(mutations));
  SvcResult<io::Json> reply = try_call(cmd::kApplyBatch, std::move(params));
  if (!reply.has_value()) {
    return common::Unexpected(std::move(reply).error());
  }
  core::BatchResult result;
  result.applied = static_cast<std::size_t>(u64_field(*reply, "applied"));
  result.disk_tasks =
      static_cast<std::size_t>(u64_field(*reply, "disk_tasks"));
  result.recounts = static_cast<std::size_t>(u64_field(*reply, "recounts"));
  result.waves = static_cast<std::size_t>(u64_field(*reply, "waves"));
  result.abort_index =
      static_cast<std::size_t>(u64_field(*reply, "abort_index"));
  const io::Json* deferred = reply->find("deferred");
  const io::Json* aborted = reply->find("aborted");
  result.deferred = deferred != nullptr && deferred->as_bool(false);
  result.aborted = aborted != nullptr && aborted->as_bool(false);
  return result;
}

SvcResult<io::Json> Client::try_assess(
    std::uint64_t session, std::span<const core::Mutation> mutations) {
  io::JsonObject params = session_params(session);
  io::JsonArray array;
  array.reserve(mutations.size());
  for (const core::Mutation& mutation : mutations) {
    array.push_back(mutation_to_json(mutation));
  }
  params["mutations"] = io::Json(std::move(array));
  return try_call(cmd::kAssess, std::move(params));
}

SvcResult<io::Json> Client::try_query_interference(std::uint64_t session) {
  return try_call(cmd::kQueryInterference, session_params(session));
}

SvcResult<std::uint32_t> Client::try_query_interference_of(
    std::uint64_t session, NodeId v) {
  io::JsonObject params = session_params(session);
  params["v"] = io::Json(v);
  SvcResult<io::Json> result =
      try_call(cmd::kQueryInterference, std::move(params));
  if (!result.has_value()) {
    return common::Unexpected(std::move(result).error());
  }
  return static_cast<std::uint32_t>(u64_field(*result, "value"));
}

SvcResult<io::Json> Client::try_snapshot(std::uint64_t session) {
  SvcResult<io::Json> result =
      try_call(cmd::kSnapshot, session_params(session));
  if (!result.has_value()) {
    return common::Unexpected(std::move(result).error());
  }
  const io::Json* doc = result->find("snapshot");
  if (doc == nullptr) {
    return transport_failure("snapshot result carries no 'snapshot' field");
  }
  return *doc;
}

SvcResult<void> Client::try_restore(std::uint64_t session,
                                    const io::Json& snapshot_doc) {
  io::JsonObject params = session_params(session);
  params["snapshot"] = snapshot_doc;
  SvcResult<io::Json> result = try_call(cmd::kRestore, std::move(params));
  if (!result.has_value()) {
    return common::Unexpected(std::move(result).error());
  }
  return {};
}

SvcResult<io::Json> Client::try_session_stats(std::uint64_t session) {
  return try_call(cmd::kSessionStats, session_params(session));
}

SvcResult<io::Json> Client::try_metrics() {
  return try_call(cmd::kMetrics, {});
}

SvcResult<void> Client::try_shutdown() {
  SvcResult<io::Json> result = try_call(cmd::kShutdown, {});
  if (!result.has_value()) {
    return common::Unexpected(std::move(result).error());
  }
  return {};
}

}  // namespace rim::svc
