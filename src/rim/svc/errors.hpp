#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "rim/common/expected.hpp"

/// \file errors.hpp
/// Typed error surface of the scenario service client.
///
/// SvcErrorCode mirrors the wire envelope codes of protocol.hpp one-to-one
/// (plus kTransport for failures below the protocol: connection loss,
/// framing, unparseable responses). svc::Client's typed calls return
/// common::Expected<T, SvcError>, so callers branch on the code instead of
/// string-comparing error_code().

namespace rim::svc {

/// One enumerator per wire error code (protocol.hpp, namespace code), plus
/// kTransport/kConnectionLost for sub-protocol failures.
enum class SvcErrorCode : std::uint8_t {
  kTransport,         ///< framing/parse failure (no envelope)
  kConnectionLost,    ///< peer vanished mid-exchange (reset/EOF/deadline);
                      ///< distinct from kTransport so the shard router can
                      ///< tell "fail over" from "give up"
  kBadFrame,          ///< "bad_frame"
  kBadRequest,        ///< "bad_request"
  kUnknownCommand,    ///< "unknown_command"
  kNoSession,         ///< "no_session"
  kNoReplica,         ///< "no_replica" (adopt_session found no replica)
  kReplicaMismatch,   ///< "replica_mismatch" (append base != stored seq)
  kOverloaded,        ///< "overloaded" (admission control shed the request)
  kRestoreFailed,     ///< "restore_failed"
  kFaultDisabled,     ///< "fault_disabled"
  kShutdownDisabled,  ///< "shutdown_disabled"
  kInternal,          ///< "internal" or any unrecognised wire code
};

/// Wire string of a code ("transport" for kTransport).
[[nodiscard]] const char* to_wire(SvcErrorCode code);

/// Inverse of to_wire; unrecognised strings map to kInternal, matching the
/// envelope contract that unknown codes are server-side failures.
[[nodiscard]] SvcErrorCode code_from_wire(std::string_view wire);

/// A typed service failure: the enumerated code plus the human-readable
/// message from the error envelope (or the transport's own diagnostic).
struct SvcError {
  SvcErrorCode code = SvcErrorCode::kInternal;
  std::string message;

  /// Shed by admission control — the one code worth retrying after backoff.
  [[nodiscard]] bool retryable() const {
    return code == SvcErrorCode::kOverloaded;
  }
  [[nodiscard]] const char* wire_code() const { return to_wire(code); }
};

/// The result shape of every typed Client call.
template <typename T>
using SvcResult = common::Expected<T, SvcError>;

}  // namespace rim::svc
