#include "rim/svc/errors.hpp"

#include "rim/svc/protocol.hpp"

namespace rim::svc {

const char* to_wire(SvcErrorCode code) {
  switch (code) {
    case SvcErrorCode::kTransport:
      return "transport";
    case SvcErrorCode::kConnectionLost:
      return "connection_lost";
    case SvcErrorCode::kBadFrame:
      return code::kBadFrame;
    case SvcErrorCode::kBadRequest:
      return code::kBadRequest;
    case SvcErrorCode::kUnknownCommand:
      return code::kUnknownCommand;
    case SvcErrorCode::kNoSession:
      return code::kNoSession;
    case SvcErrorCode::kNoReplica:
      return code::kNoReplica;
    case SvcErrorCode::kReplicaMismatch:
      return code::kReplicaMismatch;
    case SvcErrorCode::kOverloaded:
      return code::kOverloaded;
    case SvcErrorCode::kRestoreFailed:
      return code::kRestoreFailed;
    case SvcErrorCode::kFaultDisabled:
      return code::kFaultDisabled;
    case SvcErrorCode::kShutdownDisabled:
      return code::kShutdownDisabled;
    case SvcErrorCode::kInternal:
      return code::kInternal;
  }
  return code::kInternal;
}

SvcErrorCode code_from_wire(std::string_view wire) {
  if (wire == "transport") return SvcErrorCode::kTransport;
  if (wire == "connection_lost") return SvcErrorCode::kConnectionLost;
  if (wire == code::kBadFrame) return SvcErrorCode::kBadFrame;
  if (wire == code::kBadRequest) return SvcErrorCode::kBadRequest;
  if (wire == code::kUnknownCommand) return SvcErrorCode::kUnknownCommand;
  if (wire == code::kNoSession) return SvcErrorCode::kNoSession;
  if (wire == code::kNoReplica) return SvcErrorCode::kNoReplica;
  if (wire == code::kReplicaMismatch) return SvcErrorCode::kReplicaMismatch;
  if (wire == code::kOverloaded) return SvcErrorCode::kOverloaded;
  if (wire == code::kRestoreFailed) return SvcErrorCode::kRestoreFailed;
  if (wire == code::kFaultDisabled) return SvcErrorCode::kFaultDisabled;
  if (wire == code::kShutdownDisabled) return SvcErrorCode::kShutdownDisabled;
  return SvcErrorCode::kInternal;
}

}  // namespace rim::svc
