#include "src/util/status.h"

#include <cstdio>
#include <cstdlib>

namespace blockhead {

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
      return "OK";
    case ErrorCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case ErrorCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case ErrorCode::kNotFound:
      return "NOT_FOUND";
    case ErrorCode::kAlreadyExists:
      return "ALREADY_EXISTS";
    case ErrorCode::kDeviceFull:
      return "DEVICE_FULL";
    case ErrorCode::kNoFreeBlocks:
      return "NO_FREE_BLOCKS";
    case ErrorCode::kZoneNotOpen:
      return "ZONE_NOT_OPEN";
    case ErrorCode::kZoneFull:
      return "ZONE_FULL";
    case ErrorCode::kZoneReadOnly:
      return "ZONE_READ_ONLY";
    case ErrorCode::kZoneOffline:
      return "ZONE_OFFLINE";
    case ErrorCode::kWritePointerMismatch:
      return "WRITE_POINTER_MISMATCH";
    case ErrorCode::kTooManyActiveZones:
      return "TOO_MANY_ACTIVE_ZONES";
    case ErrorCode::kTooManyOpenZones:
      return "TOO_MANY_OPEN_ZONES";
    case ErrorCode::kBlockBad:
      return "BLOCK_BAD";
    case ErrorCode::kProgramOrderViolation:
      return "PROGRAM_ORDER_VIOLATION";
    case ErrorCode::kEraseBeforeProgram:
      return "ERASE_BEFORE_PROGRAM";
    case ErrorCode::kCorruption:
      return "CORRUPTION";
    case ErrorCode::kNotSupported:
      return "NOT_SUPPORTED";
    case ErrorCode::kBusy:
      return "BUSY";
    case ErrorCode::kInternal:
      return "INTERNAL";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  if (ok()) {
    return "OK";
  }
  std::string out = ErrorCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

void CheckConfig(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "blockhead: invalid %s: %s\n", what, status.ToString().c_str());
    std::abort();
  }
}

}  // namespace blockhead
