// Lightweight, exception-free error handling used across the device models and host stacks.
//
// Device operations on hot paths return Result<SimTime> (completion time or error); hosts
// inspect codes like kWritePointerMismatch or kTooManyActiveZones that mirror the NVMe ZNS
// status codes the paper discusses.

#ifndef BLOCKHEAD_SRC_UTIL_STATUS_H_
#define BLOCKHEAD_SRC_UTIL_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace blockhead {

// Error taxonomy. The zone-specific codes correspond to NVMe ZNS command status values; the
// generic ones cover the host-side stacks (filesystem, KV store, cache).
enum class ErrorCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kAlreadyExists,
  kDeviceFull,
  kNoFreeBlocks,
  // Zone interface errors (mirroring ZNS command statuses).
  kZoneNotOpen,
  kZoneFull,
  kZoneReadOnly,
  kZoneOffline,
  kWritePointerMismatch,
  kTooManyActiveZones,
  kTooManyOpenZones,
  // Flash-level errors.
  kBlockBad,
  kProgramOrderViolation,
  kEraseBeforeProgram,
  // Host stack errors.
  kCorruption,
  kNotSupported,
  kBusy,
  kInternal,
};

// Returns a stable human-readable name for an error code.
const char* ErrorCodeName(ErrorCode code);

// A status: an error code plus an optional message. Ok statuses carry no allocation.
class Status {
 public:
  Status() : code_(ErrorCode::kOk) {}
  explicit Status(ErrorCode code) : code_(code) {}
  Status(ErrorCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Renders "OK" or "<CODE>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) { return a.code_ == b.code_; }

 private:
  ErrorCode code_;
  std::string message_;
};

// A value-or-status result. Accessing the value of a failed result asserts in debug builds and
// is undefined in release builds; callers must check ok() first.
template <typename T>
class Result {
 public:
  // Implicit from value: lets functions `return completion_time;`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  // Implicit from error status: lets functions `return Status(ErrorCode::kZoneFull);`.
  Result(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    assert(!status_.ok() && "Result constructed from OK status without a value");
  }
  Result(ErrorCode code) : status_(code) {}  // NOLINT(google-explicit-constructor)

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }
  ErrorCode code() const { return value_.has_value() ? ErrorCode::kOk : status_.code(); }

  const T& value() const& {
    assert(value_.has_value());
    return *value_;
  }
  T& value() & {
    assert(value_.has_value());
    return *value_;
  }
  T&& value() && {
    assert(value_.has_value());
    return *std::move(value_);
  }

  const T& value_or(const T& fallback) const& { return value_.has_value() ? *value_ : fallback; }

  const T& operator*() const& { return value(); }
  const T* operator->() const { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;
};

// Evaluates `expr` (a Status-returning expression) and early-returns on failure.
#define BLOCKHEAD_RETURN_IF_ERROR(expr)        \
  do {                                         \
    ::blockhead::Status _bh_status = (expr);   \
    if (!_bh_status.ok()) return _bh_status;   \
  } while (false)

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_UTIL_STATUS_H_
