#ifndef NERGLOB_COMMON_STATUS_H_
#define NERGLOB_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

namespace nerglob {

/// Error categories used across the library. Modeled after the
/// Status idiom used by RocksDB/Arrow: fallible operations return a
/// Status (or Result<T>) instead of throwing.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kUnimplemented,
  kIoError,
  /// Transient overload: the operation was rejected by admission control
  /// (e.g. a serving queue at its capacity) and may succeed if
  /// retried after the backlog drains.
  kUnavailable,
  /// Unrecoverable loss or corruption of owned state: the target (e.g. a
  /// quarantined serving session, or a checkpoint directory with no valid
  /// generation) cannot serve this request and retrying will not help;
  /// callers recover from a checkpoint or discard the stream.
  kDataLoss,
};

/// Returns a human-readable name for a StatusCode ("OK", "InvalidArgument"...).
const char* StatusCodeName(StatusCode code);

/// A cheap value type describing the outcome of a fallible operation.
///
/// Usage:
///   Status s = DoThing();
///   if (!s.ok()) return s;
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Result<T> carries either a value or an error Status.
///
/// Usage:
///   Result<int> r = ParseInt(s);
///   if (!r.ok()) return r.status();
///   int v = r.value();
template <typename T>
class Result {
 public:
  /// Implicit from value and from error Status, mirroring absl::StatusOr.
  Result(T value) : value_(std::move(value)) {}             // NOLINT
  Result(Status status) : status_(std::move(status)) {}     // NOLINT

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return *std::move(value_); }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace nerglob

/// Propagates a non-OK Status from the current function.
#define NERGLOB_RETURN_IF_ERROR(expr)                  \
  do {                                                 \
    ::nerglob::Status _st = (expr);                    \
    if (!_st.ok()) return _st;                         \
  } while (0)

#endif  // NERGLOB_COMMON_STATUS_H_
