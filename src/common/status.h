// Lightweight Status / Result types used across the library.
//
// The public API of verdictdb-cpp does not throw exceptions; fallible
// operations return Status (void results) or Result<T> (value results).

#ifndef VDB_COMMON_STATUS_H_
#define VDB_COMMON_STATUS_H_

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

namespace vdb {

/// Error category for a failed operation.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   // malformed input (bad SQL, bad parameter)
  kNotFound,          // missing table / column / sample
  kAlreadyExists,     // duplicate table or sample
  kUnsupported,       // valid SQL the engine or rewriter does not handle
  kInternal,          // invariant violation inside the library
  kCancelled,         // statement cancelled cooperatively (ExecGuard)
  kDeadlineExceeded,  // statement ran past its monotonic deadline
  kResourceExhausted, // memory budget tripped before an allocation
};

/// A success-or-error result with a human-readable message.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status NotFound(std::string m) {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status AlreadyExists(std::string m) {
    return Status(StatusCode::kAlreadyExists, std::move(m));
  }
  static Status Unsupported(std::string m) {
    return Status(StatusCode::kUnsupported, std::move(m));
  }
  static Status Internal(std::string m) {
    return Status(StatusCode::kInternal, std::move(m));
  }
  static Status Cancelled(std::string m) {
    return Status(StatusCode::kCancelled, std::move(m));
  }
  static Status DeadlineExceeded(std::string m) {
    return Status(StatusCode::kDeadlineExceeded, std::move(m));
  }
  static Status ResourceExhausted(std::string m) {
    return Status(StatusCode::kResourceExhausted, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<code>: <message>".
  std::string ToString() const {
    if (ok()) return "OK";
    const char* name = "UNKNOWN";
    switch (code_) {
      case StatusCode::kOk: name = "OK"; break;
      case StatusCode::kInvalidArgument: name = "INVALID_ARGUMENT"; break;
      case StatusCode::kNotFound: name = "NOT_FOUND"; break;
      case StatusCode::kAlreadyExists: name = "ALREADY_EXISTS"; break;
      case StatusCode::kUnsupported: name = "UNSUPPORTED"; break;
      case StatusCode::kInternal: name = "INTERNAL"; break;
      case StatusCode::kCancelled: name = "CANCELLED"; break;
      case StatusCode::kDeadlineExceeded: name = "DEADLINE_EXCEEDED"; break;
      case StatusCode::kResourceExhausted: name = "RESOURCE_EXHAUSTED"; break;
    }
    return std::string(name) + ": " + message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Prints `status` and aborts: the defined, loud end of Result misuse in
/// every build type (assert alone compiles out in Release, where the bad
/// access would dereference an empty optional instead).
[[noreturn]] inline void DieOnBadResultAccess(const Status& status,
                                              const char* what) {
  std::fprintf(stderr, "vdb: %s: %s\n", what, status.ToString().c_str());
  std::fflush(stderr);
  std::abort();
}

/// A value-or-error result. Reading the value of an error Result, and
/// constructing a Result from an OK Status, are programming errors that
/// print the status and abort in every build type.
template <typename T>
class Result {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): intentional, mirrors absl.
  Result(T value) : value_(std::move(value)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {
    if (status_.ok()) {
      DieOnBadResultAccess(status_, "Result built from an OK Status");
    }
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() {
    CheckOk();
    return *value_;
  }
  const T& value() const {
    CheckOk();
    return *value_;
  }
  T ValueOrDie() && {
    CheckOk();
    return std::move(*value_);
  }

 private:
  void CheckOk() const {
    if (!ok()) DieOnBadResultAccess(status_, "value() of an error Result");
  }

  std::optional<T> value_;
  Status status_;
};

}  // namespace vdb

/// Propagates a non-OK Status from an expression, absl-style.
#define VDB_RETURN_IF_ERROR(expr)              \
  do {                                         \
    ::vdb::Status _st = (expr);                \
    if (!_st.ok()) return _st;                 \
  } while (0)

#endif  // VDB_COMMON_STATUS_H_
