// Lightweight status / StatusOr error handling for microrec.
//
// The library is exception-free on its hot paths: fallible construction and
// configuration APIs return Status / StatusOr<T>, while programming errors
// (contract violations) abort via MICROREC_CHECK.
#pragma once

#include <cstdlib>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace microrec {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kFailedPrecondition,
  kResourceExhausted,
  kNotFound,
  kInternal,
};

/// Returns a stable human-readable name for a status code ("OK",
/// "INVALID_ARGUMENT", ...).
std::string_view StatusCodeName(StatusCode code);

/// Value-semantic error descriptor. A default-constructed Status is OK.
class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CODE>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& s);

/// Either a value of T or a non-OK Status. Minimal absl::StatusOr analogue.
template <typename T>
class StatusOr {
 public:
  StatusOr(const T& value) : value_(value) {}          // NOLINT(runtime/explicit)
  StatusOr(T&& value) : value_(std::move(value)) {}    // NOLINT(runtime/explicit)
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    if (status_.ok()) {
      status_ = Status::Internal("StatusOr constructed from OK status");
    }
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    CheckHasValue();
    return *value_;
  }
  T& value() & {
    CheckHasValue();
    return *value_;
  }
  T&& value() && {
    CheckHasValue();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void CheckHasValue() const {
    if (!value_.has_value()) {
      std::abort();
    }
  }

  std::optional<T> value_;
  Status status_;
};

namespace internal {
[[noreturn]] void CheckFailed(const char* expr, const char* file, int line);
}  // namespace internal

}  // namespace microrec

/// Aborts with a diagnostic when `expr` is false. Used for contract
/// violations that indicate bugs (not recoverable input errors).
#define MICROREC_CHECK(expr)                                         \
  do {                                                               \
    if (!(expr)) {                                                   \
      ::microrec::internal::CheckFailed(#expr, __FILE__, __LINE__);  \
    }                                                                \
  } while (0)

/// Propagates a non-OK Status from an expression returning Status.
#define MICROREC_RETURN_IF_ERROR(expr)          \
  do {                                          \
    ::microrec::Status _st = (expr);            \
    if (!_st.ok()) return _st;                  \
  } while (0)
