// Lightweight error propagation: Status and Result<T>.
//
// The library avoids exceptions on hot paths (the simulation kernel and the
// auction tick run millions of times per experiment); fallible operations
// return Status / Result<T> instead. Programming errors use GM_ASSERT.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

namespace gm {

enum class StatusCode : std::uint8_t {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kPermissionDenied,
  kFailedPrecondition,
  kOutOfRange,
  kResourceExhausted,
  kUnavailable,
  kDeadlineExceeded,
  kInternal,
  kUnauthenticated,
  // A replayed settlement/transfer token hit the double-spend registry:
  // the id was already claimed once. Distinct from kAlreadyExists so the
  // scenario adversary layer and SLO checker can count replay rejections
  // separately from benign name collisions.
  kAlreadyClaimed,
};

/// Human readable name for a status code ("ok", "not_found", ...).
const char* StatusCodeName(StatusCode code);

/// A success-or-error value. Cheap to copy on success (no allocation).
///
/// [[nodiscard]]: every funded transfer, WAL append and settlement
/// outcome must be checked — a silently dropped error is exactly the
/// accounting bug class the market substrate cannot tolerate. Deliberate discards must
/// say so with a (void) cast and a justifying comment.
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string m) {
    return {StatusCode::kInvalidArgument, std::move(m)};
  }
  static Status NotFound(std::string m) {
    return {StatusCode::kNotFound, std::move(m)};
  }
  static Status AlreadyExists(std::string m) {
    return {StatusCode::kAlreadyExists, std::move(m)};
  }
  static Status PermissionDenied(std::string m) {
    return {StatusCode::kPermissionDenied, std::move(m)};
  }
  static Status FailedPrecondition(std::string m) {
    return {StatusCode::kFailedPrecondition, std::move(m)};
  }
  static Status OutOfRange(std::string m) {
    return {StatusCode::kOutOfRange, std::move(m)};
  }
  static Status ResourceExhausted(std::string m) {
    return {StatusCode::kResourceExhausted, std::move(m)};
  }
  static Status Unavailable(std::string m) {
    return {StatusCode::kUnavailable, std::move(m)};
  }
  static Status DeadlineExceeded(std::string m) {
    return {StatusCode::kDeadlineExceeded, std::move(m)};
  }
  static Status Internal(std::string m) {
    return {StatusCode::kInternal, std::move(m)};
  }
  static Status Unauthenticated(std::string m) {
    return {StatusCode::kUnauthenticated, std::move(m)};
  }
  static Status AlreadyClaimed(std::string m) {
    return {StatusCode::kAlreadyClaimed, std::move(m)};
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "ok" or "<code>: <message>".
  std::string ToString() const;

  /// Keep the first error: take `other` only while this is still ok.
  void Update(Status other) {
    if (ok()) *this = std::move(other);
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// A value or an error. `ok()` implies the value is present.
template <typename T>
class [[nodiscard]] Result {
  static_assert(!std::is_same_v<T, Status>,
                "Result<Status> is ambiguous; return Status directly");

 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result(Status) requires an error status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace gm

/// Propagate an error Status from an expression returning Status.
#define GM_RETURN_IF_ERROR(expr)               \
  do {                                         \
    ::gm::Status gm_status_ = (expr);          \
    if (!gm_status_.ok()) return gm_status_;   \
  } while (false)

/// Assign the value of a Result<T> expression or propagate its error.
#define GM_ASSIGN_OR_RETURN(lhs, expr)             \
  auto GM_CONCAT_(gm_result_, __LINE__) = (expr);  \
  if (!GM_CONCAT_(gm_result_, __LINE__).ok())      \
    return GM_CONCAT_(gm_result_, __LINE__).status(); \
  lhs = std::move(GM_CONCAT_(gm_result_, __LINE__)).value()

#define GM_CONCAT_INNER_(a, b) a##b
#define GM_CONCAT_(a, b) GM_CONCAT_INNER_(a, b)

/// Invariant check that stays on in release builds.
#define GM_ASSERT(cond, msg)                                        \
  do {                                                              \
    if (!(cond)) ::gm::internal::AssertFail(#cond, msg, __FILE__, __LINE__); \
  } while (false)

namespace gm::internal {
[[noreturn]] void AssertFail(const char* cond, const char* msg,
                             const char* file, int line);
}  // namespace gm::internal
