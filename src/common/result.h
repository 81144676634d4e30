// Result<T, E>: a small expected-like type used for all recoverable errors in
// WA-RAN. We target C++20 (no std::expected), so we carry our own. Errors are
// cheap string-carrying values; traps and validation failures flow through
// this type rather than exceptions so they can cross the plugin boundary
// safely.
#pragma once

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace waran {

/// Error payload carried by a failed Result. The `code` is a stable,
/// machine-comparable discriminator; `message` is for humans/logs.
struct Error {
  enum class Code {
    kInvalidArgument,
    kDecode,       // malformed binary (wasm, codec payloads, ...)
    kValidation,   // well-formed but type/structure rules violated
    kTrap,         // wasm runtime trap (OOB, unreachable, ...)
    kFuelExhausted,
    kNotFound,
    kLimitExceeded,
    kState,        // operation invalid in current state
    kUnsupported,
    kInternal,
  };

  Code code = Code::kInternal;
  std::string message;

  static Error invalid_argument(std::string msg) { return {Code::kInvalidArgument, std::move(msg)}; }
  static Error decode(std::string msg) { return {Code::kDecode, std::move(msg)}; }
  static Error validation(std::string msg) { return {Code::kValidation, std::move(msg)}; }
  static Error trap(std::string msg) { return {Code::kTrap, std::move(msg)}; }
  static Error fuel_exhausted(std::string msg) { return {Code::kFuelExhausted, std::move(msg)}; }
  static Error not_found(std::string msg) { return {Code::kNotFound, std::move(msg)}; }
  static Error limit_exceeded(std::string msg) { return {Code::kLimitExceeded, std::move(msg)}; }
  static Error state(std::string msg) { return {Code::kState, std::move(msg)}; }
  static Error unsupported(std::string msg) { return {Code::kUnsupported, std::move(msg)}; }
  static Error internal(std::string msg) { return {Code::kInternal, std::move(msg)}; }
};

inline const char* to_string(Error::Code c) {
  switch (c) {
    case Error::Code::kInvalidArgument: return "invalid-argument";
    case Error::Code::kDecode: return "decode";
    case Error::Code::kValidation: return "validation";
    case Error::Code::kTrap: return "trap";
    case Error::Code::kFuelExhausted: return "fuel-exhausted";
    case Error::Code::kNotFound: return "not-found";
    case Error::Code::kLimitExceeded: return "limit-exceeded";
    case Error::Code::kState: return "state";
    case Error::Code::kUnsupported: return "unsupported";
    case Error::Code::kInternal: return "internal";
  }
  return "unknown";
}

template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : v_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Error err) : v_(std::move(err)) {}  // NOLINT: implicit by design

  bool ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return ok(); }

  T& value() & { assert(ok()); return std::get<T>(v_); }
  const T& value() const& { assert(ok()); return std::get<T>(v_); }
  T&& value() && { assert(ok()); return std::get<T>(std::move(v_)); }

  const Error& error() const { assert(!ok()); return std::get<Error>(v_); }

  T value_or(T fallback) const& { return ok() ? std::get<T>(v_) : std::move(fallback); }

  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }
  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }

 private:
  std::variant<T, Error> v_;
};

/// Result<void> analogue.
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(Error err) : err_(std::move(err)), failed_(true) {}  // NOLINT

  bool ok() const { return !failed_; }
  explicit operator bool() const { return ok(); }
  const Error& error() const { assert(failed_); return err_; }

 private:
  Error err_;
  bool failed_ = false;
};

// Propagate-on-error helpers. `expr` must yield a Result<T>/Status.
#define WARAN_TRY(var, expr)                              \
  auto var##_res = (expr);                                \
  if (!var##_res.ok()) return var##_res.error();          \
  auto& var = *var##_res

#define WARAN_CHECK_OK(expr)                              \
  do {                                                    \
    auto _st = (expr);                                    \
    if (!_st.ok()) return _st.error();                    \
  } while (0)

}  // namespace waran
