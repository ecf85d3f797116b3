// Error types and runtime check macros shared by all ccd libraries.
//
// The library reports precondition violations and unrecoverable runtime
// failures by throwing subclasses of ccd::Error (itself a
// std::runtime_error), so callers can catch per-domain or catch-all.
//
// Every Error carries a stable ErrorCode (for scripted triage — ccdctl maps
// codes to process exit codes via exit_code()) and an attachable
// ErrorContext (worker id, pipeline stage, round, suppressed-failure count).
// Context is attached at the recovery boundary that knows it, typically by
// catching `Error&` by non-const reference, annotating, and rethrowing with
// a bare `throw;` — this preserves the dynamic exception type:
//
//   try { fit(...); }
//   catch (Error& e) { e.with_stage("fit").with_worker(id); throw; }
//
// what() renders the message plus any attached context, so downstream
// catch-sites and logs see the full story without extra plumbing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ccd {

/// Stable error category codes. Values are part of the tooling contract:
/// ccdctl exits with exit_code(code), and scripted sweeps triage on them —
/// never renumber.
enum class ErrorCode : int {
  kGeneric = 1,   ///< uncategorized ccd::Error (includes CCD_CHECK failures)
  kConfig = 2,    ///< ConfigError
  kData = 3,      ///< DataError
  kMath = 4,      ///< MathError
  kContract = 5,  ///< ContractError
  kDeadline = 6,  ///< CancelledError — run cancelled or deadline expired
  kAuth = 7,      ///< AuthError — transport authentication failed
};

inline const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kGeneric: return "generic";
    case ErrorCode::kConfig: return "config";
    case ErrorCode::kData: return "data";
    case ErrorCode::kMath: return "math";
    case ErrorCode::kContract: return "contract";
    case ErrorCode::kDeadline: return "deadline";
    case ErrorCode::kAuth: return "auth";
  }
  return "?";
}

/// Process exit code for an error category (ConfigError=2, DataError=3,
/// MathError=4, ContractError=5, CancelledError=6, AuthError=7, anything
/// else 1).
inline int exit_code(ErrorCode code) { return static_cast<int>(code); }

/// Provenance attached to an Error as it crosses recovery boundaries.
/// Fields left unset stay out of what(); a stage, worker or round
/// annotation never overwrites one already set, so the innermost (most
/// specific) one wins.
struct ErrorContext {
  static constexpr std::int64_t kUnset = -1;

  std::string stage;              ///< pipeline stage name ("fit", "solve", ...)
  std::int64_t worker = kUnset;   ///< offending worker id
  std::int64_t round = kUnset;    ///< offending round index
  /// Additional task failures beyond the rethrown first one (set by
  /// ThreadPool::parallel_for when several chunks throw).
  std::size_t suppressed_failures = 0;

  /// Renders e.g. " [stage=solve worker=12 round=3]" — empty string when
  /// nothing is set. The suppressed-failure note renders separately.
  std::string to_string() const {
    if (stage.empty() && worker == kUnset && round == kUnset) return "";
    std::ostringstream os;
    os << " [";
    bool first = true;
    const auto sep = [&] {
      if (!first) os << ' ';
      first = false;
    };
    if (!stage.empty()) {
      sep();
      os << "stage=" << stage;
    }
    if (worker != kUnset) {
      sep();
      os << "worker=" << worker;
    }
    if (round != kUnset) {
      sep();
      os << "round=" << round;
    }
    os << ']';
    return os.str();
  }
};

/// Root of the ccd exception hierarchy.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what, ErrorCode code = ErrorCode::kGeneric)
      : std::runtime_error(what), message_(what), full_(what), code_(code) {}

  /// Message plus rendered context (identical to the raw message while no
  /// context is attached).
  const char* what() const noexcept override { return full_.c_str(); }

  ErrorCode code() const { return code_; }
  const ErrorContext& context() const { return context_; }
  /// The original message without context decoration.
  const std::string& message() const { return message_; }

  Error& with_stage(const std::string& stage) {
    if (context_.stage.empty()) context_.stage = stage;
    rebuild();
    return *this;
  }
  Error& with_worker(std::int64_t worker) {
    if (context_.worker == ErrorContext::kUnset) context_.worker = worker;
    rebuild();
    return *this;
  }
  Error& with_round(std::int64_t round) {
    if (context_.round == ErrorContext::kUnset) context_.round = round;
    rebuild();
    return *this;
  }
  Error& with_suppressed_failures(std::size_t count) {
    context_.suppressed_failures = count;
    rebuild();
    return *this;
  }

 private:
  void rebuild() {
    full_ = message_ + context_.to_string();
    if (context_.suppressed_failures > 0) {
      full_ += " (+" + std::to_string(context_.suppressed_failures) +
               " more task failures)";
    }
  }

  std::string message_;
  std::string full_;
  ErrorCode code_;
  ErrorContext context_;
};

/// Invalid user-supplied configuration or parameter value.
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what)
      : Error(what, ErrorCode::kConfig) {}
};

/// Throws ConfigError(message) unless `ok`: the check for invalid
/// user-supplied configuration, which exits 2 where a failed CCD_CHECK (a
/// broken library invariant) exits 1.
inline void require_config(bool ok, std::string_view message) {
  if (!ok) throw ConfigError(std::string(message));
}

/// Malformed or inconsistent dataset / trace input.
class DataError : public Error {
 public:
  explicit DataError(const std::string& what)
      : Error(what, ErrorCode::kData) {}
};

/// Numerical failure (singular system, domain violation, non-convergence).
class MathError : public Error {
 public:
  explicit MathError(const std::string& what)
      : Error(what, ErrorCode::kMath) {}
};

/// Contract-construction failure (infeasible piece, invalid effort model).
class ContractError : public Error {
 public:
  explicit ContractError(const std::string& what)
      : Error(what, ErrorCode::kContract) {}
};

/// A run was cancelled (explicitly or by deadline expiry) at a site with
/// no well-formed partial result to return. Sites that can degrade — the
/// pipeline, the Stackelberg simulator — return a partial result with the
/// cancellation recorded instead of throwing this.
class CancelledError : public Error {
 public:
  explicit CancelledError(const std::string& what)
      : Error(what, ErrorCode::kDeadline) {}
};

/// Transport authentication failure: a connection that requires the CSRV
/// token handshake presented no proof, a wrong proof, or a replayed one.
/// The server closes such connections; clients surface exit code 7.
class AuthError : public Error {
 public:
  explicit AuthError(const std::string& what)
      : Error(what, ErrorCode::kAuth) {}
};

namespace detail {

[[noreturn]] inline void throw_check_failure(const char* expr, const char* file,
                                             int line, const std::string& msg) {
  std::ostringstream os;
  os << "CCD_CHECK failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}

}  // namespace detail
}  // namespace ccd

/// Runtime precondition check; throws ccd::Error with location on failure.
/// Always active (not compiled out in release builds): these guard
/// library-boundary invariants, not internal assertions.
#define CCD_CHECK(expr)                                                     \
  do {                                                                      \
    if (!(expr))                                                            \
      ::ccd::detail::throw_check_failure(#expr, __FILE__, __LINE__, "");    \
  } while (false)

#define CCD_CHECK_MSG(expr, msg)                                            \
  do {                                                                      \
    if (!(expr)) {                                                          \
      std::ostringstream ccd_check_os_;                                     \
      ccd_check_os_ << msg;                                                 \
      ::ccd::detail::throw_check_failure(#expr, __FILE__, __LINE__,         \
                                         ccd_check_os_.str());              \
    }                                                                       \
  } while (false)
