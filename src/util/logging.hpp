// Minimal leveled logger.
//
// Single global sink (stderr by default) guarded by a mutex; cheap enough for
// our workloads and safe when the pipeline fans subproblems out over the
// thread pool. Use the CCD_LOG(level) macro, which skips message formatting
// entirely when the level is disabled.
#pragma once

#include <mutex>
#include <ostream>
#include <sstream>
#include <string>

namespace ccd::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

const char* to_string(LogLevel level);

class Logger {
 public:
  static Logger& instance();

  void set_level(LogLevel level) { level_ = level; }
  bool enabled(LogLevel level) const { return level >= level_; }

  /// Redirect output (tests use this); pass nullptr to restore stderr.
  void set_sink(std::ostream* sink);

  void write(LogLevel level, const std::string& message);

 private:
  Logger() = default;
  std::mutex mutex_;
  LogLevel level_ = LogLevel::kInfo;
  std::ostream* sink_ = nullptr;  // nullptr => std::cerr
};

/// Stream-style helper: accumulates a message and emits it on destruction.
class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  ~LogMessage() { Logger::instance().write(level_, stream_.str()); }
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace ccd::util

#define CCD_LOG(level)                                                  \
  if (!::ccd::util::Logger::instance().enabled(::ccd::util::LogLevel::level)) \
    ;                                                                   \
  else                                                                  \
    ::ccd::util::LogMessage(::ccd::util::LogLevel::level).stream()

#define CCD_LOG_DEBUG CCD_LOG(kDebug)
#define CCD_LOG_INFO CCD_LOG(kInfo)
#define CCD_LOG_WARN CCD_LOG(kWarn)
#define CCD_LOG_ERROR CCD_LOG(kError)
