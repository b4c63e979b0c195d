#ifndef POPAN_UTIL_LOGGING_H_
#define POPAN_UTIL_LOGGING_H_

#include <iostream>
#include <sstream>
#include <string>

namespace popan {

/// Log severities, coarsest classification only: benches and examples log
/// progress at kInfo; the library itself logs only at kWarning or above.
enum class LogLevel {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
};

/// Global log threshold; messages below it are discarded. Defaults to
/// kInfo. Safe to read and set from any thread: server reader threads and
/// the sim thread pool log concurrently. A message racing a SetLogLevel
/// call is filtered by either the old or the new level.
LogLevel GetLogLevel();
void SetLogLevel(LogLevel level);

namespace internal_log {

/// Builds one log line and emits it to stderr on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Discards the streamed message for suppressed levels.
class LogSink {
 public:
  template <typename T>
  LogSink& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal_log
}  // namespace popan

/// Streams a log line at the given level:
///   POPAN_LOG(kInfo) << "built tree with " << n << " points";
#define POPAN_LOG(level)                                                  \
  if (::popan::LogLevel::level < ::popan::GetLogLevel()) {                \
  } else /* NOLINT(readability/braces) */                                 \
    ::popan::internal_log::LogMessage(::popan::LogLevel::level, __FILE__, \
                                      __LINE__)

#endif  // POPAN_UTIL_LOGGING_H_
