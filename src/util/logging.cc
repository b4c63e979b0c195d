#include "util/logging.h"

#include <atomic>

namespace popan {

namespace {
// Relaxed is enough: the level is a standalone flag that orders no other
// memory, and a logger racing a SetLogLevel may see either value.
std::atomic<LogLevel> g_level{LogLevel::kInfo};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

LogLevel GetLogLevel() { return g_level.load(std::memory_order_relaxed); }
void SetLogLevel(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}

namespace internal_log {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  stream_ << "[" << LevelName(level) << " " << file << ":" << line << "] ";
}

LogMessage::~LogMessage() { std::cerr << stream_.str() << std::endl; }

}  // namespace internal_log
}  // namespace popan
