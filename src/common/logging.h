#pragma once
// Levelled logging with pluggable sinks.
//
// Components log through a Logger that stamps messages with the simulated
// clock (when attached) rather than wall time, so traces read in simulation
// order. The default sink writes to stderr; tests install a capture sink.

#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include "common/types.h"

namespace vcmr::common {

enum class LogLevel { kDebug = 0, kInfo, kWarn, kError, kOff };

const char* to_string(LogLevel level);

struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  SimTime sim_time;          ///< simulation clock if a provider is attached
  bool has_sim_time = false;
  std::string component;
  std::string message;
};

/// Receives formatted records; implementations must be cheap.
using LogSink = std::function<void(const LogRecord&)>;

/// Process-wide logging configuration.
class LogConfig {
 public:
  static LogConfig& instance();

  void set_level(LogLevel level) { level_ = level; }
  LogLevel level() const { return level_; }

  void set_sink(LogSink sink);
  /// The currently installed sink (for save/restore guards).
  LogSink sink() const { return sink_; }
  void emit(const LogRecord& rec) const;

  /// Simulation clock provider; set by sim::Simulation when constructed.
  /// The slot is thread-local: each thread's provider is the simulation
  /// *running on that thread*, so pool workers each stamp logs with their
  /// own sim clock and never race on this write (the level and sink stay
  /// process-wide — configure those before spawning workers).
  void set_time_provider(std::function<SimTime()> provider);
  void clear_time_provider();
  std::function<SimTime()> time_provider() const {
    return time_provider_slot();
  }

  bool time(SimTime* out) const;

 private:
  LogConfig();
  static std::function<SimTime()>& time_provider_slot();
  LogLevel level_ = LogLevel::kInfo;
  LogSink sink_;
};

/// RAII guards for the process-wide LogConfig singletons. A sink or time
/// provider installed raw leaks into every later test in the binary; these
/// save the previous value and restore it when the scope ends.
class ScopedLogSink {
 public:
  explicit ScopedLogSink(LogSink sink) : prev_(LogConfig::instance().sink()) {
    LogConfig::instance().set_sink(std::move(sink));
  }
  ~ScopedLogSink() { LogConfig::instance().set_sink(std::move(prev_)); }

  ScopedLogSink(const ScopedLogSink&) = delete;
  ScopedLogSink& operator=(const ScopedLogSink&) = delete;

 private:
  LogSink prev_;
};

class ScopedTimeProvider {
 public:
  explicit ScopedTimeProvider(std::function<SimTime()> provider)
      : prev_(LogConfig::instance().time_provider()) {
    LogConfig::instance().set_time_provider(std::move(provider));
  }
  ~ScopedTimeProvider() {
    LogConfig::instance().set_time_provider(std::move(prev_));
  }

  ScopedTimeProvider(const ScopedTimeProvider&) = delete;
  ScopedTimeProvider& operator=(const ScopedTimeProvider&) = delete;

 private:
  std::function<SimTime()> prev_;
};

class ScopedLogLevel {
 public:
  explicit ScopedLogLevel(LogLevel level) : prev_(LogConfig::instance().level()) {
    LogConfig::instance().set_level(level);
  }
  ~ScopedLogLevel() { LogConfig::instance().set_level(prev_); }

  ScopedLogLevel(const ScopedLogLevel&) = delete;
  ScopedLogLevel& operator=(const ScopedLogLevel&) = delete;

 private:
  LogLevel prev_;
};

/// Named logger handle; cheap to copy.
class Logger {
 public:
  explicit Logger(std::string component) : component_(std::move(component)) {}

  bool enabled(LogLevel level) const {
    return level >= LogConfig::instance().level();
  }
  void log(LogLevel level, const std::string& msg) const;

  template <class... Args>
  void debug(Args&&... args) const { fmt(LogLevel::kDebug, std::forward<Args>(args)...); }
  template <class... Args>
  void info(Args&&... args) const { fmt(LogLevel::kInfo, std::forward<Args>(args)...); }
  template <class... Args>
  void warn(Args&&... args) const { fmt(LogLevel::kWarn, std::forward<Args>(args)...); }
  template <class... Args>
  void error(Args&&... args) const { fmt(LogLevel::kError, std::forward<Args>(args)...); }

  const std::string& component() const { return component_; }

 private:
  template <class... Args>
  void fmt(LogLevel level, Args&&... args) const {
    if (!enabled(level)) return;
    std::ostringstream os;
    (os << ... << args);
    log(level, os.str());
  }

  std::string component_;
};

}  // namespace vcmr::common
