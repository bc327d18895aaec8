#include "common/logging.h"

#include <cstdio>

namespace vcmr::common {

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo:  return "INFO";
    case LogLevel::kWarn:  return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff:   return "OFF";
  }
  return "?";
}

namespace {
void default_sink(const LogRecord& rec) {
  if (rec.has_sim_time) {
    std::fprintf(stderr, "[%12.6f] %-5s %s: %s\n", rec.sim_time.as_seconds(),
                 to_string(rec.level), rec.component.c_str(),
                 rec.message.c_str());
  } else {
    std::fprintf(stderr, "[        --- ] %-5s %s: %s\n", to_string(rec.level),
                 rec.component.c_str(), rec.message.c_str());
  }
}
}  // namespace

LogConfig::LogConfig() : sink_(default_sink) {}

LogConfig& LogConfig::instance() {
  static LogConfig cfg;
  return cfg;
}

void LogConfig::set_sink(LogSink sink) { sink_ = std::move(sink); }

void LogConfig::emit(const LogRecord& rec) const {
  if (sink_) sink_(rec);
}

std::function<SimTime()>& LogConfig::time_provider_slot() {
  thread_local std::function<SimTime()> provider;
  return provider;
}

void LogConfig::set_time_provider(std::function<SimTime()> provider) {
  time_provider_slot() = std::move(provider);
}
void LogConfig::clear_time_provider() { time_provider_slot() = nullptr; }

bool LogConfig::time(SimTime* out) const {
  const auto& provider = time_provider_slot();
  if (!provider) return false;
  *out = provider();
  return true;
}

void Logger::log(LogLevel level, const std::string& msg) const {
  if (!enabled(level)) return;
  LogRecord rec;
  rec.level = level;
  rec.component = component_;
  rec.message = msg;
  rec.has_sim_time = LogConfig::instance().time(&rec.sim_time);
  LogConfig::instance().emit(rec);
}

}  // namespace vcmr::common
