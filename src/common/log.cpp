#include "common/log.h"

#include <cstdio>
#include <map>
#include <mutex>

namespace waran {

namespace log_detail {

namespace {

// Override table: rarely mutated, read under mutex only when at least one
// override exists (log_enabled's fast path skips it entirely otherwise).
std::mutex& overrides_mu() {
  static std::mutex mu;
  return mu;
}

std::map<std::string, LogLevel, std::less<>>& overrides() {
  static std::map<std::string, LogLevel, std::less<>> map;
  return map;
}

}  // namespace

std::atomic<int>& level_ref() {
  static std::atomic<int> level{static_cast<int>(LogLevel::kWarn)};
  return level;
}

std::atomic<int>& override_count_ref() {
  static std::atomic<int> count{0};
  return count;
}

bool component_enabled(LogLevel lvl, std::string_view component) {
  std::lock_guard<std::mutex> lock(overrides_mu());
  auto it = overrides().find(component);
  int threshold = it != overrides().end()
                      ? static_cast<int>(it->second)
                      : level_ref().load(std::memory_order_relaxed);
  return static_cast<int>(lvl) >= threshold;
}

void emit(LogLevel lvl, std::string_view component, std::string_view msg) {
  static const char* names[] = {"DEBUG", "INFO", "WARN", "ERROR", "OFF"};
  std::fprintf(stderr, "[%s] %.*s: %.*s\n", names[static_cast<int>(lvl)],
               static_cast<int>(component.size()), component.data(),
               static_cast<int>(msg.size()), msg.data());
}

}  // namespace log_detail

void set_log_level(std::string_view component, LogLevel lvl) {
  std::lock_guard<std::mutex> lock(log_detail::overrides_mu());
  log_detail::overrides()[std::string(component)] = lvl;
  log_detail::override_count_ref().store(
      static_cast<int>(log_detail::overrides().size()), std::memory_order_relaxed);
}

void clear_log_level_overrides() {
  std::lock_guard<std::mutex> lock(log_detail::overrides_mu());
  log_detail::overrides().clear();
  log_detail::override_count_ref().store(0, std::memory_order_relaxed);
}

}  // namespace waran
