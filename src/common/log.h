// Minimal leveled logger. RAN components log sparingly on the hot path; the
// default level is kWarn so benches are quiet.
//
// Hot-path cost: WARAN_LOG expands to a guard that, for a disabled line, is
// one relaxed atomic load plus an integer compare — the std::ostringstream
// and the stream expression are inside the guarded block and are never
// constructed or evaluated for a disabled component. Per-component level
// overrides (set_log_level("mac", kDebug)) add a map lookup only once any
// override exists; with none registered the guard stays two instructions.
// Emitted lines go to stderr.
#pragma once

#include <atomic>
#include <sstream>
#include <string>
#include <string_view>

namespace waran {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

namespace log_detail {
std::atomic<int>& level_ref();          // global level, relaxed access
std::atomic<int>& override_count_ref(); // number of per-component overrides
/// Slow path: consults the per-component override table, falling back to
/// the global level for components without one.
bool component_enabled(LogLevel lvl, std::string_view component);
void emit(LogLevel lvl, std::string_view component, std::string_view msg);
}  // namespace log_detail

inline void set_log_level(LogLevel lvl) {
  log_detail::level_ref().store(static_cast<int>(lvl), std::memory_order_relaxed);
}

/// Per-component override: `set_log_level("mac", LogLevel::kDebug)` makes
/// the MAC chatty while everything else stays at the global level.
void set_log_level(std::string_view component, LogLevel lvl);
/// Drops all per-component overrides (global level applies everywhere).
void clear_log_level_overrides();

/// The WARAN_LOG guard. With no overrides registered this is a relaxed
/// load + compare; the override table is only consulted once one exists.
inline bool log_enabled(LogLevel lvl, std::string_view component) {
  if (log_detail::override_count_ref().load(std::memory_order_relaxed) == 0) {
    return static_cast<int>(lvl) >=
           log_detail::level_ref().load(std::memory_order_relaxed);
  }
  return log_detail::component_enabled(lvl, component);
}

/// Usage: WARAN_LOG(kInfo, "mac", "slot " << n << " scheduled " << k);
/// The stream expression is evaluated only when the line is enabled.
#define WARAN_LOG(lvl, component, stream_expr)                                  \
  do {                                                                          \
    if (::waran::log_enabled(::waran::LogLevel::lvl, component)) {              \
      std::ostringstream _os;                                                   \
      _os << stream_expr;                                                       \
      ::waran::log_detail::emit(::waran::LogLevel::lvl, component, _os.str());  \
    }                                                                           \
  } while (0)

}  // namespace waran
