// Streaming JSONL event log (`--events=<file>.jsonl`, schema
// `compsyn-events-v1`): one self-describing JSON object per line, flushed
// per record, so long runs (and the future resynth_serve daemon) are
// monitorable mid-flight with `tail -f` without touching stdout.
//
// Record types (all carry "type", a monotonically increasing "seq", and
// "t_ms" milliseconds since open()):
//   start      -- first line; also carries "schema": "compsyn-events-v1",
//                 the producing binary's "name", and its "pid"
//   phase      -- {"phase": <name>, "event": "begin"|"end"}
//   progress   -- {"phase": <sweep>, "done": N, "total": M}; emitted at
//                 deterministic commit points with a fixed work stride, so
//                 the progress record sequence (ignoring t_ms) is identical
//                 on every run
//   heartbeat  -- {"phase": ..., "elapsed_s": ...}; time-gated (explicitly
//                 non-deterministic -- consumers needing determinism drop it)
//   milestone  -- {"what": "checkpoint.write" | "budget.exhausted" |
//                 "cancel.signal" | ...}
//   finish     -- last line; {"status": "ok" | "degraded" | ...}
//
// The log is a process-global sink like the Chrome buffer: it exists only
// while open and gates nothing (the level does). Writes take a mutex and
// are line-atomic.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace compsyn {

inline constexpr const char* kEventSchema = "compsyn-events-v1";

#if COMPSYN_TRACE

class EventLog {
 public:
  /// Opens `path` and writes the start record. Returns false and fills
  /// *error on I/O failure. Reopening closes the previous log first.
  static bool open(const std::string& path, std::string_view name,
                   std::string* error = nullptr);

  /// True while a log is open (single relaxed load).
  static bool active();

  /// Appends one record; "type"/"seq"/"t_ms" are added in front of
  /// `fields`. No-op while inactive.
  static void emit(std::string_view type, Json fields);

  static void phase(std::string_view name, bool begin);
  static void progress(std::string_view phase, std::uint64_t done,
                       std::uint64_t total);
  static void heartbeat(std::string_view phase, double elapsed_s);
  static void milestone(std::string_view what);

  /// Writes the finish record and closes the log.
  static void finish(std::string_view status);

  /// Closes without a finish record and resets seq. Test helper.
  static void reset();
};

#else  // COMPSYN_TRACE == 0

class EventLog {
 public:
  static bool open(const std::string& path, std::string_view name,
                   std::string* error = nullptr);
  static bool active() { return false; }
  static void emit(std::string_view, Json) {}
  static void phase(std::string_view, bool) {}
  static void progress(std::string_view, std::uint64_t, std::uint64_t) {}
  static void heartbeat(std::string_view, double) {}
  static void milestone(std::string_view) {}
  static void finish(std::string_view status);
  static void reset();
};

#endif

}  // namespace compsyn
