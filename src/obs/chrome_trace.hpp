// Chrome trace-event sink: buffers span slices (X events), instant events,
// and counter-track samples in memory and serialises them as a catapult /
// Perfetto-loadable trace ({"traceEvents": [...]}, chrome://tracing JSON).
// Driven by `--trace-out=<file>.json` on every binary.
//
// The sink exists only after open(); it is not a gate. Spans (obs/trace.hpp)
// that the level lets record hand their label, start and duration here when
// they close, so the trace shows the same labels as the aggregate report,
// all on one track: the flow runs on one thread. Compiled out
// entirely under -DCOMPSYN_TRACE=0, where flush() still writes a valid,
// empty trace.
//
// Timestamps are nanoseconds from open() (written as fractional-microsecond
// `ts` values, the unit the trace-event format specifies). Events are
// buffered under a mutex and sorted by time on write.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/obs.hpp"

namespace compsyn {

#if COMPSYN_TRACE

class ChromeTrace {
 public:
  /// Opens the sink (the open instant is ts 0) and arms `path` as the
  /// output flush() writes.
  static void open(std::string path);

  /// Writes the buffer to the armed path, then disarms. True (and no-op)
  /// when nothing is armed; false with *error on I/O failure. Called on
  /// normal completion and by the guard's wind-down, so a budget-exhausted
  /// or interrupted run still leaves its trace behind.
  static bool flush(std::string* error = nullptr);

  /// Closes the sink and drops every buffered event. Test helper.
  static void reset();

  /// Number of events buffered so far. Test helper.
  static std::size_t event_count();

  /// Span sink: one X (complete) slice on the calling thread's track.
  static void record(std::string_view name, std::uint64_t start_ns,
                     std::uint64_t dur_ns);

  /// i (instant, thread scope): robustness milestones -- budget exhaustion,
  /// checkpoint writes, cancellation wind-down. Extended level only.
  static void instant(std::string_view name) {
    if (obs_level() == ObsLevel::extended) record_instant(name);
  }

  /// C (counter-track sample): SAT session size, memo hit rate, live fault
  /// counts. One series per name. Extended level only.
  static void counter(std::string_view name, double value) {
    if (obs_level() == ObsLevel::extended) record_counter(name, value);
  }

 private:
  static void record_instant(std::string_view name);
  static void record_counter(std::string_view name, double value);
};

#else  // COMPSYN_TRACE == 0

class ChromeTrace {
 public:
  static void open(std::string path);
  static bool flush(std::string* error = nullptr);
  static void reset() {}
  static std::size_t event_count() { return 0; }
  static void record(std::string_view, std::uint64_t, std::uint64_t) {}
  static void instant(std::string_view) {}
  static void counter(std::string_view, double) {}
};

#endif

}  // namespace compsyn
