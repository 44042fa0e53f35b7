// Observability: one span primitive behind one runtime level.
//
// Every measurement point is one line -- `const Span sp("resynth.pass");`
// (obs/trace.hpp) or a counter bump (obs/counters.hpp). A span closes once
// and hands its label, duration and thread track to the sinks its kind
// selects; the level decides whether it records at all:
//
//   span kind   records from   sinks
//   Scope       report         aggregate table (report "spans", --trace)
//   Sample      extended       histogram "<label>.ns" (report)
//   Phase       extended       phase attribution (report); event log
//   Root        extended       hot-cone registry (report)
//
// Scope, Sample and Phase spans also reach the Chrome buffer. The Chrome
// buffer (--trace-out) and the event log (--events) are not gates: they
// exist only when their flag named a file, and are fed by whatever the
// level lets record. Counters record at `report` and above; Chrome instants
// and counter tracks at `extended`.
//
//   --report, --trace                     -> ObsLevel::report
//   --trace-out, --events, --progress     -> ObsLevel::extended
//   (none)                                -> ObsLevel::off
//
// Building with -DCOMPSYN_TRACE=0 compiles every span and counter into an
// empty inline stub; obs_level() is then the constant `off`. With it
// compiled in, an instrumented site costs one inline relaxed load while the
// level is off: no clock read, no call, no allocation. Instrumentation never
// changes the behaviour of the algorithms: it reads the clock and bumps
// counters.
#pragma once

#include <atomic>
#include <cstdint>

#ifndef COMPSYN_TRACE
#define COMPSYN_TRACE 1
#endif

namespace compsyn {

enum class ObsLevel : std::uint8_t {
  off = 0,       // nothing records
  report = 1,    // Scope spans and counters
  extended = 2,  // every span kind, plus allocation counting
};

/// Monotonic nanoseconds (steady clock): the one clock every span, report
/// wall time, event-log stamp and progress heartbeat reads.
std::uint64_t now_ns();

#if COMPSYN_TRACE

namespace obs_detail {
extern std::atomic<ObsLevel> g_level;
}  // namespace obs_detail

/// The process-wide recording level (default off).
inline ObsLevel obs_level() {
  return obs_detail::g_level.load(std::memory_order_relaxed);
}

inline void obs_set_level(ObsLevel level) {
  obs_detail::g_level.store(level, std::memory_order_relaxed);
}

#else  // COMPSYN_TRACE == 0: everything compiles away.

constexpr ObsLevel obs_level() { return ObsLevel::off; }
inline void obs_set_level(ObsLevel) {}

#endif

}  // namespace compsyn
