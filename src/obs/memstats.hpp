// Allocation-count sampling and peak-RSS readings for Phase spans
// (obs/trace.hpp).
//
// When COMPSYN_TRACE is on and the build is not sanitized, memstats.cpp
// replaces the global operator new/delete with thin wrappers around malloc
// that count calls and bytes while the level is extended (the only level at
// which Phase spans record); below it an allocation costs one relaxed load
// on top of malloc. Sanitizer builds keep the sanitizer's own allocator
// interposition -- alloc counts then read 0 and only the RSS figures are
// meaningful.
#pragma once

#include <cstdint>

#include "obs/obs.hpp"  // default COMPSYN_TRACE=1

namespace compsyn {

struct MemSnapshot {
  std::uint64_t alloc_count = 0;  // operator-new calls since process start
  std::uint64_t alloc_bytes = 0;  // bytes requested since process start
};

#if COMPSYN_TRACE

/// Current allocation totals (0/0 when the counting allocator is not
/// installed, e.g. sanitizer builds).
MemSnapshot mem_snapshot();

/// Process peak resident set size in bytes (getrusage ru_maxrss; 0 when the
/// platform does not report it). Monotonic over the process lifetime.
std::uint64_t peak_rss_bytes();

#else  // COMPSYN_TRACE == 0

inline MemSnapshot mem_snapshot() { return {}; }
inline std::uint64_t peak_rss_bytes() { return 0; }

#endif

}  // namespace compsyn
