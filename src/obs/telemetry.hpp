// Extended-level report views fed by spans (DESIGN.md §12), plus progress.
//
//  * phases     -- one PhaseStat per closed Phase span: wall time,
//    allocation-count/byte deltas (obs/memstats) and peak RSS; the report's
//    "phases" section.
//  * hot cones  -- per-root candidate-search time summed per Root span
//    label (the root gate's name); the report's "hot_cones" section.
//  * telemetry_progress() -- deterministic commit-point progress ticks from
//    the engines (resynthesis root sweep, redundancy-removal fault sweep).
//    Feeds the --events log at a fixed work stride (deterministic sequence)
//    and the --progress stderr heartbeat (time-gated one-liner; stderr only,
//    so stdout stays untouched).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"

namespace compsyn {

/// Per-phase resource attribution (one entry per closed Phase span).
struct PhaseStat {
  std::string name;
  std::uint64_t wall_ns = 0;
  std::uint64_t alloc_count = 0;   // operator-new calls during the phase
  std::uint64_t alloc_bytes = 0;   // bytes requested during the phase
  std::uint64_t peak_rss_bytes = 0;  // process high-water mark at phase end
};

/// One hot resynthesis root: total candidate-evaluation time attributed to
/// the root gate's name.
struct HotCone {
  std::string root;
  std::uint64_t total_ns = 0;
  std::uint64_t cones = 0;  // cones evaluated under this root
};

/// Work stride between event-log progress records (fixed, deterministic).
inline constexpr std::uint64_t kProgressStride = 16;

#if COMPSYN_TRACE

/// Enables the stderr progress heartbeat with the given minimum interval in
/// seconds (<= 0 disables). `name` prefixes each line ("[resynth_flow] ...").
void telemetry_set_progress(std::string name, double interval_seconds);

/// Deterministic commit-point progress tick (extended level only). `phase`
/// names the sweep, `done`/`total` its position. Emits an event-log progress
/// record every `kProgressStride` ticks and on the final one (done == total)
/// and, when --progress is active and the interval elapsed, one stderr
/// heartbeat line.
void telemetry_progress(std::string_view phase, std::uint64_t done,
                        std::uint64_t total);

/// The `top` hottest roots by total ns (ties broken by name).
std::vector<HotCone> telemetry_hot_cones(std::size_t top = 10);

/// Closed phases, in closing order.
std::vector<PhaseStat> telemetry_phases();

/// Drops phases, hot cones, and progress state. Test helper.
void telemetry_reset();

namespace obs_detail {
// Sink entries for Phase and Root spans (obs/trace.cpp).
void record_phase(PhaseStat stat);
void record_hot_cone(std::string root, std::uint64_t ns, std::uint64_t cones);
}  // namespace obs_detail

#else  // COMPSYN_TRACE == 0

inline void telemetry_set_progress(std::string, double) {}
inline void telemetry_progress(std::string_view, std::uint64_t, std::uint64_t) {}
inline std::vector<HotCone> telemetry_hot_cones(std::size_t = 10) { return {}; }
inline std::vector<PhaseStat> telemetry_phases() { return {}; }
inline void telemetry_reset() {}

#endif

}  // namespace compsyn
