#include "obs/telemetry.hpp"

#if COMPSYN_TRACE

#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>
#include <utility>

#include "obs/events.hpp"

namespace compsyn {
namespace {

struct ConeData {
  std::uint64_t total_ns = 0;
  std::uint64_t cones = 0;
};

struct TelemetryState {
  std::mutex mu;
  std::vector<PhaseStat> phases;
  std::map<std::string, ConeData, std::less<>> cones;
  // --progress heartbeat (stderr). interval_ns == 0 means disabled.
  std::string progress_name;
  std::uint64_t progress_interval_ns = 0;
  std::uint64_t progress_epoch_ns = 0;
  std::uint64_t progress_last_ns = 0;
};

TelemetryState& state() {
  static TelemetryState s;
  return s;
}

}  // namespace

void telemetry_set_progress(std::string name, double interval_seconds) {
  TelemetryState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (interval_seconds <= 0) {
    s.progress_interval_ns = 0;
    return;
  }
  s.progress_name = std::move(name);
  s.progress_interval_ns =
      static_cast<std::uint64_t>(interval_seconds * 1e9);
  s.progress_epoch_ns = now_ns();
  s.progress_last_ns = 0;  // first tick prints immediately
}

void telemetry_progress(std::string_view phase, std::uint64_t done,
                        std::uint64_t total) {
  if (obs_level() < ObsLevel::extended) return;

  // Event-log record at a fixed work stride (plus the final tick), so the
  // progress sequence is a function of the work, not of timing.
  if (EventLog::active() &&
      (done % kProgressStride == 0 || done == total)) {
    EventLog::progress(phase, done, total);
  }

  // Stderr heartbeat, time-gated; stdout is never touched.
  TelemetryState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.progress_interval_ns == 0) return;
  std::uint64_t now = now_ns();
  if (s.progress_last_ns != 0 &&
      now - s.progress_last_ns < s.progress_interval_ns) {
    return;
  }
  s.progress_last_ns = now;
  double elapsed_s =
      static_cast<double>(now - s.progress_epoch_ns) / 1e9;
  std::fprintf(stderr, "[%s] %.*s %llu/%llu (%.1fs)\n",
               s.progress_name.c_str(), static_cast<int>(phase.size()),
               phase.data(), static_cast<unsigned long long>(done),
               static_cast<unsigned long long>(total), elapsed_s);
  std::fflush(stderr);
  if (EventLog::active()) {
    EventLog::heartbeat(phase, elapsed_s);
  }
}

namespace obs_detail {

void record_phase(PhaseStat stat) {
  TelemetryState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.phases.push_back(std::move(stat));
}

void record_hot_cone(std::string root, std::uint64_t ns, std::uint64_t cones) {
  TelemetryState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  ConeData& d = s.cones[std::move(root)];
  d.total_ns += ns;
  d.cones += cones;
}

}  // namespace obs_detail

std::vector<HotCone> telemetry_hot_cones(std::size_t top) {
  TelemetryState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  std::vector<HotCone> all;
  all.reserve(s.cones.size());
  for (const auto& [root, d] : s.cones) {
    all.push_back(HotCone{root, d.total_ns, d.cones});
  }
  // Hottest first; the map iteration order already breaks ns ties by name.
  std::stable_sort(all.begin(), all.end(),
                   [](const HotCone& a, const HotCone& b) {
                     return a.total_ns > b.total_ns;
                   });
  if (all.size() > top) all.resize(top);
  return all;
}

std::vector<PhaseStat> telemetry_phases() {
  TelemetryState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.phases;
}

void telemetry_reset() {
  TelemetryState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.phases.clear();
  s.cones.clear();
  s.progress_name.clear();
  s.progress_interval_ns = 0;
  s.progress_epoch_ns = 0;
  s.progress_last_ns = 0;
}

}  // namespace compsyn

#endif  // COMPSYN_TRACE
