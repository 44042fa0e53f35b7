// Per-run observability domains.
//
// The counter registry and the span-trace registry used to be process
// singletons; a concurrent serving daemon needs each job lane's report to
// see only its own job's counters and spans. An ObsDomain bundles those
// two registries. Threads route through their *bound* domain
// (thread-local, RAII ObsDomainBind), defaulting to the process domain,
// so one-shot binaries never bind one and behave exactly as before.
//
// Only Counters and the aggregate span table (Trace) live in a domain: run
// reports embed exactly those two sections unconditionally. Histograms,
// phases and hot cones record at ObsLevel::extended only -- the daemon
// stays at report -- and stay process-global.
#pragma once

#include <atomic>
#include <mutex>

namespace compsyn {

inline constexpr int kObsSlotCounters = 0;
inline constexpr int kObsSlotTrace = 1;
inline constexpr int kObsSlotCount = 2;

/// One isolation unit of observability state. Registries are created
/// lazily on first use (a domain whose lane never records costs two
/// null pointers) and owned by the domain.
class ObsDomain {
 public:
  ObsDomain() = default;
  ~ObsDomain();
  ObsDomain(const ObsDomain&) = delete;
  ObsDomain& operator=(const ObsDomain&) = delete;

  /// The registry in `slot`, created by `make` on first use; `destroy`
  /// is remembered for the destructor. Obs-internal: the callers are
  /// counters.cpp / trace.cpp, which cast back to their private types.
  void* get_or_create(int slot, void* (*make)(), void (*destroy)(void*));

 private:
  std::mutex mu_;  // serializes first-use creation only
  std::atomic<void*> slots_[kObsSlotCount] = {};
  void (*destroyers_[kObsSlotCount])(void*) = {};
};

/// The process-default domain (leaked: usable during exit).
ObsDomain& obs_default_domain();

/// The calling thread's domain: the bound one, else the default.
ObsDomain& obs_current_domain();

/// Binds `d` as the calling thread's domain for a scope. Nests by
/// restoration; bind obs_default_domain() to record daemon-level
/// counters from a lane thread without touching the job's report.
class ObsDomainBind {
 public:
  explicit ObsDomainBind(ObsDomain& d);
  ~ObsDomainBind();
  ObsDomainBind(const ObsDomainBind&) = delete;
  ObsDomainBind& operator=(const ObsDomainBind&) = delete;

 private:
  ObsDomain* prev_;
};

}  // namespace compsyn
