// Deterministic fault injection for chaos testing.
//
// A FaultPlan scripts failures by *count*, not by time: "the 3rd SAT call
// returns Unknown", "the 2nd oracle query times out", "the budget trips at
// tick 5000", "exit hard after the 1st checkpoint write". Counters are
// global atomics, so a plan replays identically on every run with the same
// input and flags.
//
// Hooks are free functions that engines call at the matching points; with
// no plan installed they compile down to one relaxed atomic load. The plan
// is installed via InjectScope RAII, mirroring BudgetScope.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace compsyn {
class Cli;
}

namespace compsyn::robust {

/// Parsed --inject specification. Spec grammar (comma-separated):
///   sat:N     — the Nth SAT solve (1-based) returns Unknown
///   oracle:N  — the Nth reachability-oracle query times out (the caller
///               receives the safe over-approximation "all combinations
///               reachable", i.e. no don't-cares)
///   write:N   — the Nth guarded file write fails
///   budget:T  — the run's tick limit becomes T where that is tighter than
///               its budget, and a stop there reports StopReason::Injected
///               (robust::RunControls; a daemon's plan trips every job)
///   halt:N    — the process _Exit(137)s right after the Nth checkpoint
///               write, simulating a kill at a crash-consistent point
/// Serve-layer kinds (drive the daemon's recovery paths deterministically):
///   frame:N   — the Nth frame *sent* by the daemon is corrupted (a byte
///               of the payload is flipped before the write), exercising
///               the client's guard/parse rejection and retry
///   accept:N  — the Nth accept(2) on the listening socket is treated as
///               failed (the connection is closed unserved)
///   lane:N    — the Nth job *started* on any lane throws a scripted
///               internal error mid-execution (a lane crash the daemon
///               must convert into a per-job "error" answer)
///   wal:N     — the Nth WAL append fails, exercising degraded journal
///               paths (the daemon keeps serving, marks the WAL dead)
struct FaultPlan {
  std::vector<std::uint64_t> sat_failures;
  std::vector<std::uint64_t> oracle_timeouts;
  std::vector<std::uint64_t> write_failures;
  std::vector<std::uint64_t> halts;
  std::vector<std::uint64_t> frame_corruptions;
  std::vector<std::uint64_t> accept_failures;
  std::vector<std::uint64_t> lane_crashes;
  std::vector<std::uint64_t> wal_failures;
  std::uint64_t budget_trip = 0;  // 0 = disabled

  /// Parses a spec string; returns nullopt and sets *error on bad syntax.
  static std::optional<FaultPlan> parse(const std::string& spec,
                                        std::string* error);

  /// The plan of an --inject flag; nullopt without one. A spec that does
  /// not parse throws UsageError.
  static std::optional<FaultPlan> from_cli(const Cli& cli);
};

/// Installs a plan for a scope (resets all event counters). Non-nesting,
/// like BudgetScope.
class InjectScope {
 public:
  explicit InjectScope(const FaultPlan& plan);
  ~InjectScope();
  InjectScope(const InjectScope&) = delete;
  InjectScope& operator=(const InjectScope&) = delete;
};

/// True when an InjectScope is active.
bool inject_active();

/// Called at the top of every SAT solve. True => this call must fail
/// (return Unknown without searching).
bool inject_sat_failure();

/// Called per reachability-oracle query. True => treat the query as timed
/// out and use the safe over-approximation.
bool inject_oracle_timeout();

/// Called before every guarded file write. True => the write must fail.
bool inject_write_failure();

/// Called after every successful checkpoint write. Calls std::_Exit(137)
/// when this write's ordinal is scripted as a halt — simulating a kill
/// without flushing anything further, deterministically.
void inject_halt_after_checkpoint();

/// Tick at which the plan trips the budget (0 = no scripted trip).
std::uint64_t injected_budget_trip();

/// Called before every frame the daemon writes. True => corrupt the
/// payload (flip one byte) before sending.
bool inject_frame_corruption();

/// Called after every accept(2) on the daemon's listening socket. True =>
/// treat the accept as failed and close the connection unserved.
bool inject_accept_failure();

/// Called when a lane starts executing a job. True => the job throws a
/// scripted internal error ("injected lane crash").
bool inject_lane_crash();

/// Called before every WAL append. True => the append must fail.
bool inject_wal_failure();

}  // namespace compsyn::robust
