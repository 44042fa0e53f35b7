// A run's lifecycle, stated once for every binary and the serve executor:
// its stop controls (RunControls), how an exception ends it
// (classify_current_exception), the report a failed run leaves
// (error_report) and the exit code of its final status (exit_code).
//
// guard_main wraps the program body so that *every* outcome — success,
// degraded budget run, SIGINT, malformed input, internal bug — ends with a
// documented exit code and, when --report=<file> was requested, a report
// that parses and carries a "status"/"error" block. Uncaught exceptions
// never reach std::terminate.
//
// Exit codes (see README / DESIGN.md §10):
//   0    success (complete run, verification passed where requested)
//   1    verification failed, or the report file could not be written
//   2    usage error (bad flags; report not attempted)
//   3    input error (malformed .bench, unreadable file, bad checkpoint)
//   4    internal error (unexpected exception; please report)
//   20   degraded: the tick budget tripped; output is valid best-so-far
//   21   interrupted by the --deadline watchdog
//   130  interrupted by SIGINT  (128 + 2)
//   143  interrupted by SIGTERM (128 + 15)
//   137  scripted halt from the fault-injection harness (halt:N)
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "obs/report.hpp"
#include "robust/inject.hpp"
#include "robust/robust.hpp"

namespace compsyn {
class Cli;
}

namespace compsyn::robust {

inline constexpr int kExitOk = 0;
inline constexpr int kExitVerifyFailed = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitInputError = 3;
inline constexpr int kExitInternalError = 4;
inline constexpr int kExitDegraded = 20;
inline constexpr int kExitDeadline = 21;

/// The exit code of a run that ended with `status`: 0, 20 when degraded,
/// 1 for an error the run itself reports (a failed verification, an
/// unwritable report), and for an interrupted run 128 + `signal` (SIGINT
/// when 0) after a signal, else 21.
int exit_code(RunStatus status, StopReason reason = StopReason::Deadline,
              int signal = 0);

/// exit_code() of the pending cancellation: 128+sig for signals, 21 for the
/// watchdog, 20 for a budget-style stop.
int exit_code_for_cancel();

/// A run's stop controls: the user's tick budget and wall-clock deadline,
/// a fault plan, and the ticks a resumed run consumed before its
/// checkpoint. For its lifetime the object installs them on the calling
/// thread's slot: the budget (whenever the run is active() or has a limit,
/// so ticks are counted), the plan and the deadline watchdog.
///
/// The tick limit is the tighter of the budget and the plan's budget:T
/// trip, and the stop reason names the one that binds ("budget" on a tie).
/// Without a plan of its own the run takes the trip of the plan already
/// installed: the serve daemon's --inject applies to every job it runs.
class RunControls {
 public:
  /// `budget` and `deadline` (seconds): 0 for none. `requested`: a control
  /// flag was given whose value sets no limit (--budget=0, --checkpoint),
  /// which still asks for the report's status meta.
  RunControls(std::uint64_t budget, double deadline,
              std::optional<FaultPlan> plan = std::nullopt,
              std::uint64_t resume_ticks = 0, bool requested = false);

  /// The controls of a command line: --budget, --deadline and --inject (a
  /// spec that does not parse throws UsageError). Any of them present
  /// requests the status meta, as does `requested`, for a caller's own
  /// control flags.
  static RunControls from_cli(const Cli& cli, std::uint64_t resume_ticks = 0,
                              bool requested = false);

  RunControls(const RunControls&) = delete;
  RunControls& operator=(const RunControls&) = delete;

  /// True when a control was asked for: the one gate of the status meta.
  bool active() const { return active_; }

  /// Writes the report's "status", "stop_reason" (for a stopped run),
  /// "ticks" and, with `with_budget`, "budget" (when one is set) meta: only
  /// for an active() run or one that did not complete, so a default-flag
  /// report keeps the shape it had before budgets existed.
  void write_meta(RunReport& report, RunStatus status, StopReason reason,
                  bool with_budget) const;

 private:
  std::optional<FaultPlan> plan_;  // outlives inject_scope_, which points here
  std::uint64_t user_budget_;
  bool active_;
  Budget budget_;
  std::optional<InjectScope> inject_scope_;
  std::optional<BudgetScope> budget_scope_;
  DeadlineWatchdog watchdog_;
};

/// How a run that threw ended: the one exception -> status classifier of
/// guard_main and the serve executor.
struct RunFailure {
  RunStatus status = RunStatus::Error;  // Degraded/Interrupted: a cancel
  int exit_code = kExitInternalError;
  // The error report's "error": a cancellation's stop reason, the what()
  // of a usage or input error, "internal error: what()" otherwise.
  std::string error;
};

/// Classifies the exception being handled; call it inside a catch block.
RunFailure classify_current_exception();

/// The report of a run that produced none of its own: `name`, meta.status
/// and meta.error, wall time from `start_ns` (now_ns() clock). guard_main
/// writes it for a failed run; the serve daemon answers failed jobs with it.
RunReport error_report(std::string name, RunStatus status,
                       const std::string& error, std::uint64_t start_ns);

/// Runs `body` behind the error boundary. Installs the SIGINT/SIGTERM
/// handlers first; a normal return passes the body's exit code through,
/// an exception ends in classify_current_exception()'s exit code, a
/// stderr line and (but for a usage error, when the command line asked
/// for --report) error_report() written there. `argv` is scanned for
/// --report=<path> so the boundary can emit a report even when the
/// failure happened before the body built one.
int guard_main(const char* name, int argc, char** argv,
               const std::function<int()>& body);

/// The --report path from an argv scan ("" when absent). Exposed for the
/// boundary's own use and for tests.
std::string report_path_from_args(int argc, char** argv);

}  // namespace compsyn::robust
