#include "robust/guard.hpp"

#include <iostream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "obs/chrome_trace.hpp"
#include "obs/events.hpp"
#include "obs/obs.hpp"
#include "util/cli.hpp"
#include "util/errors.hpp"

namespace compsyn::robust {
namespace {

/// The run's tick account: the tighter of the user's budget and the plan's
/// trip, named by the one that binds.
Budget binding_budget(std::uint64_t budget, std::uint64_t trip,
                      std::uint64_t consumed) {
  if (trip != 0 && (budget == 0 || trip < budget)) {
    return Budget(trip, consumed, StopReason::Injected);
  }
  return Budget(budget, consumed, StopReason::Budget);
}

}  // namespace

int exit_code(RunStatus status, StopReason reason, int signal) {
  switch (status) {
    case RunStatus::Complete:
      return kExitOk;
    case RunStatus::Degraded:
      return kExitDegraded;
    case RunStatus::Interrupted:
      if (reason == StopReason::Signal) return 128 + (signal != 0 ? signal : 2);
      return kExitDeadline;
    case RunStatus::Error:
      break;
  }
  return kExitVerifyFailed;
}

int exit_code_for_cancel() {
  return exit_code(run_status_for(cancel_reason()), cancel_reason(),
                   cancel_signal());
}

RunControls::RunControls(std::uint64_t budget, double deadline,
                         std::optional<FaultPlan> plan,
                         std::uint64_t resume_ticks, bool requested)
    : plan_(std::move(plan)),
      user_budget_(budget),
      active_(requested || budget != 0 || deadline > 0.0 || plan_.has_value()),
      budget_(binding_budget(
          budget, plan_ ? plan_->budget_trip : injected_budget_trip(),
          resume_ticks)),
      watchdog_(deadline) {
  if (plan_) inject_scope_.emplace(*plan_);
  if (active_ || budget_.limit() != 0) budget_scope_.emplace(budget_);
}

RunControls RunControls::from_cli(const Cli& cli, std::uint64_t resume_ticks,
                                  bool requested) {
  std::optional<FaultPlan> plan = FaultPlan::from_cli(cli);
  const std::uint64_t budget = cli.get_u64("budget", 0);
  const double deadline = cli.get_double("deadline", 0.0);
  return RunControls(budget, deadline, std::move(plan), resume_ticks,
                     requested || cli.has("budget") || cli.has("deadline") ||
                         cli.has("inject"));
}

void RunControls::write_meta(RunReport& report, RunStatus status,
                             StopReason reason, bool with_budget) const {
  if (!active_ && status == RunStatus::Complete) return;
  report.set_meta("status", to_string(status));
  if (reason != StopReason::None) {
    report.set_meta("stop_reason", to_string(reason));
  }
  report.set_meta("ticks", budget_.ticks());
  if (with_budget && user_budget_ != 0) report.set_meta("budget", user_budget_);
}

RunFailure classify_current_exception() {
  try {
    throw;
  } catch (const CancelledError& e) {
    const RunStatus status = run_status_for(e.reason);
    return {status, exit_code(status, e.reason, cancel_signal()),
            to_string(e.reason)};
  } catch (const UsageError& e) {
    return {RunStatus::Error, kExitUsage, e.what()};
  } catch (const InputError& e) {
    return {RunStatus::Error, kExitInputError, e.what()};
  } catch (const std::invalid_argument& e) {
    // Legacy input-validation throws (make_benchmark and friends).
    return {RunStatus::Error, kExitInputError, e.what()};
  } catch (const std::exception& e) {
    return {RunStatus::Error, kExitInternalError,
            std::string("internal error: ") + e.what()};
  } catch (...) {
    return {RunStatus::Error, kExitInternalError,
            "internal error: unknown exception"};
  }
}

RunReport error_report(std::string name, RunStatus status,
                       const std::string& error, std::uint64_t start_ns) {
  RunReport report(std::move(name), start_ns);
  report.set_meta("status", to_string(status));
  if (!error.empty()) report.set_meta("error", error);
  return report;
}

std::string report_path_from_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--report=", 0) == 0) {
      return std::string(arg.substr(std::string_view("--report=").size()));
    }
  }
  return "";
}

int guard_main(const char* name, int argc, char** argv,
               const std::function<int()>& body) {
  install_signal_handlers();
  const std::string report_path = report_path_from_args(argc, argv);
  const std::uint64_t start_ns = now_ns();
  try {
    return body();
  } catch (...) {
    const RunFailure f = classify_current_exception();
    if (f.exit_code == kExitUsage) {
      std::cerr << name << ": usage error: " << f.error << "\n";
      return f.exit_code;
    }
    if (f.status != RunStatus::Error) {
      // Wind-down telemetry: stamped here (ordinary exception context),
      // never in the signal handler, and the armed trace is flushed so a
      // cancelled run still leaves its profile behind.
      ChromeTrace::instant("cancel." + f.error);
      EventLog::finish(to_string(f.status));
      ChromeTrace::flush();
      std::cerr << name << ": run " << to_string(f.status) << " (" << f.error
                << ")\n";
    } else {
      std::cerr << name << ": "
                << (f.exit_code == kExitInputError ? "input error: " : "")
                << f.error << "\n";
    }
    // Best-effort: a failure to write here must not mask the exit code.
    std::string error;
    if (!report_path.empty() &&
        !error_report(name, f.status, f.error, start_ns)
             .write(report_path, &error)) {
      std::cerr << "error: failed to write report to " << report_path << ": "
                << error << "\n";
    }
    return f.exit_code;
  }
}

}  // namespace compsyn::robust
