#include "robust/guard.hpp"

#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string_view>

#include "obs/chrome_trace.hpp"
#include "obs/events.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "robust/robust.hpp"
#include "util/errors.hpp"

namespace compsyn::robust {
namespace {

/// Emits a minimal error report so even a run that died before producing
/// any results leaves a parseable record behind; its wall time runs from
/// `start_ns`, the start of the run. Best-effort: a failure to write here
/// must not mask the original exit code.
void write_error_report(const char* name, const std::string& path,
                        std::uint64_t start_ns, const char* status,
                        const std::string& message) {
  if (path.empty()) return;
  RunReport report(name, start_ns);
  report.set_meta("status", status);
  if (!message.empty()) report.set_meta("error", message);
  std::string error;
  if (!report.write(path, &error)) {
    std::cerr << "error: failed to write report to " << path << ": " << error
              << "\n";
  }
}

}  // namespace

int exit_code_for_cancel() {
  switch (cancel_reason()) {
    case StopReason::Signal:
      return 128 + (cancel_signal() != 0 ? cancel_signal() : 2);
    case StopReason::Deadline:
      return kExitDeadline;
    case StopReason::Injected:
    case StopReason::Budget:
      return kExitDegraded;
    case StopReason::None:
      break;
  }
  return kExitDegraded;
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
  } catch (const CancelledError& e) {
    const char* status =
        e.reason == StopReason::Budget || e.reason == StopReason::Injected
            ? "degraded"
            : "interrupted";
    // Wind-down telemetry: stamped here (ordinary exception context), never
    // in the signal handler, and the armed trace is flushed so a cancelled
    // run still leaves its profile behind.
    ChromeTrace::instant(std::string("cancel.") + to_string(e.reason));
    EventLog::finish(status);
    ChromeTrace::flush();
    std::cerr << name << ": run " << status << " (" << to_string(e.reason)
              << ")\n";
    write_error_report(name, report_path, start_ns, status, to_string(e.reason));
    return exit_code_for_cancel();
  } catch (const UsageError& e) {
    std::cerr << name << ": usage error: " << e.what() << "\n";
    return kExitUsage;
  } catch (const InputError& e) {
    std::cerr << name << ": input error: " << e.what() << "\n";
    write_error_report(name, report_path, start_ns, "error", e.what());
    return kExitInputError;
  } catch (const std::invalid_argument& e) {
    // Legacy input-validation throws (make_benchmark and friends).
    std::cerr << name << ": input error: " << e.what() << "\n";
    write_error_report(name, report_path, start_ns, "error", e.what());
    return kExitInputError;
  } catch (const std::exception& e) {
    std::cerr << name << ": internal error: " << e.what() << "\n";
    write_error_report(name, report_path, start_ns, "error", e.what());
    return kExitInternalError;
  } catch (...) {
    std::cerr << name << ": internal error: unknown exception\n";
    write_error_report(name, report_path, start_ns, "error", "unknown exception");
    return kExitInternalError;
  }
}

}  // namespace compsyn::robust
