#include "serve/job.hpp"

#include <optional>
#include <sstream>

#include "bench_io/bench_io.hpp"
#include "core/comparison.hpp"
#include "flow/flow.hpp"
#include "gen/circuits.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "robust/robust.hpp"
#include "util/errors.hpp"

namespace compsyn::serve {

Json job_error_report(const char* status, const std::string& message) {
  RunReport report("resynth_flow");
  report.set_meta("status", status);
  if (!message.empty()) report.set_meta("error", message);
  return report.to_json();
}

void begin_job_isolation() {
  Counters::reset();
  Trace::reset();
  Histogram::reset();
  telemetry_reset();
  clear_exact_identification_memo();
}

JobExecution run_resynth_job(const JobSpec& spec) {
  JobExecution out;

  // Per-job robustness scopes, as resynth_flow installs them: the budget
  // whenever a robust flag is present (limit 0 still counts ticks), the
  // watchdog only when a deadline was given.
  robust::Budget budget(spec.budget, 0);
  std::optional<robust::BudgetScope> budget_scope;
  if (spec.robust_active()) budget_scope.emplace(budget);
  robust::DeadlineWatchdog watchdog(spec.deadline);

  std::ostringstream cout;  // the flow's stdout, captured
  try {
    RunReport report("resynth_flow");
    Netlist nl;
    try {
      nl = spec.bench.empty()
               ? make_benchmark(spec.circuit)
               : read_bench_string(spec.bench,
                                   bench_name_from_path(spec.circuit));
    } catch (const InputError&) {
      throw;
    } catch (const robust::CancelledError&) {
      throw;
    } catch (const std::exception& e) {
      throw InputError(e.what());
    }
    const FlowOutcome flow =
        run_flow(spec, spec.circuit, nl, spec.robust_active(), cout, report);
    out.bench = write_bench_string(nl.compacted());
    out.report = report.to_json();
    out.stdout_text = cout.str();
    if (!flow.equivalent) {
      out.status = "error";
      out.error = "verification failed: function not preserved";
      out.cacheable = false;
    } else {
      out.status = flow.degraded() ? "degraded" : "ok";
      // Deterministic outcomes only: a deadline makes the stop point
      // wall-clock dependent, so those results are never served twice.
      out.cacheable = spec.deadline <= 0.0;
    }
    return out;
  } catch (const robust::CancelledError& e) {
    const char* status = e.reason == robust::StopReason::Budget ||
                                 e.reason == robust::StopReason::Injected
                             ? "degraded"
                             : "interrupted";
    out.status = status;
    out.error = robust::to_string(e.reason);
    out.report = job_error_report(status, out.error);
    out.stdout_text = cout.str();
    return out;
  } catch (const InputError& e) {
    out.status = "error";
    out.error = e.what();
    out.report = job_error_report("error", out.error);
    return out;
  } catch (const std::invalid_argument& e) {
    out.status = "error";
    out.error = e.what();
    out.report = job_error_report("error", out.error);
    return out;
  } catch (const std::exception& e) {
    out.status = "error";
    out.error = std::string("internal error: ") + e.what();
    out.report = job_error_report("error", out.error);
    return out;
  }
}

}  // namespace compsyn::serve
