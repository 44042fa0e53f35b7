#include "serve/job.hpp"

#include <sstream>

#include "bench_io/bench_io.hpp"
#include "core/comparison.hpp"
#include "flow/flow.hpp"
#include "gen/circuits.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "robust/guard.hpp"

namespace compsyn::serve {

void begin_job_isolation() {
  Counters::reset();
  Trace::reset();
  Histogram::reset();
  telemetry_reset();
  clear_exact_identification_memo();
}

JobExecution run_resynth_job(const JobSpec& spec) {
  JobExecution out;
  const robust::RunControls controls(spec.budget.value_or(0), spec.deadline,
                                     std::nullopt, /*resume_ticks=*/0,
                                     /*requested=*/spec.budget.has_value());
  std::ostringstream cout;  // the flow's stdout, captured
  try {
    RunReport report("resynth_flow");
    Netlist nl = spec.bench.empty()
                     ? make_benchmark(spec.circuit)
                     : read_bench_string(spec.bench,
                                         bench_name_from_path(spec.circuit));
    const FlowOutcome flow =
        run_flow(spec, spec.circuit, nl, controls, cout, report);
    out.status = flow.status;
    out.bench = write_bench_string(nl.compacted());
    out.report = report.to_json();
    out.stdout_text = cout.str();
    if (flow.status == robust::RunStatus::Error) {
      out.error = "verification failed: function not preserved";
    }
    // Deterministic outcomes of the job spec only: a deadline makes the
    // stop point wall-clock dependent, and an injected trip is the daemon's,
    // so neither result is served twice.
    out.cacheable = flow.status != robust::RunStatus::Error &&
                    spec.deadline <= 0.0 &&
                    flow.reason != robust::StopReason::Injected;
    return out;
  } catch (...) {
    const robust::RunFailure failure = robust::classify_current_exception();
    out.status = failure.status;
    out.error = failure.error;
    out.report =
        robust::error_report("resynth_flow", failure.status, failure.error,
                             now_ns())
            .to_json();
    if (failure.status != robust::RunStatus::Error) {
      out.stdout_text = cout.str();
    }
    return out;
  }
}

}  // namespace compsyn::serve
