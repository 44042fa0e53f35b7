// In-process execution of one serve job: the paper flow of
// `flow/flow.hpp` (redundancy removal -> Procedure 2/3/combined ->
// redundancy removal -> equivalence check), producing the same three
// artifacts a one-shot run would leave behind -- the resynthesized .bench
// text, the run report JSON, and the stdout text -- byte-identical to
// `resynth_flow <flags> <circuit>` after masking the report's wall-clock
// fields (DESIGN.md §13.2).
//
// Byte-identity holds because (a) the executor and `resynth_flow` run the
// same stages of the one flow module, which owns every line of the flow's
// stdout and every field of its report meta, and (b) the executor calls
// begin_job_isolation() first, which resets every piece of mutable global
// observability state a fresh process would start without (counters,
// spans, distributions, telemetry, and the calling thread's
// exact-identification memo). Engine *results* never depend on that state
// -- every cache in the repo exact-confirms its hits -- but the counter
// streams embedded in reports do, and reports are part of the contract.
#pragma once

#include <iosfwd>

#include "obs/json.hpp"
#include "robust/robust.hpp"
#include "serve/protocol.hpp"

namespace compsyn::serve {

/// Outcome of an executed (not cache-served) job.
struct JobExecution {
  robust::RunStatus status = robust::RunStatus::Complete;
  std::string error;        // set when status is interrupted or error
  std::string bench;        // write_bench of the final compacted netlist
  Json report;              // resynth_flow-shaped report document
  std::string stdout_text;  // the flow's stdout, byte-identical
  bool cacheable = false;   // deterministic outcome, safe to serve again
};

/// Resets the global state a fresh resynth_flow process would not have:
/// obs counters/distributions, span aggregates, histograms, extended
/// telemetry, and this thread's exact-identification memo. Must run on the
/// executor thread with no job in flight.
void begin_job_isolation();

/// Runs one job to completion on the calling thread under its own
/// robust::RunControls (budget, deadline, and the daemon's budget:T trip),
/// classifies whatever it throws (the daemon outlives its jobs), and never
/// throws for malformed input (BenchParseError diagnostics come back in
/// .error).
/// Signal cancellations are NOT absorbed: status "interrupted" with the
/// cancel flag left pending, so the server can drain.
JobExecution run_resynth_job(const JobSpec& spec);

}  // namespace compsyn::serve
