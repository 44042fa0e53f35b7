// The full paper flow on a benchmark circuit (or a user-supplied .bench
// file): make it irredundant, run Procedure 2 or 3, re-remove redundancies,
// and report gates/paths/testability -- what Section 5 does per circuit.
// The flow and its output come from flow/flow.hpp (the serve daemon runs
// the same run_flow()); this binary adds the command line, loading the
// circuit and the checkpoint to resume from, and --out.
//
//   $ ./resynth_flow syn300
//   $ ./resynth_flow --proc=3 --k=6 path/to/circuit.bench
//   $ ./resynth_flow --proc=combined --weight-gates=1 --weight-paths=0.25 syn150
//   $ ./resynth_flow --out=result.bench --report=run.json syn150
//   $ ./resynth_flow --verify=sat syn1000   (SAT proof at any input width)
//
// Anytime / robustness controls (DESIGN.md §10):
//   $ ./resynth_flow --budget=50000 syn300      (deterministic tick budget)
//   $ ./resynth_flow --deadline=5 syn1000       (wall-clock watchdog)
//   $ ./resynth_flow --checkpoint=ck.json --budget=50000 syn300
//   $ ./resynth_flow --resume=ck.json --checkpoint=ck.json --budget=50000 syn300
//   $ ./resynth_flow --inject=halt:1 --checkpoint=ck.json syn150   (chaos)
//
// A budget trip degrades the run (best-so-far netlist, every committed
// replacement fully verified, exit 20); SIGINT/SIGTERM/--deadline interrupt
// it (report flushed with "status":"interrupted", exit 130/143/21). A
// checkpoint is a snapshot of the default run at a pass boundary, so a run
// killed after one resumes to the uninterrupted run's final netlist and
// (masked) report.
#include <fstream>
#include <iostream>

#include "bench_io/bench_io.hpp"
#include "flow/checkpoint.hpp"
#include "flow/flow.hpp"
#include "gen/circuits.hpp"
#include "obs/report.hpp"
#include "robust/guard.hpp"
#include "robust/robust.hpp"
#include "util/cli.hpp"
#include "util/errors.hpp"

using namespace compsyn;

namespace {

int flow_main(int argc, char** argv) {
  Cli cli(argc, argv);
  if (cli.positional().empty()) {
    std::cerr << "usage: resynth_flow [--proc=2|3|combined] [--k=K] "
                 "[--weight-gates=W --weight-paths=W] [--verify=sim|sat|both] "
                 "[--out=file.bench] [--report=file.json] [--trace] "
                 "[--trace-out=trace.json] [--events=log.jsonl] "
                 "[--progress[=SECS]] "
                 "[--budget=TICKS] [--deadline=SECONDS] "
                 "[--checkpoint=ck.json] [--resume=ck.json] [--inject=SPEC] "
                 "<suite-name | file.bench>\n"
                 "  suite names:";
    for (const auto& e : benchmark_suite()) std::cerr << " " << e.name;
    std::cerr << "\n";
    return robust::kExitUsage;
  }
  if (!obs_cli_start(cli, "resynth_flow")) return robust::kExitUsage;

  const std::string source = cli.positional()[0];
  const FlowSpec spec = FlowSpec::from_cli(cli);
  std::string invalid;
  if (!spec.validate(&invalid)) {
    std::cerr << "error: " << invalid << "\n";
    return robust::kExitUsage;
  }
  // Resume: load and validate before any work, so flag mismatches fail fast.
  const std::string resume_path = cli.get("resume", "");
  FlowCheckpoint ck;
  const bool resumed = !resume_path.empty();
  if (resumed) {
    std::string err;
    if (!ck.load(resume_path, &err)) {
      throw InputError("--resume=" + resume_path + ": " + err);
    }
    if (ck.circuit != source || !(ck.spec == spec)) {
      throw InputError(
          "--resume=" + resume_path +
          ": checkpoint was written under different flags (circuit/proc/k/"
          "weights/verify/budget must match for the continuation to be "
          "reproducible)");
    }
  }
  const robust::RunControls controls = robust::RunControls::from_cli(
      cli, resumed ? ck.ticks : 0, cli.has("checkpoint") || cli.has("resume"));

  RunReport report("resynth_flow");
  Netlist nl = source.ends_with(".bench") ? read_bench_file(source)
                                          : make_benchmark(source);
  const FlowOutcome outcome = run_flow(
      spec, source, nl, controls, std::cout, report,
      {resumed ? &ck : nullptr, resume_path, cli.get("checkpoint", "")});

  if (cli.has("out")) {
    std::ofstream os(cli.get("out"));
    write_bench(nl.compacted(), os);
    std::cout << "wrote " << cli.get("out") << "\n";
  }

  robust::RunStatus status = outcome.status;
  if (!obs_cli_finish(cli, report, robust::to_string(status), std::cout)) {
    status = robust::RunStatus::Error;
  }
  cli.warn_unrecognized(std::cerr);
  return robust::exit_code(status);
}


}  // namespace

int main(int argc, char** argv) {
  return robust::guard_main("resynth_flow", argc, argv,
                            [&] { return flow_main(argc, argv); });
}
