// The full paper flow on a benchmark circuit (or a user-supplied .bench
// file): make it irredundant, run Procedure 2 or 3, re-remove redundancies,
// and report gates/paths/testability -- what Section 5 does per circuit.
// The stages and their output come from flow/flow.hpp (the serve daemon
// runs the same ones); this binary adds the command line, checkpoints and
// resume.
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
#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>

#include "bench_io/bench_io.hpp"
#include "flow/checkpoint.hpp"
#include "flow/flow.hpp"
#include "gen/circuits.hpp"
#include "obs/report.hpp"
#include "robust/guard.hpp"
#include "robust/inject.hpp"
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
  const std::string checkpoint_path = cli.get("checkpoint", "");
  const std::string resume_path = cli.get("resume", "");
  const double deadline = cli.get_double("deadline", 0.0);
  const bool robust_active = cli.has("budget") || cli.has("deadline") ||
                             cli.has("checkpoint") || cli.has("resume") ||
                             cli.has("inject");

  std::optional<robust::FaultPlan> plan;
  if (cli.has("inject")) {
    std::string perr;
    plan = robust::FaultPlan::parse(cli.get("inject"), &perr);
    if (!plan) {
      std::cerr << "error: --inject=" << cli.get("inject") << ": " << perr
                << "\n";
      return robust::kExitUsage;
    }
  }

  // Resume: load and validate before any work, so flag mismatches fail fast.
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

  // Budget: the user's --budget, tightened by any scripted budget trip from
  // the fault plan. Installed whenever a robust flag is present so ticks are
  // counted (limit 0 = count only); on resume the consumed ticks carry over.
  std::uint64_t effective_limit = spec.budget;
  if (plan && plan->budget_trip != 0) {
    effective_limit = effective_limit == 0
                          ? plan->budget_trip
                          : std::min(effective_limit, plan->budget_trip);
  }
  robust::Budget budget(effective_limit, resumed ? ck.ticks : 0);
  std::optional<robust::BudgetScope> budget_scope;
  if (robust_active) budget_scope.emplace(budget);
  std::optional<robust::InjectScope> inject_scope;
  if (plan) inject_scope.emplace(*plan);
  robust::DeadlineWatchdog watchdog(deadline);

  RunReport report("resynth_flow");
  Netlist nl;
  try {
    nl = source.ends_with(".bench") ? read_bench_file(source)
                                    : make_benchmark(source);
  } catch (const InputError&) {
    throw;
  } catch (const std::exception& e) {
    throw InputError(e.what());
  }

  Flow flow(spec, source, std::cout);
  flow.announce(nl);

  Netlist original;
  if (resumed) {
    // Skip the stages the checkpoint already holds: the irredundant start,
    // the passes done, and their spans and counters.
    std::cout << "resumed from " << resume_path << ": " << ck.stats.passes
              << " pass(es) done, " << ck.ticks << " ticks consumed\n";
    obs_merge_json(ck.obs);
    original = std::move(ck.original);
    nl = std::move(ck.netlist);
  } else {
    original = flow.irredundant_start(nl);
  }

  // A checkpoint at every pass boundary: a snapshot of this very run.
  PassBoundary on_boundary;
  if (!checkpoint_path.empty()) {
    on_boundary = [&](const Netlist& at, const ResynthStats& so_far) {
      FlowCheckpoint cp{source, spec, robust::ticks_consumed(),
                        original,   at,       so_far, obs_snapshot_json()};
      std::string err;
      if (!cp.save(checkpoint_path, &err)) {
        // A lost checkpoint costs resumability, not correctness.
        std::cerr << "warning: checkpoint write failed: " << err << "\n";
      }
    };
  }
  const ResynthStats st =
      flow.resynthesize(nl, on_boundary, resumed ? &ck.stats : nullptr);
  const FlowOutcome outcome =
      flow.finish(original, nl, st, robust_active, report);

  if (cli.has("out")) {
    std::ofstream os(cli.get("out"));
    write_bench(nl.compacted(), os);
    std::cout << "wrote " << cli.get("out") << "\n";
  }

  int rc = outcome.equivalent ? robust::kExitOk : robust::kExitVerifyFailed;
  const bool degraded = outcome.degraded();
  if (!obs_cli_finish(cli, report, degraded ? "degraded" : "ok", std::cout)) {
    rc = rc ? rc : robust::kExitVerifyFailed;
  }
  cli.warn_unrecognized(std::cerr);
  if (rc == robust::kExitOk && degraded) rc = robust::kExitDegraded;
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  return robust::guard_main("resynth_flow", argc, argv,
                            [&] { return flow_main(argc, argv); });
}
