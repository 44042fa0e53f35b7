// The full paper flow on a benchmark circuit (or a user-supplied .bench
// file): make it irredundant, run Procedure 2 or 3, re-remove redundancies,
// and report gates/paths/testability -- what Section 5 does per circuit.
// The stages and their output come from flow/flow.hpp (the serve daemon
// runs the same ones); this binary adds the command line and the
// checkpoint/resume pass loop.
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
// checkpointed run killed between passes resumes to a byte-identical final
// netlist and (masked) report.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>

#include "bench_io/bench_io.hpp"
#include "flow/flow.hpp"
#include "gen/circuits.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "paths/paths.hpp"
#include "robust/checkpoint.hpp"
#include "robust/guard.hpp"
#include "robust/inject.hpp"
#include "robust/robust.hpp"
#include "util/cli.hpp"
#include "util/errors.hpp"

using namespace compsyn;

namespace {

struct FlowConfig {
  std::string source;
  FlowSpec spec;
  std::string checkpoint_path;        // "" = no checkpoint writing
  std::string resume_path;            // "" = fresh run
  bool robust_active = false;         // any robust flag present
};

/// The slice of ResynthStats a checkpoint carries (the rest is recomputed
/// from the restored netlist when the run finishes).
Json stats_to_json(const ResynthStats& st) {
  Json j = Json::object();
  j.set("gates_before", st.gates_before);
  j.set("paths_before", st.paths_before);
  j.set("passes", static_cast<std::uint64_t>(st.passes));
  j.set("replacements", st.replacements);
  j.set("cones_considered", st.cones_considered);
  j.set("comparison_cones", st.comparison_cones);
  Json hist = Json::array();
  for (const ResynthPassRecord& pr : st.history) {
    Json rec = Json::object();
    rec.set("pass", static_cast<std::uint64_t>(pr.pass));
    rec.set("replacements", pr.replacements);
    rec.set("gates", pr.gates);
    rec.set("paths", pr.paths);
    hist.push(std::move(rec));
  }
  j.set("history", std::move(hist));
  return j;
}

ResynthStats stats_from_json(const Json& j) {
  auto u64 = [&](const char* key) -> std::uint64_t {
    const Json* v = j.find(key);
    if (!v) throw InputError(std::string("checkpoint stats missing '") + key + "'");
    return v->as_u64();
  };
  ResynthStats st;
  st.gates_before = u64("gates_before");
  st.paths_before = u64("paths_before");
  st.passes = static_cast<unsigned>(u64("passes"));
  st.replacements = u64("replacements");
  st.cones_considered = u64("cones_considered");
  st.comparison_cones = u64("comparison_cones");
  const Json* hist = j.find("history");
  if (!hist || !hist->is_array()) {
    throw InputError("checkpoint stats missing 'history'");
  }
  for (std::size_t i = 0; i < hist->size(); ++i) {
    const Json& rec = hist->at(i);
    ResynthPassRecord pr;
    const Json* f = rec.find("pass");
    if (!f) throw InputError("checkpoint pass record missing 'pass'");
    pr.pass = static_cast<unsigned>(f->as_u64());
    f = rec.find("replacements");
    if (!f) throw InputError("checkpoint pass record missing 'replacements'");
    pr.replacements = f->as_u64();
    f = rec.find("gates");
    if (!f) throw InputError("checkpoint pass record missing 'gates'");
    pr.gates = f->as_u64();
    f = rec.find("paths");
    if (!f) throw InputError("checkpoint pass record missing 'paths'");
    pr.paths = f->as_u64();
    st.history.push_back(pr);
  }
  return st;
}

Json counters_to_json() {
  Json j = Json::object();
  for (const CounterStat& c : Counters::counters()) j.set(c.name, c.value);
  return j;
}

/// Re-seeds the obs counters from a checkpoint snapshot so the resumed
/// run's final counter totals equal the uninterrupted run's. (Distribution
/// samples and memo hit/miss rates cannot be replayed; report comparisons
/// mask those.)
void restore_counters(const Json& j) {
  for (const auto& [name, value] : j.items()) {
    Counters::incr(name, value.as_u64());
  }
}

void save_flow_checkpoint(const FlowConfig& cfg, const ResynthStats& st,
                          const std::string& netlist_bench,
                          const std::string& original_bench) {
  robust::FlowCheckpoint cp;
  cp.circuit = cfg.source;
  cp.proc = cfg.spec.proc;
  cp.k = static_cast<unsigned>(cfg.spec.k);
  cp.weight_gates = cfg.spec.weight_gates;
  cp.weight_paths = cfg.spec.weight_paths;
  cp.verify = cfg.spec.verify;
  cp.budget_limit = cfg.spec.budget;
  cp.stage = "resynth";
  cp.passes_done = st.passes;
  cp.ticks = robust::ticks_consumed();
  cp.stopped_degraded = st.status == robust::RunStatus::Degraded;
  cp.netlist_bench = netlist_bench;
  cp.original_bench = original_bench;
  cp.stats = stats_to_json(st);
  cp.counters = counters_to_json();
  std::string err;
  if (!cp.save(cfg.checkpoint_path, &err)) {
    // A lost checkpoint costs resumability, not correctness: warn and run on.
    std::cerr << "warning: checkpoint write failed: " << err << "\n";
  }
}

/// Pass loop used when --checkpoint/--resume is active: one resynthesize()
/// call per pass, a checkpoint cut at every boundary, and the in-memory
/// netlist round-tripped through the same .bench text a resume would load —
/// so the continuation of a checkpointed run and of a resumed run proceed
/// from bit-identical state (DESIGN.md §10). The default flow path keeps
/// the single resynthesize() call and is byte-identical to earlier releases.
ResynthStats run_passes_checkpointed(Netlist& nl, const FlowConfig& cfg,
                                     const std::string& original_bench,
                                     ResynthStats total) {
  const Span phase_resynth("resynth", SpanKind::Phase);
  ResynthOptions opt = resynth_options(cfg.spec);
  const unsigned max_passes = opt.max_passes;
  opt.max_passes = 1;
  bool fixpoint =
      !total.history.empty() && total.history.back().replacements == 0;
  while (total.passes < max_passes && !fixpoint) {
    if (robust::should_stop()) {
      total.stop_reason = robust::stop_reason();
      total.status = robust::run_status_for(total.stop_reason);
      break;
    }
    const ResynthStats one = resynthesize(nl, opt);
    total.status = one.status;
    total.stop_reason = one.stop_reason;
    if (one.passes == 0) break;  // a stop raced us to the pass boundary
    ++total.passes;
    total.replacements += one.replacements;
    total.cones_considered += one.cones_considered;
    total.comparison_cones += one.comparison_cones;
    ResynthPassRecord rec = one.history.front();
    rec.pass = total.passes;
    total.history.push_back(rec);
    // Interrupted mid-pass: no checkpoint (the pass boundary was never
    // reached); the caller converts the status into a CancelledError.
    if (one.status == robust::RunStatus::Interrupted) break;
    fixpoint = rec.replacements == 0;
    const std::string cur = write_bench_string(nl);
    if (!cfg.checkpoint_path.empty()) {
      save_flow_checkpoint(cfg, total, cur, original_bench);
    }
    nl = read_bench_string(cur, nl.name());
    if (one.status != robust::RunStatus::Complete) break;  // degraded
  }
  total.gates_after = nl.equivalent_gate_count();
  total.paths_after = count_paths_clamped(nl).total;
  return total;
}

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

  FlowConfig cfg;
  cfg.source = cli.positional()[0];
  cfg.spec = FlowSpec::from_cli(cli);
  std::string invalid;
  if (!cfg.spec.validate(&invalid)) {
    std::cerr << "error: " << invalid << "\n";
    return robust::kExitUsage;
  }
  cfg.checkpoint_path = cli.get("checkpoint", "");
  cfg.resume_path = cli.get("resume", "");
  const double deadline = cli.get_double("deadline", 0.0);
  cfg.robust_active = cli.has("budget") || cli.has("deadline") ||
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
  robust::FlowCheckpoint ck;
  const bool resumed = !cfg.resume_path.empty();
  if (resumed) {
    std::string err;
    if (!ck.load(cfg.resume_path, &err)) {
      throw InputError("--resume=" + cfg.resume_path + ": " + err);
    }
    if (ck.circuit != cfg.source || ck.proc != cfg.spec.proc ||
        ck.k != cfg.spec.k || ck.weight_gates != cfg.spec.weight_gates ||
        ck.weight_paths != cfg.spec.weight_paths ||
        ck.verify != cfg.spec.verify || ck.budget_limit != cfg.spec.budget) {
      throw InputError(
          "--resume=" + cfg.resume_path +
          ": checkpoint was written under different flags (circuit/proc/k/"
          "weights/verify/budget must match for the continuation to be "
          "reproducible)");
    }
  }

  // Budget: the user's --budget, tightened by any scripted budget trip from
  // the fault plan. Installed whenever a robust flag is present so ticks are
  // counted (limit 0 = count only); on resume the consumed ticks carry over.
  std::uint64_t effective_limit = cfg.spec.budget;
  if (plan && plan->budget_trip != 0) {
    effective_limit = effective_limit == 0
                          ? plan->budget_trip
                          : std::min(effective_limit, plan->budget_trip);
  }
  robust::Budget budget(effective_limit, resumed ? ck.ticks : 0);
  std::optional<robust::BudgetScope> budget_scope;
  if (cfg.robust_active) budget_scope.emplace(budget);
  std::optional<robust::InjectScope> inject_scope;
  if (plan) inject_scope.emplace(*plan);
  robust::DeadlineWatchdog watchdog(deadline);

  RunReport report("resynth_flow");
  Netlist nl;
  try {
    nl = cfg.source.size() > 6 &&
                 cfg.source.substr(cfg.source.size() - 6) == ".bench"
             ? read_bench_file(cfg.source)
             : make_benchmark(cfg.source);
  } catch (const InputError&) {
    throw;
  } catch (const std::exception& e) {
    throw InputError(e.what());
  }

  Flow flow(cfg.spec, cfg.source, std::cout);
  flow.announce(nl);

  const bool ckpt_driver = resumed || !cfg.checkpoint_path.empty();
  Netlist original;
  std::string original_bench;
  ResynthStats st;
  if (resumed) {
    // Skip the already-done stages: restore the netlist, the pre-flow
    // original, the pass stats, and the counter totals from the checkpoint.
    std::cout << "resumed from " << cfg.resume_path << ": " << ck.passes_done
              << " pass(es) done, " << ck.ticks << " ticks consumed\n";
    original_bench = ck.original_bench;
    original = read_bench_string(original_bench, nl.name());
    nl = read_bench_string(ck.netlist_bench, nl.name());
    st = stats_from_json(ck.stats);
    restore_counters(ck.counters);
  } else {
    original = flow.irredundant_start(nl);
    if (ckpt_driver) {
      // Canonicalise through the .bench round-trip a resume performs, and
      // cut the pass-0 boundary checkpoint so a kill during the first pass
      // is resumable without redoing redundancy removal.
      st.gates_before = nl.equivalent_gate_count();
      st.paths_before = count_paths_clamped(nl).total;
      original_bench = write_bench_string(original);
      original = read_bench_string(original_bench, original.name());
      const std::string cur = write_bench_string(nl);
      if (!cfg.checkpoint_path.empty()) {
        save_flow_checkpoint(cfg, st, cur, original_bench);
      }
      nl = read_bench_string(cur, nl.name());
    }
  }

  st = ckpt_driver ? run_passes_checkpointed(nl, cfg, original_bench, st)
                   : flow.resynthesize(nl);
  const FlowOutcome outcome =
      flow.finish(original, nl, st, cfg.robust_active, report);

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
