// The full paper flow on a benchmark circuit (or a user-supplied .bench
// file): make it irredundant, run Procedure 2 or 3, re-remove redundancies,
// and report gates/paths/testability -- what Section 5 does per circuit.
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

#include "atpg/redundancy.hpp"
#include "bench_io/bench_io.hpp"
#include "core/cones.hpp"
#include "core/resynth.hpp"
#include "gen/circuits.hpp"
#include "netlist/equivalence.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "paths/paths.hpp"
#include "robust/checkpoint.hpp"
#include "robust/guard.hpp"
#include "robust/inject.hpp"
#include "robust/robust.hpp"
#include "sat/cec.hpp"
#include "util/cli.hpp"
#include "util/errors.hpp"

using namespace compsyn;

namespace {

/// Path total for JSON: plain number normally, ">=2^63" once saturated.
Json path_total_json(std::uint64_t total) {
  if (total >= kPathCountSaturated) return Json(format_path_total(total));
  return Json(total);
}

struct FlowConfig {
  std::string source;
  std::string proc;
  unsigned k = 6;
  double weight_gates = 1.0;
  double weight_paths = 1.0;
  std::string verify_str;
  VerifyMode verify = VerifyMode::Sim;
  std::uint64_t budget_limit = 0;     // --budget flag value (0 = none)
  std::string checkpoint_path;        // "" = no checkpoint writing
  std::string resume_path;            // "" = fresh run
  bool robust_active = false;         // any robust flag present
};

ResynthOptions resynth_options(const FlowConfig& cfg) {
  ResynthOptions opt;
  if (cfg.proc == "combined") {
    opt.objective = ResynthObjective::Combined;
    opt.weight_gates = cfg.weight_gates;
    opt.weight_paths = cfg.weight_paths;
  } else if (cfg.proc == "3") {
    opt.objective = ResynthObjective::Paths;
    opt.allow_gate_increase = true;
  } else {
    opt.objective = ResynthObjective::Gates;
  }
  opt.k = cfg.k;
  return opt;
}

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
  cp.proc = cfg.proc;
  cp.k = cfg.k;
  cp.weight_gates = cfg.weight_gates;
  cp.weight_paths = cfg.weight_paths;
  cp.verify = cfg.verify_str;
  cp.budget_limit = cfg.budget_limit;
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
  ResynthOptions opt = resynth_options(cfg);
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
  const std::string verify_str = cli.get("verify", "sim");
  const auto verify = parse_verify_mode(verify_str);
  if (!verify) {
    std::cerr << "error: --verify=" << verify_str
              << " (expected sim, sat, or both)\n";
    return robust::kExitUsage;
  }

  FlowConfig cfg;
  cfg.source = cli.positional()[0];
  cfg.proc = cli.get("proc", "2");
  const std::uint64_t k = cli.get_u64("k", 6);
  if (k == 0 || k > CutDatabase::kMaxLeaves) {
    std::cerr << "error: --k=" << k << " (expected 1 to 8)\n";
    return robust::kExitUsage;
  }
  cfg.k = static_cast<unsigned>(k);
  cfg.weight_gates = cli.get_double("weight-gates", 1.0);
  cfg.weight_paths = cli.get_double("weight-paths", 1.0);
  cfg.verify_str = verify_str;
  cfg.verify = *verify;
  cfg.budget_limit = cli.get_u64("budget", 0);
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
    if (ck.circuit != cfg.source || ck.proc != cfg.proc || ck.k != cfg.k ||
        ck.weight_gates != cfg.weight_gates ||
        ck.weight_paths != cfg.weight_paths || ck.verify != cfg.verify_str ||
        ck.budget_limit != cfg.budget_limit) {
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
  std::uint64_t effective_limit = cfg.budget_limit;
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

  std::cout << "circuit " << nl.name() << ": " << nl.inputs().size()
            << " inputs, " << nl.outputs().size() << " outputs, "
            << nl.equivalent_gate_count() << " equivalent 2-input gates\n";

  // First degraded stage wins the reported stop reason.
  robust::StopReason degraded_reason = robust::StopReason::None;
  auto note_stage = [&](robust::RunStatus s, robust::StopReason r) {
    if (s == robust::RunStatus::Degraded &&
        degraded_reason == robust::StopReason::None) {
      degraded_reason = r;
    }
  };

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
    const Span phase_rr0("redundancy_removal", SpanKind::Phase);
    auto rr0 = remove_redundancies(nl);
    if (rr0.status == robust::RunStatus::Interrupted) {
      throw robust::CancelledError(rr0.stop_reason);
    }
    note_stage(rr0.status, rr0.stop_reason);
    std::cout << "redundancy removal: " << rr0.removed
              << " substitutions (irredundant start, as in the paper)\n";
    original = nl.compacted();
    std::cout << "irredundant: " << original.equivalent_gate_count()
              << " gates, "
              << format_path_total(count_paths_clamped(original).total)
              << " paths, depth " << original.depth() << "\n";
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

  {
    const Span phase_resynth("resynth", SpanKind::Phase);
    if (ckpt_driver) {
      st = run_passes_checkpointed(nl, cfg, original_bench, st);
    } else if (cfg.proc == "combined") {
      // Section 4.3: weighted gate/path objective. Weights default to (1,1);
      // (1,0) recovers Procedure 2's primary criterion, (0,1) Procedure 3's.
      st = resynthesize(nl, resynth_options(cfg));
    } else {
      st = cfg.proc == "3" ? procedure3(nl, cfg.k) : procedure2(nl, cfg.k);
    }
  }
  if (st.status == robust::RunStatus::Interrupted) {
    throw robust::CancelledError(st.stop_reason);
  }
  note_stage(st.status, st.stop_reason);
  if (cfg.proc == "combined") {
    std::cout << "Combined objective (K=" << cfg.k
              << ", wg=" << cfg.weight_gates << ", wp=" << cfg.weight_paths
              << "): " << st.replacements << " replacements over " << st.passes
              << " pass(es)\n";
  } else {
    std::cout << "Procedure " << cfg.proc << " (K=" << cfg.k
              << "): " << st.replacements << " replacements over " << st.passes
              << " pass(es)\n";
  }
  std::cout << "  gates " << st.gates_before << " -> " << st.gates_after
            << "\n  paths " << format_path_total(st.paths_before) << " -> "
            << format_path_total(st.paths_after) << "\n";
  for (const ResynthPassRecord& pr : st.history) {
    std::cout << "  pass " << pr.pass << ": " << pr.replacements
              << " replacement(s) -> " << pr.gates << " gates, "
              << format_path_total(pr.paths) << " paths\n";
  }
  if (st.status == robust::RunStatus::Degraded) {
    std::cout << "resynthesis degraded ("
              << robust::to_string(st.stop_reason) << " after "
              << robust::ticks_consumed()
              << " ticks): best-so-far result, every committed replacement "
                 "verified\n";
  }

  std::optional<Span> phase_rr1;
  phase_rr1.emplace("redundancy_removal_post", SpanKind::Phase);
  auto rr1 = remove_redundancies(nl);
  phase_rr1.reset();
  if (rr1.status == robust::RunStatus::Interrupted) {
    throw robust::CancelledError(rr1.stop_reason);
  }
  note_stage(rr1.status, rr1.stop_reason);
  if (rr1.removed) {
    std::cout << "post-resynthesis redundancy removal: " << rr1.removed
              << " substitutions -> " << nl.equivalent_gate_count()
              << " gates, " << format_path_total(count_paths_clamped(nl).total)
              << " paths\n";
  } else {
    std::cout << "no redundant stuck-at faults after resynthesis\n";
  }
  std::cout << "depth: " << original.depth() << " -> " << nl.depth() << "\n";

  Rng rng(1);
  EquivalenceResult eq;
  {
    const Span phase_verify("verify", SpanKind::Phase);
    const Span sp("verify");
    eq = cfg.verify == VerifyMode::Sim
             ? check_equivalent(original, nl, rng, 128)
             : check_equivalent_mode(original, nl, rng, cfg.verify, 128);
  }
  // A cancel that landed during verification leaves eq unreliable (the SAT
  // side may have wound down Unknown); report "interrupted", not a verdict.
  if (robust::cancel_requested()) {
    throw robust::CancelledError(robust::cancel_reason());
  }
  // Default (sim) wording is unchanged; the SAT modes say what was proved.
  std::string how = eq.exhaustive ? " (proved exhaustively)" : " (random vectors)";
  if (cfg.verify != VerifyMode::Sim && !eq.exhaustive && eq.proven) {
    how = eq.equivalent ? " (proved by SAT)" : " (SAT counterexample)";
  }
  std::cout << "function preserved: " << (eq.equivalent ? "yes" : "NO") << how
            << "\n";

  if (cli.has("out")) {
    std::ofstream os(cli.get("out"));
    write_bench(nl.compacted(), os);
    std::cout << "wrote " << cli.get("out") << "\n";
  }

  const bool degraded = degraded_reason != robust::StopReason::None;
  int rc = eq.equivalent ? robust::kExitOk : robust::kExitVerifyFailed;
  if (cli.has("report")) {
    report.set_meta("circuit", cfg.source);
    report.set_meta("proc", cfg.proc);
    report.set_meta("k", static_cast<std::uint64_t>(cfg.k));
    report.set_meta("gates_before", st.gates_before);
    report.set_meta("gates_after", st.gates_after);
    report.set_meta("paths_before", path_total_json(st.paths_before));
    report.set_meta("paths_after", path_total_json(st.paths_after));
    report.set_meta("function_preserved", eq.equivalent);
    report.set_meta("verify", verify_str);
    report.set_meta("verify_proven", eq.proven);
    // Emitted only when a robust flag is in play (or the run actually
    // degraded), so default-flag reports stay byte-identical across releases.
    if (cfg.robust_active || degraded) {
      report.set_meta("status", degraded ? "degraded" : "ok");
      if (degraded) {
        report.set_meta("stop_reason", robust::to_string(degraded_reason));
      }
      report.set_meta("ticks", robust::ticks_consumed());
      if (cfg.budget_limit != 0) report.set_meta("budget", cfg.budget_limit);
    }
    for (const ResynthPassRecord& pr : st.history) {
      Json rec = Json::object();
      rec.set("pass", static_cast<std::uint64_t>(pr.pass));
      rec.set("replacements", pr.replacements);
      rec.set("gates", pr.gates);
      rec.set("paths", path_total_json(pr.paths));
      report.add_record("passes", std::move(rec));
    }
  }
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
