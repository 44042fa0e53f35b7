#include "serve/job.hpp"

#include <optional>
#include <sstream>

#include "atpg/redundancy.hpp"
#include "bench_io/bench_io.hpp"
#include "core/comparison.hpp"
#include "core/resynth.hpp"
#include "gen/circuits.hpp"
#include "netlist/equivalence.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "paths/paths.hpp"
#include "robust/robust.hpp"
#include "sat/cec.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace compsyn::serve {
namespace {

/// Mirrors resynth_flow's path_total_json: plain number normally, the
/// ">=2^63" string once saturated.
Json path_total_json(std::uint64_t total) {
  if (total >= kPathCountSaturated) return Json(format_path_total(total));
  return Json(total);
}

ResynthOptions resynth_options(const JobSpec& spec) {
  ResynthOptions opt;
  if (spec.proc == "combined") {
    opt.objective = ResynthObjective::Combined;
    opt.weight_gates = spec.weight_gates;
    opt.weight_paths = spec.weight_paths;
  } else if (spec.proc == "3") {
    opt.objective = ResynthObjective::Paths;
    opt.allow_gate_increase = true;
  } else {
    opt.objective = ResynthObjective::Gates;
  }
  opt.k = spec.k;
  return opt;
}

}  // namespace

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
  const auto verify = parse_verify_mode(spec.verify);
  if (!verify) {  // from_json validated already; belt and braces
    out.status = "error";
    out.error = "invalid verify mode";
    out.report = job_error_report("error", out.error);
    return out;
  }

  // Per-job robustness scopes, mirroring flow_main: the budget is installed
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

    cout << "circuit " << nl.name() << ": " << nl.inputs().size()
         << " inputs, " << nl.outputs().size() << " outputs, "
         << nl.equivalent_gate_count() << " equivalent 2-input gates\n";

    robust::StopReason degraded_reason = robust::StopReason::None;
    auto note_stage = [&](robust::RunStatus s, robust::StopReason r) {
      if (s == robust::RunStatus::Degraded &&
          degraded_reason == robust::StopReason::None) {
        degraded_reason = r;
      }
    };

    Netlist original;
    {
      const Span phase_rr0("redundancy_removal", SpanKind::Phase);
      auto rr0 = remove_redundancies(nl);
      if (rr0.status == robust::RunStatus::Interrupted) {
        throw robust::CancelledError(rr0.stop_reason);
      }
      note_stage(rr0.status, rr0.stop_reason);
      cout << "redundancy removal: " << rr0.removed
           << " substitutions (irredundant start, as in the paper)\n";
      original = nl.compacted();
      cout << "irredundant: " << original.equivalent_gate_count() << " gates, "
           << format_path_total(count_paths_clamped(original).total)
           << " paths, depth " << original.depth() << "\n";
    }

    ResynthStats st;
    {
      const Span phase_resynth("resynth", SpanKind::Phase);
      if (spec.proc == "combined") {
        st = resynthesize(nl, resynth_options(spec));
      } else {
        st = spec.proc == "3" ? procedure3(nl, spec.k) : procedure2(nl, spec.k);
      }
    }
    if (st.status == robust::RunStatus::Interrupted) {
      throw robust::CancelledError(st.stop_reason);
    }
    note_stage(st.status, st.stop_reason);
    if (spec.proc == "combined") {
      cout << "Combined objective (K=" << spec.k << ", wg=" << spec.weight_gates
           << ", wp=" << spec.weight_paths << "): " << st.replacements
           << " replacements over " << st.passes << " pass(es)\n";
    } else {
      cout << "Procedure " << spec.proc << " (K=" << spec.k
           << "): " << st.replacements << " replacements over " << st.passes
           << " pass(es)\n";
    }
    cout << "  gates " << st.gates_before << " -> " << st.gates_after
         << "\n  paths " << format_path_total(st.paths_before) << " -> "
         << format_path_total(st.paths_after) << "\n";
    for (const ResynthPassRecord& pr : st.history) {
      cout << "  pass " << pr.pass << ": " << pr.replacements
           << " replacement(s) -> " << pr.gates << " gates, "
           << format_path_total(pr.paths) << " paths\n";
    }
    if (st.status == robust::RunStatus::Degraded) {
      cout << "resynthesis degraded (" << robust::to_string(st.stop_reason)
           << " after " << robust::ticks_consumed()
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
      cout << "post-resynthesis redundancy removal: " << rr1.removed
           << " substitutions -> " << nl.equivalent_gate_count() << " gates, "
           << format_path_total(count_paths_clamped(nl).total) << " paths\n";
    } else {
      cout << "no redundant stuck-at faults after resynthesis\n";
    }
    cout << "depth: " << original.depth() << " -> " << nl.depth() << "\n";

    Rng rng(1);
    EquivalenceResult eq;
    {
      const Span phase_verify("verify", SpanKind::Phase);
      const Span sp("verify");
      eq = *verify == VerifyMode::Sim
               ? check_equivalent(original, nl, rng, 128)
               : check_equivalent_mode(original, nl, rng, *verify, 128);
    }
    if (robust::cancel_requested()) {
      throw robust::CancelledError(robust::cancel_reason());
    }
    std::string how =
        eq.exhaustive ? " (proved exhaustively)" : " (random vectors)";
    if (*verify != VerifyMode::Sim && !eq.exhaustive && eq.proven) {
      how = eq.equivalent ? " (proved by SAT)" : " (SAT counterexample)";
    }
    cout << "function preserved: " << (eq.equivalent ? "yes" : "NO") << how
         << "\n";

    out.bench = write_bench_string(nl.compacted());

    const bool degraded = degraded_reason != robust::StopReason::None;
    report.set_meta("circuit", spec.circuit);
    report.set_meta("proc", spec.proc);
    report.set_meta("k", static_cast<std::uint64_t>(spec.k));
    report.set_meta("gates_before", st.gates_before);
    report.set_meta("gates_after", st.gates_after);
    report.set_meta("paths_before", path_total_json(st.paths_before));
    report.set_meta("paths_after", path_total_json(st.paths_after));
    report.set_meta("function_preserved", eq.equivalent);
    report.set_meta("verify", spec.verify);
    report.set_meta("verify_proven", eq.proven);
    if (spec.robust_active() || degraded) {
      report.set_meta("status", degraded ? "degraded" : "ok");
      if (degraded) {
        report.set_meta("stop_reason", robust::to_string(degraded_reason));
      }
      report.set_meta("ticks", robust::ticks_consumed());
      if (spec.budget != 0) report.set_meta("budget", spec.budget);
    }
    for (const ResynthPassRecord& pr : st.history) {
      Json rec = Json::object();
      rec.set("pass", static_cast<std::uint64_t>(pr.pass));
      rec.set("replacements", pr.replacements);
      rec.set("gates", pr.gates);
      rec.set("paths", path_total_json(pr.paths));
      report.add_record("passes", std::move(rec));
    }
    out.report = report.to_json();
    out.stdout_text = cout.str();
    if (!eq.equivalent) {
      out.status = "error";
      out.error = "verification failed: function not preserved";
      out.cacheable = false;
    } else {
      out.status = degraded ? "degraded" : "ok";
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
