#include "flow/flow.hpp"

#include <iostream>
#include <utility>

#include "atpg/redundancy.hpp"
#include "core/cones.hpp"
#include "flow/checkpoint.hpp"
#include "netlist/equivalence.hpp"
#include "obs/trace.hpp"
#include "paths/paths.hpp"
#include "sat/cec.hpp"
#include "util/rng.hpp"

namespace compsyn {
namespace {

/// Path total for JSON: plain number normally, ">=2^63" once saturated.
Json path_total_json(std::uint64_t total) {
  if (total >= kPathCountSaturated) return Json(format_path_total(total));
  return Json(total);
}

}  // namespace

FlowSpec FlowSpec::from_cli(const Cli& cli) {
  FlowSpec spec;
  spec.proc = cli.get("proc", spec.proc);
  spec.k = cli.get_u64("k", spec.k);
  spec.weight_gates = cli.get_double("weight-gates", spec.weight_gates);
  spec.weight_paths = cli.get_double("weight-paths", spec.weight_paths);
  spec.verify = cli.get("verify", spec.verify);
  if (cli.has("budget")) spec.budget = cli.get_u64("budget", 0);
  return spec;
}

bool FlowSpec::validate(std::string* error) const {
  const char* why = nullptr;
  if (proc != "2" && proc != "3" && proc != "combined") {
    why = "'proc' must be \"2\", \"3\", or \"combined\"";
  } else if (k == 0 || k > CutDatabase::kMaxLeaves) {
    why = "'k' must be in [1, 8]";
  } else if (!parse_verify_mode(verify)) {
    why = "'verify' must be \"sim\", \"sat\", or \"both\"";
  }
  if (why != nullptr && error != nullptr) *error = why;
  return why == nullptr;
}

void FlowSpec::write_json(Json& j) const {
  j.set("proc", proc);
  j.set("k", k);
  j.set("weight_gates", weight_gates);
  j.set("weight_paths", weight_paths);
  j.set("verify", verify);
  if (budget) j.set("budget", *budget);
}

bool FlowSpec::read_json(const Json& j, std::string* error) {
  auto fail = [&](const char* key, const char* what) {
    if (error != nullptr) *error = std::string("'") + key + "' must be " + what;
    return false;
  };
  for (auto [key, field] : {std::pair{"proc", &proc}, {"verify", &verify}}) {
    if (const Json* v = j.find(key)) {
      if (v->type() != Json::Type::String) return fail(key, "a string");
      *field = v->as_string();
    }
  }
  std::uint64_t budget_value = 0;
  for (auto [key, field] : {std::pair{"k", &k}, {"budget", &budget_value}}) {
    if (const Json* v = j.find(key)) {
      if (v->type() != Json::Type::Uint) return fail(key, "an unsigned integer");
      *field = v->as_u64();
    }
  }
  if (j.find("budget") != nullptr) budget = budget_value;
  for (auto [key, field] : {std::pair{"weight_gates", &weight_gates},
                            {"weight_paths", &weight_paths}}) {
    if (const Json* v = j.find(key)) {
      if (!v->is_number()) return fail(key, "a number");
      *field = v->as_double();
    }
  }
  return validate(error);
}

Json pass_record_json(const ResynthPassRecord& pr) {
  Json rec = Json::object();
  rec.set("pass", static_cast<std::uint64_t>(pr.pass));
  rec.set("replacements", pr.replacements);
  rec.set("gates", pr.gates);
  rec.set("paths", path_total_json(pr.paths));
  return rec;
}

ResynthOptions resynth_options(const FlowSpec& spec) {
  ResynthOptions opt;
  if (spec.proc == "combined") {
    // Section 4.3: weighted gate/path objective. Weights (1,0) recover
    // Procedure 2's primary criterion, (0,1) Procedure 3's.
    opt.objective = ResynthObjective::Combined;
    opt.weight_gates = spec.weight_gates;
    opt.weight_paths = spec.weight_paths;
  } else if (spec.proc == "3") {
    opt.objective = ResynthObjective::Paths;
  } else {
    opt.objective = ResynthObjective::Gates;
  }
  opt.k = static_cast<unsigned>(spec.k);
  return opt;
}

FlowOutcome run_flow(const FlowSpec& spec, const std::string& circuit,
                     Netlist& nl, const robust::RunControls& controls,
                     std::ostream& out, RunReport& report,
                     const FlowCheckpoints& checkpoints) {
  FlowOutcome outcome;
  // A stage that a signal or deadline interrupted ends the run; the first
  // one the budget stopped early degrades it.
  auto note_stage = [&](robust::RunStatus status, robust::StopReason reason) {
    if (status == robust::RunStatus::Interrupted) {
      throw robust::CancelledError(reason);
    }
    if (status == robust::RunStatus::Degraded &&
        outcome.status == robust::RunStatus::Complete) {
      outcome = {status, reason};
    }
  };

  out << "circuit " << nl.name() << ": " << nl.inputs().size() << " inputs, "
      << nl.outputs().size() << " outputs, " << nl.equivalent_gate_count()
      << " equivalent 2-input gates\n";

  Netlist original;  // the irredundant start the result is verified against
  FlowCheckpoint* ck = checkpoints.resume;
  if (ck != nullptr) {
    // Skip the stages the checkpoint already holds: the irredundant start,
    // the passes done, and their spans and counters.
    out << "resumed from " << checkpoints.resume_path << ": "
        << ck->stats.passes << " pass(es) done, " << ck->ticks
        << " ticks consumed\n";
    obs_merge_json(ck->obs);
    original = std::move(ck->original);
    nl = std::move(ck->netlist);
  } else {
    const Span phase("redundancy_removal", SpanKind::Phase);
    const RedundancyRemovalStats rr = remove_redundancies(nl);
    note_stage(rr.status, rr.stop_reason);
    out << "redundancy removal: " << rr.removed
        << " substitutions (irredundant start, as in the paper)\n";
    original = nl.compacted();
    out << "irredundant: " << original.equivalent_gate_count() << " gates, "
        << format_path_total(count_paths_clamped(original).total)
        << " paths, depth " << original.depth() << "\n";
  }

  // A checkpoint at every pass boundary: a snapshot of this very run.
  PassBoundary on_boundary;
  if (!checkpoints.save_path.empty()) {
    on_boundary = [&](const Netlist& at, const ResynthStats& so_far) {
      FlowCheckpoint cp{circuit,  spec,   robust::ticks_consumed(),
                        original, at,     so_far,
                        obs_snapshot_json()};
      std::string err;
      if (!cp.save(checkpoints.save_path, &err)) {
        // A lost checkpoint costs resumability, not correctness.
        std::cerr << "warning: checkpoint write failed: " << err << "\n";
      }
    };
  }
  ResynthStats st;
  {
    const Span phase("resynth", SpanKind::Phase);
    st = resynthesize(nl, resynth_options(spec), on_boundary,
                      ck != nullptr ? &ck->stats : nullptr);
  }
  note_stage(st.status, st.stop_reason);
  if (spec.proc == "combined") {
    out << "Combined objective (K=" << spec.k << ", wg=" << spec.weight_gates
        << ", wp=" << spec.weight_paths << "): " << st.replacements
        << " replacements over " << st.passes << " pass(es)\n";
  } else {
    out << "Procedure " << spec.proc << " (K=" << spec.k
        << "): " << st.replacements << " replacements over " << st.passes
        << " pass(es)\n";
  }
  out << "  gates " << st.gates_before << " -> " << st.gates_after
      << "\n  paths " << format_path_total(st.paths_before) << " -> "
      << format_path_total(st.paths_after) << "\n";
  for (const ResynthPassRecord& pr : st.history) {
    out << "  pass " << pr.pass << ": " << pr.replacements
        << " replacement(s) -> " << pr.gates << " gates, "
        << format_path_total(pr.paths) << " paths\n";
  }
  if (st.status == robust::RunStatus::Degraded) {
    out << "resynthesis degraded (" << robust::to_string(st.stop_reason)
        << " after " << robust::ticks_consumed()
        << " ticks): best-so-far result, every committed replacement "
           "verified\n";
  }

  RedundancyRemovalStats rr;
  {
    const Span phase("redundancy_removal_post", SpanKind::Phase);
    rr = remove_redundancies(nl);
  }
  note_stage(rr.status, rr.stop_reason);
  if (rr.removed) {
    out << "post-resynthesis redundancy removal: " << rr.removed
        << " substitutions -> " << nl.equivalent_gate_count() << " gates, "
        << format_path_total(count_paths_clamped(nl).total) << " paths\n";
  } else {
    out << "no redundant stuck-at faults after resynthesis\n";
  }
  out << "depth: " << original.depth() << " -> " << nl.depth() << "\n";

  const VerifyMode verify =
      parse_verify_mode(spec.verify).value_or(VerifyMode::Sim);
  Rng rng(1);
  EquivalenceResult eq;
  {
    const Span phase("verify", SpanKind::Phase);
    const Span sp("verify");
    eq = verify == VerifyMode::Sim
             ? check_equivalent(original, nl, rng, 128)
             : check_equivalent_mode(original, nl, rng, verify, 128);
  }
  // A cancel that landed during verification leaves eq unreliable (the SAT
  // side may have wound down Unknown); report "interrupted", not a verdict.
  if (robust::cancel_requested()) {
    throw robust::CancelledError(robust::cancel_reason());
  }
  // The sim wording predates the SAT modes; those say what was proved.
  std::string how =
      eq.exhaustive ? " (proved exhaustively)" : " (random vectors)";
  if (verify != VerifyMode::Sim && !eq.exhaustive && eq.proven) {
    how = eq.equivalent ? " (proved by SAT)" : " (SAT counterexample)";
  }
  out << "function preserved: " << (eq.equivalent ? "yes" : "NO") << how
      << "\n";
  if (!eq.equivalent) outcome.status = robust::RunStatus::Error;

  report.set_meta("circuit", circuit);
  report.set_meta("proc", spec.proc);
  report.set_meta("k", spec.k);
  report.set_meta("gates_before", st.gates_before);
  report.set_meta("gates_after", st.gates_after);
  report.set_meta("paths_before", path_total_json(st.paths_before));
  report.set_meta("paths_after", path_total_json(st.paths_after));
  report.set_meta("function_preserved", eq.equivalent);
  report.set_meta("verify", spec.verify);
  report.set_meta("verify_proven", eq.proven);
  controls.write_meta(report, outcome.status, outcome.reason,
                      /*with_budget=*/true);
  for (const ResynthPassRecord& pr : st.history) {
    report.add_record("passes", pass_record_json(pr));
  }
  return outcome;
}

}  // namespace compsyn
