#include "flow/flow.hpp"

#include <ostream>
#include <utility>

#include "atpg/redundancy.hpp"
#include "core/cones.hpp"
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
  spec.budget = cli.get_u64("budget", spec.budget);
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
  if (budget != 0) j.set("budget", budget);
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
  for (auto [key, field] : {std::pair{"k", &k}, {"budget", &budget}}) {
    if (const Json* v = j.find(key)) {
      if (v->type() != Json::Type::Uint) return fail(key, "an unsigned integer");
      *field = v->as_u64();
    }
  }
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

Flow::Flow(const FlowSpec& spec, std::string circuit, std::ostream& out)
    : spec_(spec), circuit_(std::move(circuit)), out_(out) {}

void Flow::note_stage(robust::RunStatus status, robust::StopReason reason) {
  if (status == robust::RunStatus::Interrupted) {
    throw robust::CancelledError(reason);
  }
  if (status == robust::RunStatus::Degraded &&
      degraded_reason_ == robust::StopReason::None) {
    degraded_reason_ = reason;
  }
}

void Flow::announce(const Netlist& nl) {
  out_ << "circuit " << nl.name() << ": " << nl.inputs().size()
       << " inputs, " << nl.outputs().size() << " outputs, "
       << nl.equivalent_gate_count() << " equivalent 2-input gates\n";
}

Netlist Flow::irredundant_start(Netlist& nl) {
  const Span phase("redundancy_removal", SpanKind::Phase);
  const RedundancyRemovalStats rr = remove_redundancies(nl);
  note_stage(rr.status, rr.stop_reason);
  out_ << "redundancy removal: " << rr.removed
       << " substitutions (irredundant start, as in the paper)\n";
  Netlist original = nl.compacted();
  out_ << "irredundant: " << original.equivalent_gate_count() << " gates, "
       << format_path_total(count_paths_clamped(original).total)
       << " paths, depth " << original.depth() << "\n";
  return original;
}

ResynthStats Flow::resynthesize(Netlist& nl, const PassBoundary& on_boundary,
                                const ResynthStats* resume_from) const {
  const Span phase("resynth", SpanKind::Phase);
  return compsyn::resynthesize(nl, resynth_options(spec_), on_boundary,
                               resume_from);
}

FlowOutcome Flow::finish(const Netlist& original, Netlist& nl,
                         const ResynthStats& st, bool robust_active,
                         RunReport& report) {
  note_stage(st.status, st.stop_reason);
  if (spec_.proc == "combined") {
    out_ << "Combined objective (K=" << spec_.k << ", wg=" << spec_.weight_gates
         << ", wp=" << spec_.weight_paths << "): " << st.replacements
         << " replacements over " << st.passes << " pass(es)\n";
  } else {
    out_ << "Procedure " << spec_.proc << " (K=" << spec_.k
         << "): " << st.replacements << " replacements over " << st.passes
         << " pass(es)\n";
  }
  out_ << "  gates " << st.gates_before << " -> " << st.gates_after
       << "\n  paths " << format_path_total(st.paths_before) << " -> "
       << format_path_total(st.paths_after) << "\n";
  for (const ResynthPassRecord& pr : st.history) {
    out_ << "  pass " << pr.pass << ": " << pr.replacements
         << " replacement(s) -> " << pr.gates << " gates, "
         << format_path_total(pr.paths) << " paths\n";
  }
  if (st.status == robust::RunStatus::Degraded) {
    out_ << "resynthesis degraded (" << robust::to_string(st.stop_reason)
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
    out_ << "post-resynthesis redundancy removal: " << rr.removed
         << " substitutions -> " << nl.equivalent_gate_count() << " gates, "
         << format_path_total(count_paths_clamped(nl).total) << " paths\n";
  } else {
    out_ << "no redundant stuck-at faults after resynthesis\n";
  }
  out_ << "depth: " << original.depth() << " -> " << nl.depth() << "\n";

  const VerifyMode verify =
      parse_verify_mode(spec_.verify).value_or(VerifyMode::Sim);
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
  out_ << "function preserved: " << (eq.equivalent ? "yes" : "NO") << how
       << "\n";

  const FlowOutcome outcome{eq.equivalent, degraded_reason_};
  report.set_meta("circuit", circuit_);
  report.set_meta("proc", spec_.proc);
  report.set_meta("k", spec_.k);
  report.set_meta("gates_before", st.gates_before);
  report.set_meta("gates_after", st.gates_after);
  report.set_meta("paths_before", path_total_json(st.paths_before));
  report.set_meta("paths_after", path_total_json(st.paths_after));
  report.set_meta("function_preserved", eq.equivalent);
  report.set_meta("verify", spec_.verify);
  report.set_meta("verify_proven", eq.proven);
  // Only when a robust flag is in play (or the run actually degraded), so a
  // default-flag report keeps the shape it had before budgets existed.
  if (robust_active || outcome.degraded()) {
    report.set_meta("status", outcome.degraded() ? "degraded" : "ok");
    if (outcome.degraded()) {
      report.set_meta("stop_reason", robust::to_string(degraded_reason_));
    }
    report.set_meta("ticks", robust::ticks_consumed());
    if (spec_.budget != 0) report.set_meta("budget", spec_.budget);
  }
  for (const ResynthPassRecord& pr : st.history) {
    report.add_record("passes", pass_record_json(pr));
  }
  return outcome;
}

FlowOutcome run_flow(const FlowSpec& spec, const std::string& circuit,
                     Netlist& nl, bool robust_active, std::ostream& out,
                     RunReport& report) {
  Flow flow(spec, circuit, out);
  flow.announce(nl);
  const Netlist original = flow.irredundant_start(nl);
  const ResynthStats st = flow.resynthesize(nl);
  return flow.finish(original, nl, st, robust_active, report);
}

}  // namespace compsyn
