// The paper's flow on one circuit (Section 5): an irredundant start,
// Procedure 2, Procedure 3 or the combined objective, redundancy removal
// again, then the comparison -- gates, paths, depth and an equivalence
// verdict. This module is the one statement of that flow and of its
// options. `resynth_flow` runs the stages below, with a checkpoint written
// at each pass boundary when asked; the serve daemon's job executor runs
// run_flow(). Both print the same lines and fill the same report meta
// because both get them from here.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/resynth.hpp"
#include "netlist/netlist.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "robust/robust.hpp"
#include "util/cli.hpp"

namespace compsyn {

/// The knobs that define one run of the flow: the flag set `resynth_flow`
/// takes and a serve job carries, with the same defaults (Procedure 2 at
/// K = 6, random-vector verification, no budget).
struct FlowSpec {
  std::string proc = "2";      // "2" | "3" | "combined"
  std::uint64_t k = 6;         // max cone inputs, 1..CutDatabase::kMaxLeaves
  double weight_gates = 1.0;   // combined-objective weights
  double weight_paths = 1.0;
  std::string verify = "sim";  // "sim" | "sat" | "both"
  std::uint64_t budget = 0;    // deterministic tick budget (0 = none)

  /// Reads --proc, --k, --weight-gates, --weight-paths, --verify and
  /// --budget; validate() the result before running it.
  static FlowSpec from_cli(const Cli& cli);

  /// The one check of a spec, for the CLIs and the wire alike: false, with
  /// *error naming the field, when proc, k or verify is out of range.
  bool validate(std::string* error) const;

  /// Sets the spec's fields on the object `j` under their wire names
  /// ("budget" only when there is one).
  void write_json(Json& j) const;

  /// Reads the fields the object `j` carries (an absent one keeps its
  /// default), each as the JSON type write_json() gives it, then validates:
  /// false, with *error naming the field, for a wrong type or a bad value.
  /// The one reader of a spec, for the wire and checkpoints alike.
  bool read_json(const Json& j, std::string* error);

  bool operator==(const FlowSpec&) const = default;
};

/// A pass record as the report's "passes" section and a checkpoint write it.
Json pass_record_json(const ResynthPassRecord& pr);

/// The resynthesis options of a validated spec: Procedure 2 (gates),
/// Procedure 3 (paths, gate increase allowed) or the weighted objective.
ResynthOptions resynth_options(const FlowSpec& spec);

/// How a finished flow came out.
struct FlowOutcome {
  bool equivalent = false;  // the verification verdict
  // The first stage the tick budget stopped early; None when none did.
  robust::StopReason degraded_reason = robust::StopReason::None;

  bool degraded() const {
    return degraded_reason != robust::StopReason::None;
  }
};

/// The flow's stages, called in this order: announce, irredundant_start,
/// resynthesize, finish. Each stage writes its lines to `out`. A stage that
/// a signal or deadline interrupts throws robust::CancelledError; a stage
/// that the tick budget stops early is remembered, and finish() reports the
/// first one.
class Flow {
 public:
  /// `circuit` is the name the report records (a suite name or the path of
  /// a .bench file). `spec` must be valid and outlive the Flow.
  Flow(const FlowSpec& spec, std::string circuit, std::ostream& out);

  /// The "circuit <name>: ..." line of the input circuit.
  void announce(const Netlist& nl);

  /// Removes the redundancies of `nl` in place: the paper's irredundant
  /// starting point. Returns it compacted, the reference the result is
  /// verified against.
  Netlist irredundant_start(Netlist& nl);

  /// Resynthesizes `nl` in place to a fixpoint with one resynthesize() call,
  /// which passes `on_boundary` and `resume_from` through.
  ResynthStats resynthesize(Netlist& nl, const PassBoundary& on_boundary = {},
                            const ResynthStats* resume_from = nullptr) const;

  /// Everything after resynthesis: the summary and per-pass lines,
  /// redundancy removal on the result, the depth line, the verification
  /// verdict, and the report's meta and "passes" records. `robust_active`
  /// adds the status/ticks/budget meta, which each caller gates itself.
  FlowOutcome finish(const Netlist& original, Netlist& nl,
                     const ResynthStats& st, bool robust_active,
                     RunReport& report);

 private:
  void note_stage(robust::RunStatus status, robust::StopReason reason);

  const FlowSpec& spec_;
  std::string circuit_;
  std::ostream& out_;
  robust::StopReason degraded_reason_ = robust::StopReason::None;
};

/// The whole flow on `nl` (left as the result, not yet compacted), as
/// `resynth_flow` runs it without --resume.
FlowOutcome run_flow(const FlowSpec& spec, const std::string& circuit,
                     Netlist& nl, bool robust_active, std::ostream& out,
                     RunReport& report);

}  // namespace compsyn
