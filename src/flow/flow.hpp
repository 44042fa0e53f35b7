// The paper's flow on one circuit (Section 5): an irredundant start,
// Procedure 2, Procedure 3 or the combined objective, redundancy removal
// again, then the comparison -- gates, paths, depth and an equivalence
// verdict. This module is the one statement of that flow and of its
// options. `resynth_flow` and the serve daemon's job executor both run
// run_flow(), so both print the same lines and fill the same report meta.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "core/resynth.hpp"
#include "netlist/netlist.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "robust/guard.hpp"
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
  // Deterministic tick budget; 0 sets no limit. A budget that is set, even
  // to 0, asks for the report's status meta, as --budget=0 does.
  std::optional<std::uint64_t> budget;

  /// Reads --proc, --k, --weight-gates, --weight-paths, --verify and
  /// --budget; validate() the result before running it.
  static FlowSpec from_cli(const Cli& cli);

  /// The one check of a spec, for the CLIs and the wire alike: false, with
  /// *error naming the field, when proc, k or verify is out of range.
  bool validate(std::string* error) const;

  /// Sets the spec's fields on the object `j` under their wire names
  /// ("budget" only when it is set).
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
  // Complete; Degraded when the tick budget stopped a stage early; Error
  // when the verification failed.
  robust::RunStatus status = robust::RunStatus::Complete;
  // The stop of the first stage the budget stopped early; None if none did.
  robust::StopReason reason = robust::StopReason::None;
};

struct FlowCheckpoint;

/// A run's checkpoints: the loaded one it resumes from (consumed: its
/// netlists move into the run) and the file it came from, and the file a
/// checkpoint is written to at every pass boundary ("" for none).
struct FlowCheckpoints {
  FlowCheckpoint* resume = nullptr;
  std::string resume_path;
  std::string save_path;
};

/// The whole flow on `nl` under `controls`: the "circuit" line, the
/// irredundant start, resynthesis to a fixpoint, redundancy removal on the
/// result, the depth line and the verification verdict, each line written
/// to `out`, then the report's meta (the status meta through
/// controls.write_meta()) and "passes" records. `nl` is left as the result,
/// not yet compacted. A resumed run skips the stages its checkpoint holds,
/// and merges its spans and counters. A stage that a signal or deadline
/// interrupts throws robust::CancelledError. `circuit` is the name the
/// report and checkpoints record (a suite name or the path of a .bench
/// file).
FlowOutcome run_flow(const FlowSpec& spec, const std::string& circuit,
                     Netlist& nl, const robust::RunControls& controls,
                     std::ostream& out, RunReport& report,
                     const FlowCheckpoints& checkpoints = {});

}  // namespace compsyn
