// Circuit optimisation by comparison-unit replacement (Section 4).
//
// Procedure 2 (reduce gates): reverse-topological sweep from the outputs;
// at every marked gate output g, enumerate candidate cones with at most K
// inputs, keep those whose function is a comparison function, and replace
// the cone giving the largest reduction in equivalent 2-input gates
// (tie-break: fewest paths on g). Inputs of the selected cone are marked for
// later consideration; gates internal to a selected unit are skipped.
// Passes repeat until no further reduction (Section 4.1).
//
// Procedure 3 (reduce paths): same sweep, selecting the cone that minimises
// the number of paths on g, with no gate-count objective (Section 4.2).
//
// Combined objective (Section 4.3): weighted sum of the gate reduction and
// the path reduction. The paper describes this trade-off but does not
// evaluate it; we implement it as the natural generalisation (weights (1,0)
// give Procedure 2's primary criterion, (0,1) Procedure 3's).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/comparison.hpp"
#include "core/cones.hpp"
#include "core/comparison_unit.hpp"
#include "netlist/netlist.hpp"
#include "robust/robust.hpp"

namespace compsyn {

enum class ResynthObjective {
  Gates,     // Procedure 2
  Paths,     // Procedure 3
  Combined,  // Section 4.3 extension
};

struct ResynthOptions {
  ResynthObjective objective = ResynthObjective::Gates;
  unsigned k = 6;                  // max cone inputs (paper: K = 5, 6)
  unsigned max_passes = 16;        // fixpoint guard
  IdentifyOptions identify;        // exact by default
  UnitOptions unit;
  // Section 6 extension (2): replace cones whose function is NOT a single
  // comparison function by an OR of up to max_units comparison units.
  // 1 (default) reproduces the paper's procedures exactly.
  unsigned max_units = 1;
  // Section 6 extension (1): exploit unreachable cone-input combinations
  // (satisfiability don't-cares) during identification. Off by default
  // (paper behaviour). Circuits with at most sdc_max_inputs primary inputs
  // use the exact full-sweep ReachabilityTable; wider circuits fall back to
  // the SAT oracle (per-combination incremental queries) when sdc_sat is
  // set, and otherwise run without don't-cares as before.
  bool use_sdc = false;
  unsigned sdc_max_inputs = 14;
  bool sdc_sat = true;
  // Combined-objective weights: score = wg * (gates saved) + wp * (paths
  // saved on g); only used when objective == Combined. Only Procedure 2
  // refuses a replacement that increases the gate count; Procedure 3 (as
  // Table 5 shows) and the combined trade-off may take one.
  double weight_gates = 1.0;
  double weight_paths = 1.0;
};

/// Snapshot taken after one full pass (post-simplify), so fixpoint
/// convergence is visible: gates/paths are the circuit totals at that point.
struct ResynthPassRecord {
  unsigned pass = 0;               // 1-based
  std::uint64_t replacements = 0;  // replacements applied during this pass
  std::uint64_t gates = 0;         // equivalent 2-input gates after the pass
  std::uint64_t paths = 0;         // total paths after the pass
};

struct ResynthStats {
  unsigned passes = 0;
  std::uint64_t replacements = 0;
  std::uint64_t cones_considered = 0;
  std::uint64_t comparison_cones = 0;  // cones whose function qualified
  std::uint64_t gates_before = 0;
  std::uint64_t gates_after = 0;
  std::uint64_t paths_before = 0;
  std::uint64_t paths_after = 0;
  std::vector<ResynthPassRecord> history;  // one record per pass, in order
  // Anytime outcome: Complete at a natural fixpoint (or max_passes);
  // Degraded when the tick budget stopped the sweep (best-so-far netlist,
  // every committed replacement fully verified); Interrupted on
  // signal/deadline cancellation. The netlist is function-equivalent to
  // the input in all three cases.
  robust::RunStatus status = robust::RunStatus::Complete;
  robust::StopReason stop_reason = robust::StopReason::None;
};

/// Called at every pass boundary with the netlist and the stats so far:
/// once before the first pass, then after each pass that ran to its end.
/// The two together are the whole state the next pass starts from.
using PassBoundary =
    std::function<void(const Netlist& nl, const ResynthStats& so_far)>;

/// Runs the selected procedure in place until a fixpoint (or max_passes).
/// The circuit function is preserved exactly; the result is swept and
/// simplified. Returns the statistics of the whole run. `resume_from`, when
/// given, is the `so_far` of an earlier run's pass boundary with `nl` as it
/// was there: the run continues from that boundary exactly as the earlier
/// run did, and its stats cover both.
ResynthStats resynthesize(Netlist& nl, const ResynthOptions& opt = {},
                          const PassBoundary& on_boundary = {},
                          const ResynthStats* resume_from = nullptr);

/// Convenience wrappers matching the paper's procedure names.
ResynthStats procedure2(Netlist& nl, unsigned k = 6);
ResynthStats procedure3(Netlist& nl, unsigned k = 6);

}  // namespace compsyn
