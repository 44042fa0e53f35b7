// Redundancy removal (the [15] Kajihara/Shiba/Kinoshita substrate used in
// Section 5): any line whose stuck-at-v fault is proven untestable can be
// replaced by the constant v without changing the circuit function; constant
// propagation then shrinks the circuit, which can expose further
// redundancies, so the process iterates to a fixpoint.
//
// Removal is one-fault-at-a-time: after each substitution the fault list is
// rebuilt, because removing one redundancy can make other previously
// redundant faults testable (removing several together is unsound).
//
// Completion: PODEM's backtrack budget can leave faults Aborted (nothing
// proven). With `sat_fallback` enabled, every aborted fault is re-decided by
// the SAT fault miter (sat/satpg.hpp) -- a genuine proof or a test in almost
// all cases -- so aborted faults no longer silently escape the untestability
// sweep. Off by default: the extra proofs trigger extra substitutions, and
// the historical (PODEM-only) results stay reproducible bit-for-bit; the
// bench/example drivers switch it on together with `--verify=sat|both`.
#pragma once

#include <cstdint>

#include "atpg/podem.hpp"
#include "netlist/netlist.hpp"
#include "robust/robust.hpp"
#include "sat/session.hpp"
#include "sat/solver.hpp"

namespace compsyn {

struct RedundancyRemovalOptions {
  AtpgOptions atpg;            // bounded by default (see AtpgOptions)
  unsigned max_rounds = 1000;  // substitutions before giving up
  // Random-pattern pre-filter: faults a few random blocks already detect are
  // certainly testable and skip ATPG entirely. 0 disables the filter.
  unsigned random_filter_blocks = 128;
  std::uint64_t random_filter_seed = 0xF117ull;
  // Re-decide PODEM-aborted faults with the SAT fault miter. Proofs found
  // this way trigger the same constant substitution as PODEM proofs (which
  // changes the resulting circuit, hence opt-in; see the header comment).
  bool sat_fallback = false;
  SolverBudget sat_budget{/*max_conflicts=*/200000, /*max_propagations=*/0};
  // Session: aborted faults are re-decided through one persistent SatSession
  // (shared encoding + learned clauses per netlist state), serially at the
  // commit point so the verdict stream stays jobs-invariant. Oneshot keeps
  // the per-fault fresh-miter path, solved inside the evaluation workers.
  // Defaults to the process-wide --sat flag.
  SatBackend backend = sat_backend();
};

struct RedundancyRemovalStats {
  unsigned removed = 0;            // substitutions applied
  std::uint64_t faults_checked = 0;
  std::uint64_t aborted = 0;       // PODEM hit its backtrack limit
  // Speculative verdicts computed for a window and dropped at its commit
  // point because an earlier substitution in the window made them stale.
  std::uint64_t speculative_discarded = 0;
  // SAT fallback outcomes over the aborted faults:
  std::uint64_t sat_fallback_calls = 0;
  std::uint64_t sat_proved_untestable = 0;  // redundancy proofs PODEM missed
  std::uint64_t sat_found_tests = 0;        // testable after all
  std::uint64_t sat_unknown = 0;            // SAT budget also exhausted
  // Faults of the final round with no verdict from either engine; nonzero
  // means `irredundant` cannot be claimed.
  std::uint64_t aborted_unresolved = 0;
  bool irredundant = false;        // true when the final circuit is proven
                                   // free of redundant faults
  // Anytime outcome: Degraded/Interrupted when the sweep wound down early
  // (budget / cancellation). Faults not yet decided are simply left in the
  // circuit — never substituted — so the result is function-equivalent and
  // `irredundant` stays false.
  robust::RunStatus status = robust::RunStatus::Complete;
  robust::StopReason stop_reason = robust::StopReason::None;
};

/// Removes redundancies in place. The circuit function is preserved exactly.
RedundancyRemovalStats remove_redundancies(Netlist& nl,
                                           const RedundancyRemovalOptions& opt = {});

/// True if every (collapsed) stuck-at fault is provably testable. PODEM
/// aborts are re-decided by SAT; an unresolved fault counts as failure.
bool is_irredundant(const Netlist& nl, const AtpgOptions& opt = {});

}  // namespace compsyn
