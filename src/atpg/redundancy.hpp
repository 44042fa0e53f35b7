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
// Completion: PODEM filters, SAT decides. PODEM runs under a small backtrack
// budget (kRedundancyBacktrackLimit) and settles the easy faults; every
// fault it aborts is decided by the fault miter of one incremental
// SatSession per netlist state (sat/session.hpp), opened on the state's
// first abort. Both engines give exact verdicts and substitutions follow
// fault order, so the resulting netlist does not depend on the PODEM budget;
// a fault is left undecided only if SAT also exhausts its conflict budget.
//
// PODEM runs here in its legacy search order (AtpgStrategy's default): the
// SCOAP-guided policies of atpg/guided.hpp cut the aborts that reach SAT
// but not the time, so this path takes no guidance table and asserts
// `strategy.is_legacy()`. The policies serve test generation only.
#pragma once

#include <cstdint>

#include "atpg/podem.hpp"
#include "netlist/netlist.hpp"
#include "robust/robust.hpp"
#include "sat/satpg.hpp"
#include "sat/solver.hpp"

namespace compsyn {

/// PODEM backtrack budget of redundancy removal: past it a fault goes to
/// SAT, which decides hard untestable faults far faster than PODEM's search.
/// Set by the budget sweep in EXPERIMENTS.md; test generation keeps
/// AtpgOptions' own default.
inline constexpr std::uint64_t kRedundancyBacktrackLimit = 250;

struct RedundancyRemovalOptions {
  AtpgOptions atpg{.backtrack_limit = kRedundancyBacktrackLimit};
  unsigned max_rounds = 1000;  // substitutions before giving up
  // Random-pattern pre-filter: faults a few random blocks already detect are
  // certainly testable and skip ATPG entirely. 0 disables the filter.
  unsigned random_filter_blocks = 128;
  std::uint64_t random_filter_seed = 0xF117ull;
  // Conflict budget of the SAT decision on each PODEM-aborted fault.
  SolverBudget sat_budget{/*max_conflicts=*/kDefaultFaultConflicts,
                          /*max_propagations=*/0};
};

struct RedundancyRemovalStats {
  unsigned removed = 0;            // substitutions applied
  std::uint64_t faults_checked = 0;
  std::uint64_t aborted = 0;       // PODEM hit its backtrack limit: SAT decides
  // SAT outcomes over the aborted faults:
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
/// aborts are decided by SAT, as in remove_redundancies; an unresolved fault
/// counts as failure.
bool is_irredundant(const Netlist& nl,
                    const AtpgOptions& opt = {
                        .backtrack_limit = kRedundancyBacktrackLimit});

}  // namespace compsyn
