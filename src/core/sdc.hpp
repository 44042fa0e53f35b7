// Satisfiability don't-cares for cone inputs (Section 6, open issue (1):
// "combinations of values that cannot be obtained due to logic dependencies
// in the circuit can be used during the selection of comparison units").
//
// Two interchangeable oracles answer "which joint value combinations of
// these nodes ever occur":
//
//  * ReachabilityTable performs an exact full-input-space sweep (so it is
//    limited to circuits with few primary inputs);
//  * SatReachability decides each combination with an incremental SAT query
//    over the Tseitin encoding of the circuit (sat/), so it works at any
//    input width; a per-query budget keeps it total, with Unknown treated
//    as reachable (always safe).
//
// A cone whose leaves are logically dependent gets an incompletely
// specified function; identify_comparison_dc searches for an interval that
// matches the ON-set on all REACHABLE minterms, letting unreachable ones
// fall wherever convenient. Replacements based on such specs alter the cone
// function only on unreachable leaf combinations, so the circuit function
// is preserved.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/comparison.hpp"
#include "core/truth_table.hpp"
#include "netlist/netlist.hpp"
#include "sat/solver.hpp"
#include "sat/tseitin.hpp"

namespace compsyn {

/// Common interface of the reachability backends. Implementations must be
/// conservative: marking an unreachable combination reachable is always
/// sound (it only forgoes a don't-care), the reverse never is.
class ReachabilityOracle {
 public:
  virtual ~ReachabilityOracle() = default;
  /// Truth table over `nodes` (nodes[0] = MSB) whose ON-set contains every
  /// joint value combination that occurs for some input pattern.
  virtual TruthTable reachable_combos(const std::vector<NodeId>& nodes) const = 0;
};

class ReachabilityTable : public ReachabilityOracle {
 public:
  /// Sweeps all 2^|inputs| patterns; throws std::invalid_argument when the
  /// circuit has more than max_inputs inputs (memory: 2^inputs bits/node).
  explicit ReachabilityTable(const Netlist& nl, unsigned max_inputs = 16);

  /// Truth table over `nodes` (nodes[0] = MSB) whose ON-set is exactly the
  /// joint value combinations that occur for some input pattern. Nodes
  /// created after construction are rejected (returns an all-ones table:
  /// everything assumed reachable, which is always safe).
  TruthTable reachable_combos(const std::vector<NodeId>& nodes) const override;

  std::size_t tracked_nodes() const { return nodes_; }

 private:
  std::size_t nodes_ = 0;
  std::size_t words_ = 0;
  // Node-major, 2^n pattern bits per node: node n's words at n * words_.
  std::vector<std::uint64_t> bits_;
};

/// SAT-backed oracle for circuits whose input count forbids the exact sweep.
/// Encodes the circuit once; each reachable_combos(nodes) call decides all
/// 2^|nodes| combinations by incremental solving under assumptions. Unsat
/// means the combination is unreachable (an exact don't-care); Sat or a
/// blown budget means it is treated as reachable.
class SatReachability : public ReachabilityOracle {
 public:
  /// A functional-signature cache sits over the SAT queries: repeat node
  /// sets return their memoized table outright, and a node set whose
  /// per-node simulation signatures (core/signature.hpp) align with an
  /// already-answered set reuses that answer after SAT proves the paired
  /// nodes functionally equal (diff assumptions Unsat) -- collisions are
  /// never trusted without a proof. Queries stay serial and the memo is
  /// consulted in insertion order, so answers remain deterministic.
  explicit SatReachability(const Netlist& nl,
                           const SolverBudget& per_query = {/*max_conflicts=*/20000,
                                                            /*max_propagations=*/0});

  /// Nodes created after construction (or dead at construction) make the
  /// result fall back to all-ones: everything assumed reachable.
  /// Incremental solving mutates solver_, and learned clauses make budgeted
  /// answers depend on the query order: resynthesis queries in cone order.
  TruthTable reachable_combos(const std::vector<NodeId>& nodes) const override;

 private:
  /// SAT-confirmed functional equality of two encoded nodes (memoized).
  /// True only on proof (both diff directions Unsat); Sat or a blown
  /// budget yields false, which merely forgoes a cache reuse.
  bool nodes_equal(NodeId a, NodeId b) const;

  TruthTable solve_combos(const std::vector<NodeId>& nodes) const;

  mutable Solver solver_;
  CircuitEncoding enc_;
  SolverBudget per_query_;
  std::vector<std::uint64_t> sigs_;  // per-node 64-pattern signatures
  mutable std::vector<std::pair<std::vector<NodeId>, TruthTable>> memo_;
  mutable std::unordered_map<std::uint64_t, bool> eq_memo_;  // packed id pair
};

/// Comparison-function identification with don't-cares: finds (perm, L, U)
/// such that every CARE minterm m satisfies (value(m) in [L,U]) == f(m).
/// Sampled permutation search (identity, reversal, then random orders);
/// complement handled as usual. `care` must have the same width as f.
std::vector<ComparisonSpec> identify_comparison_dc(const TruthTable& f,
                                                   const TruthTable& care,
                                                   const IdentifyOptions& opt = {});

}  // namespace compsyn
