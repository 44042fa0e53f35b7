// Persistent incremental SAT sessions: the one way the flow asks SAT about a
// circuit (fault proofs in redundancy removal, CEC in the proof modes).
// Rather than a fresh Solver and Tseitin miter per query, a SatSession keeps
// ONE solver alive and
//
//  * encodes each circuit once (structural fingerprint + exact structural
//    compare, so re-adding the same netlist is free and shares the clauses),
//  * adds the per-query constraints (fault miter cone, CEC miter binding)
//    under a fresh activation literal, with ~act appended to every clause,
//  * solves under the assumption {act}, and
//  * retires the group afterwards by adding the unit clause ~act, which
//    satisfies every gated clause -- including any learned clause that
//    depended on the group -- leaving them inert but sound.
//
// Learned clauses over the shared (ungated) circuit definitions survive
// between queries: that clause reuse, plus skipping the re-encoding, is the
// measured win in BENCH_table2_sat.json. The session is deterministic -- no
// randomness, count-based compaction only -- but the solver carries
// VSIDS/phase state across queries, so a near-budget verdict (Unknown) can
// depend on which queries came before. Definitive verdicts (Sat/Unsat) never
// do; the fresh-miter parity oracles in tests/sat_session_test.cpp and
// tests/sat_cec_fuzz_test.cpp check that.
//
// Sessions are single-threaded and caller-scoped: a session answers queries
// about the snapshots it was given; after mutating a netlist, add it again
// (a changed structure gets a fresh encoding) or start a fresh session.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faults/fault.hpp"
#include "netlist/equivalence.hpp"
#include "netlist/netlist.hpp"
#include "sat/cec.hpp"
#include "sat/satpg.hpp"
#include "sat/solver.hpp"
#include "sat/tseitin.hpp"

namespace compsyn {

class SatSession {
 public:
  using CircuitId = std::size_t;

  /// Retired activation groups tolerated before the session compacts
  /// (rebuilds the solver and re-encodes every circuit, dropping all inert
  /// clauses). Count-based, so compaction points are deterministic.
  static constexpr std::size_t kDefaultMaxRetired = 256;

  explicit SatSession(std::size_t max_retired = kDefaultMaxRetired)
      : max_retired_(max_retired) {}

  /// Encodes `nl` into the session (or finds the existing encoding of a
  /// structurally identical netlist: fingerprint match confirmed by an exact
  /// structural compare, never by hash alone). Counters:
  /// sat.session.encoded / sat.session.reuse_hits.
  CircuitId add_circuit(const Netlist& nl);

  /// SAT-ATPG over the shared encoding: gated fault miter, solve under the
  /// activation, retire. Sat yields a test, Unsat is a redundancy proof,
  /// Unknown only means the budget ran out (conflicts are this query's
  /// delta). Counters: sat.atpg.calls/tests/redundancy_proofs/unknown.
  SatFaultResult prove_fault(CircuitId id, const StuckFault& fault,
                             const SolverBudget& budget = {kDefaultFaultConflicts,
                                                           0});

  /// CEC between two encoded circuits: gated miter binding, solve, retire.
  /// When both ids name the same encoding the circuits are structurally
  /// identical and the proof is immediate (no solver call).
  EquivalenceResult check_equivalent(CircuitId a, CircuitId b,
                                     const SolverBudget& budget = {
                                         kDefaultCecConflicts, 0});

  /// Convenience: add (or re-find) both circuits, then check.
  EquivalenceResult check_equivalent(const Netlist& a, const Netlist& b,
                                     const SolverBudget& budget = {
                                         kDefaultCecConflicts, 0});

  std::size_t num_circuits() const { return circuits_.size(); }
  const SolverStats& stats() const { return solver_.stats(); }

 private:
  struct Entry {
    std::uint64_t fingerprint = 0;
    std::string key;   // exact structural serialisation (collision guard)
    Netlist netlist;   // snapshot: queries and compaction re-encodes use it
    CircuitEncoding enc;
  };

  SatLit new_activation() { return mk_lit(solver_.new_var(), false); }
  void retire(SatLit act);
  /// Deterministic rebuild: fresh solver, every circuit re-encoded in id
  /// order. Drops retired groups and all learned clauses.
  void compact();

  Solver solver_;
  std::vector<Entry> circuits_;
  std::size_t retired_ = 0;  // groups retired since the last compaction
  std::size_t max_retired_;
};

}  // namespace compsyn
