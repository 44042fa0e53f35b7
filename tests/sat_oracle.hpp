// Fresh-miter SAT oracles for the differential tests: one new Solver and one
// new Tseitin miter per query, sharing nothing with any other query. The
// flow asks SAT only through SatSession (sat/session.hpp); these stand-alone
// encodings are the baseline its verdicts are checked against.
#pragma once

#include "faults/fault.hpp"
#include "netlist/equivalence.hpp"
#include "netlist/netlist.hpp"
#include "sat/cec.hpp"
#include "sat/satpg.hpp"
#include "sat/solver.hpp"
#include "sat/tseitin.hpp"

namespace compsyn {

/// SAT-ATPG on a fresh fault miter: Sat yields a test, Unsat a redundancy
/// proof, Unknown a blown budget.
inline SatFaultResult oneshot_prove_fault(
    const Netlist& nl, const StuckFault& fault,
    const SolverBudget& budget = {kDefaultFaultConflicts, 0}) {
  SatFaultResult res;
  Solver solver;
  const FaultMiterEncoding miter = encode_fault_miter(nl, fault, solver);
  const SolveStatus st = solver.solve({}, budget);
  res.conflicts = solver.stats().conflicts;
  switch (st) {
    case SolveStatus::Sat:
      res.status = SatFaultStatus::Testable;
      res.test = miter.test(solver);
      break;
    case SolveStatus::Unsat:
      res.status = SatFaultStatus::Untestable;
      break;
    case SolveStatus::Unknown:
      res.status = SatFaultStatus::Unknown;
      break;
  }
  return res;
}

/// CEC on a fresh output miter over shared inputs: Unsat proves
/// equivalence, Sat reads back a counterexample, Unknown leaves the verdict
/// open (equivalent=false, proven=false).
inline EquivalenceResult oneshot_check_equivalent(
    const Netlist& a, const Netlist& b,
    const SolverBudget& budget = {kDefaultCecConflicts, 0}) {
  EquivalenceResult res;
  if (a.inputs().size() != b.inputs().size() ||
      a.outputs().size() != b.outputs().size()) {
    res.message = "interface mismatch";
    return res;
  }
  Solver solver;
  const MiterEncoding miter = encode_miter(a, b, solver);
  switch (solver.solve({}, budget)) {
    case SolveStatus::Unsat:
      res.equivalent = true;
      res.proven = true;
      break;
    case SolveStatus::Sat:
      res.counterexample = miter.counterexample(solver);
      res.proven = true;
      break;
    case SolveStatus::Unknown:
      res.message = "SAT budget exhausted (verdict open)";
      break;
  }
  return res;
}

}  // namespace compsyn
