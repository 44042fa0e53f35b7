#include "sat/satpg.hpp"

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "sat/tseitin.hpp"

namespace compsyn {

SatFaultResult prove_fault(const Netlist& nl, const StuckFault& fault,
                           const SolverBudget& budget) {
  const Span sp("sat.atpg");
  SatFaultResult res;
  Solver solver;
  const FaultMiterEncoding miter = encode_fault_miter(nl, fault, solver);
  const SolveStatus st = solver.solve({}, budget);
  res.conflicts = solver.stats().conflicts;
  Counters::incr("sat.atpg.calls");
  switch (st) {
    case SolveStatus::Sat:
      res.status = SatFaultStatus::Testable;
      res.test = miter.test(solver);
      Counters::incr("sat.atpg.tests");
      break;
    case SolveStatus::Unsat:
      res.status = SatFaultStatus::Untestable;
      Counters::incr("sat.atpg.redundancy_proofs");
      break;
    case SolveStatus::Unknown:
      res.status = SatFaultStatus::Unknown;
      Counters::incr("sat.atpg.unknown");
      break;
  }
  return res;
}

}  // namespace compsyn
