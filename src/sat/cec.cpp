#include "sat/cec.hpp"

#include <sstream>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "sat/session.hpp"
#include "sat/tseitin.hpp"

namespace compsyn {

const char* to_string(VerifyMode m) {
  switch (m) {
    case VerifyMode::Sim: return "sim";
    case VerifyMode::Sat: return "sat";
    case VerifyMode::Both: return "both";
  }
  return "?";
}

std::optional<VerifyMode> parse_verify_mode(std::string_view s) {
  if (s == "sim") return VerifyMode::Sim;
  if (s == "sat") return VerifyMode::Sat;
  if (s == "both") return VerifyMode::Both;
  return std::nullopt;
}

EquivalenceResult check_equivalent_sat(const Netlist& a, const Netlist& b,
                                       const SolverBudget& budget) {
  const Span sp("sat.cec");
  EquivalenceResult res;
  if (a.inputs().size() != b.inputs().size() ||
      a.outputs().size() != b.outputs().size()) {
    res.message = "interface mismatch";
    return res;
  }
  Solver solver;
  const MiterEncoding miter = encode_miter(a, b, solver);
  const SolveStatus st = solver.solve({}, budget);
  Counters::incr("sat.cec.calls");
  std::ostringstream ss;
  switch (st) {
    case SolveStatus::Unsat:
      res.equivalent = true;
      res.proven = true;
      ss << "proved equivalent by SAT (" << solver.stats().conflicts
         << " conflicts)";
      Counters::incr("sat.cec.proofs");
      break;
    case SolveStatus::Sat:
      res.counterexample = miter.counterexample(solver);
      res.proven = true;  // a concrete refutation is a proof of inequivalence
      ss << "SAT counterexample found (" << solver.stats().conflicts
         << " conflicts)";
      Counters::incr("sat.cec.refutations");
      break;
    case SolveStatus::Unknown:
      ss << "SAT budget exhausted after " << solver.stats().conflicts
         << " conflicts (verdict open)";
      Counters::incr("sat.cec.unknown");
      break;
  }
  res.message = ss.str();
  return res;
}

EquivalenceResult check_equivalent_sat(SatSession& session, const Netlist& a,
                                       const Netlist& b,
                                       const SolverBudget& budget) {
  return session.check_equivalent(a, b, budget);
}

EquivalenceResult check_equivalent_mode(const Netlist& a, const Netlist& b,
                                        Rng& rng, VerifyMode mode,
                                        unsigned random_words,
                                        unsigned exhaustive_limit,
                                        const SolverBudget& budget,
                                        SatSession* session) {
  const auto sat_check = [&] {
    return session ? check_equivalent_sat(*session, a, b, budget)
                   : check_equivalent_sat(a, b, budget);
  };
  if (mode == VerifyMode::Sat) return sat_check();
  EquivalenceResult sim =
      check_equivalent(a, b, rng, random_words, exhaustive_limit);
  if (mode == VerifyMode::Sim || sim.proven || !sim.equivalent) return sim;
  // Both: simulation passed without a proof; close the gap with SAT.
  EquivalenceResult sat = sat_check();
  if (sat.proven) return sat;
  // Budget ran out: keep the (unproven) simulation verdict, note the attempt.
  sim.message += "; " + sat.message;
  return sim;
}

}  // namespace compsyn
