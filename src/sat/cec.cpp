#include "sat/cec.hpp"

#include "sat/session.hpp"

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

EquivalenceResult check_equivalent_mode(const Netlist& a, const Netlist& b,
                                        Rng& rng, VerifyMode mode,
                                        unsigned random_words,
                                        unsigned exhaustive_limit,
                                        const SolverBudget& budget,
                                        SatSession* session) {
  const auto sat_check = [&] {
    if (session != nullptr) return session->check_equivalent(a, b, budget);
    SatSession local;
    return local.check_equivalent(a, b, budget);
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
