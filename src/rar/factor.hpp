// Algebraic factoring (SIS-style "quick factor") and factored-form cone
// rewriting -- the area-optimization muscle of the RAMBO_C-era baseline.
//
// quick_factor recursively divides an SOP cover by its most frequent
// literal: f = l*q + r, factoring q and r in turn; the result is a
// multilevel AND/OR tree whose equivalent-gate count is usually close to
// what comparison units achieve on interval functions, but which works for
// ARBITRARY functions and typically carries more paths (one per literal
// occurrence in the factored form) -- the structural reason the paper's
// Table 3 baseline wins gates but loses paths.
//
// factor_cones sweeps the circuit like Procedure 2, but replaces each cone
// with the quick-factored form of its prime irredundant cover whenever that
// reduces the equivalent gate count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/two_level.hpp"
#include "netlist/netlist.hpp"

namespace compsyn {

/// A factored-form expression over variables 0..n-1.
struct FactorExpr {
  enum Kind { Literal, And, Or } kind = Literal;
  unsigned var = 0;       // for Literal
  bool positive = true;   // for Literal
  std::vector<std::unique_ptr<FactorExpr>> args;

  /// Equivalent 2-input gates of the expression tree (inverters free).
  std::uint64_t equiv_gates() const;
  /// Number of literal occurrences (= paths through the factored form).
  std::uint64_t literal_occurrences() const;
};

/// Quick-factors a cover (assumed non-constant). The cover's cubes must all
/// have at least one literal.
std::unique_ptr<FactorExpr> quick_factor(const std::vector<Cube>& cover,
                                         unsigned n_vars);

/// Builds the expression into a netlist over the given variable nodes.
NodeId build_factored(Netlist& nl, const FactorExpr& e,
                      const std::vector<NodeId>& vars);

struct FactorConesOptions {
  unsigned k = 6;           // cone input limit
  unsigned max_passes = 8;
};

struct FactorConesStats {
  std::uint64_t replacements = 0;
  std::uint64_t gates_before = 0;
  std::uint64_t gates_after = 0;
};

/// Factored-form cone rewriting to a fixpoint; the function is kept exactly.
FactorConesStats factor_cones(Netlist& nl, const FactorConesOptions& opt = {});

}  // namespace compsyn
