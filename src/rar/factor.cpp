#include "rar/factor.hpp"

#include <algorithm>
#include <cassert>
#include <map>

#include "core/cones.hpp"

namespace compsyn {

std::uint64_t FactorExpr::equiv_gates() const {
  if (kind == Literal) return 0;
  std::uint64_t total = args.size() - 1;
  for (const auto& a : args) total += a->equiv_gates();
  return total;
}

std::uint64_t FactorExpr::literal_occurrences() const {
  if (kind == Literal) return 1;
  std::uint64_t total = 0;
  for (const auto& a : args) total += a->literal_occurrences();
  return total;
}

namespace {

std::unique_ptr<FactorExpr> make_literal(unsigned var, bool positive) {
  auto e = std::make_unique<FactorExpr>();
  e->kind = FactorExpr::Literal;
  e->var = var;
  e->positive = positive;
  return e;
}

std::unique_ptr<FactorExpr> make_node(FactorExpr::Kind kind,
                                      std::vector<std::unique_ptr<FactorExpr>> args) {
  if (args.size() == 1) return std::move(args[0]);
  auto e = std::make_unique<FactorExpr>();
  e->kind = kind;
  e->args = std::move(args);
  return e;
}

std::unique_ptr<FactorExpr> cube_expr(const Cube& c, unsigned n) {
  std::vector<std::unique_ptr<FactorExpr>> lits;
  for (unsigned v = 0; v < n; ++v) {
    const std::uint32_t bit = 1u << (n - 1 - v);
    if (c.care & bit) lits.push_back(make_literal(v, (c.value & bit) != 0));
  }
  assert(!lits.empty());
  return make_node(FactorExpr::And, std::move(lits));
}

}  // namespace

std::unique_ptr<FactorExpr> quick_factor(const std::vector<Cube>& cover,
                                         unsigned n_vars) {
  assert(!cover.empty());
  if (cover.size() == 1) return cube_expr(cover[0], n_vars);

  // Most frequent literal across the cover.
  std::map<std::pair<unsigned, bool>, unsigned> freq;
  for (const Cube& c : cover) {
    for (unsigned v = 0; v < n_vars; ++v) {
      const std::uint32_t bit = 1u << (n_vars - 1 - v);
      if (c.care & bit) ++freq[{v, (c.value & bit) != 0}];
    }
  }
  std::pair<unsigned, bool> best{0, false};
  unsigned best_count = 0;
  for (const auto& [lit, count] : freq) {
    if (count > best_count) {
      best_count = count;
      best = lit;
    }
  }
  if (best_count <= 1) {
    // No sharing: a flat OR of cube ANDs.
    std::vector<std::unique_ptr<FactorExpr>> terms;
    for (const Cube& c : cover) terms.push_back(cube_expr(c, n_vars));
    return make_node(FactorExpr::Or, std::move(terms));
  }

  const std::uint32_t bit = 1u << (n_vars - 1 - best.first);
  std::vector<Cube> quotient, remainder;
  bool quotient_has_unit = false;  // a cube that was exactly the literal
  for (const Cube& c : cover) {
    if ((c.care & bit) && ((c.value & bit) != 0) == best.second) {
      Cube q = c;
      q.care &= ~bit;
      q.value &= ~bit;
      if (q.care == 0) quotient_has_unit = true;
      else quotient.push_back(q);
    } else {
      remainder.push_back(c);
    }
  }
  std::unique_ptr<FactorExpr> term;
  if (quotient_has_unit || quotient.empty()) {
    // l * (1 + q) == l  (or the degenerate l with empty quotient).
    term = make_literal(best.first, best.second);
  } else {
    std::vector<std::unique_ptr<FactorExpr>> parts;
    parts.push_back(make_literal(best.first, best.second));
    parts.push_back(quick_factor(quotient, n_vars));
    term = make_node(FactorExpr::And, std::move(parts));
  }
  if (remainder.empty()) return term;
  std::vector<std::unique_ptr<FactorExpr>> ors;
  ors.push_back(std::move(term));
  ors.push_back(quick_factor(remainder, n_vars));
  return make_node(FactorExpr::Or, std::move(ors));
}

namespace {

NodeId build_rec(Netlist& nl, const FactorExpr& e, const std::vector<NodeId>& vars,
                 std::map<NodeId, NodeId>& inverters) {
  if (e.kind == FactorExpr::Literal) {
    const NodeId v = vars[e.var];
    if (e.positive) return v;
    auto it = inverters.find(v);
    if (it == inverters.end()) {
      it = inverters.emplace(v, nl.add_gate(GateType::Not, {v})).first;
    }
    return it->second;
  }
  std::vector<NodeId> fi;
  fi.reserve(e.args.size());
  for (const auto& a : e.args) fi.push_back(build_rec(nl, *a, vars, inverters));
  return nl.add_gate(e.kind == FactorExpr::And ? GateType::And : GateType::Or, fi);
}

}  // namespace

NodeId build_factored(Netlist& nl, const FactorExpr& e,
                      const std::vector<NodeId>& vars) {
  std::map<NodeId, NodeId> inverters;
  return build_rec(nl, e, vars, inverters);
}

FactorConesStats factor_cones(Netlist& nl, const FactorConesOptions& opt) {
  FactorConesStats stats;
  stats.gates_before = nl.equivalent_gate_count();
  RootCones cones;
  for (unsigned pass = 0; pass < opt.max_passes; ++pass) {
    std::uint64_t replaced = 0;
    const std::vector<NodeId> order = nl.topo_order();  // snapshot
    // One cut database per pass: as in resynthesize, a rewrite at g only
    // touches g, nodes that die and new gates feeding g, none of which is
    // in the fanin cone of a root visited later.
    const CutDatabase db(nl, opt.k);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const NodeId g = *it;
      if (nl.is_dead(g)) continue;
      const GateType t = nl.node(g).type;
      if (t == GateType::Input || t == GateType::Const0 || t == GateType::Const1) {
        continue;
      }
      // Best factored replacement over all cones at g.
      std::int64_t best_gain = 0;
      std::unique_ptr<FactorExpr> best_expr;
      std::vector<NodeId> best_leaves;
      bool best_const = false, best_const_val = false;
      cones.collect(nl, db, g);
      for (std::size_t i = 0; i < cones.size(); ++i) {
        std::vector<unsigned> kept;
        const TruthTable reduced = cones.function(i).support_reduced(&kept);
        const std::int64_t removable = static_cast<std::int64_t>(
            removable_gate_count(nl, g, cones[i].interior, nullptr));
        if (reduced.num_vars() == 0) {
          if (removable > best_gain) {
            best_gain = removable;
            best_expr.reset();
            best_const = true;
            best_const_val = reduced.get(0);
          }
          continue;
        }
        // Factor whichever polarity is cheaper; an output inverter is free
        // in the equivalent-gate metric but we only use the positive form
        // here to keep the rewrite simple.
        const auto cover = irredundant_cover(reduced);
        if (cover.empty()) continue;
        auto expr = quick_factor(cover, reduced.num_vars());
        const std::int64_t gain =
            removable - static_cast<std::int64_t>(expr->equiv_gates());
        if (gain > best_gain) {
          best_gain = gain;
          best_expr = std::move(expr);
          best_const = false;
          best_leaves.clear();
          for (unsigned v : kept) best_leaves.push_back(cones[i].leaves[v]);
        }
      }
      if (best_gain <= 0) continue;
      if (best_const) {
        nl.redefine(g, best_const_val ? GateType::Const1 : GateType::Const0, {});
      } else {
        const NodeId out = build_factored(nl, *best_expr, best_leaves);
        nl.redefine(g, GateType::Buf, {out});
      }
      ++replaced;
      nl.sweep();
    }
    stats.replacements += replaced;
    nl.simplify();
    if (replaced == 0) break;
  }
  stats.gates_after = nl.equivalent_gate_count();
  return stats;
}

}  // namespace compsyn
