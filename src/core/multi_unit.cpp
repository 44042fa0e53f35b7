#include "core/multi_unit.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "util/rng.hpp"

namespace compsyn {

TruthTable MultiUnitSpec::to_truth_table() const {
  assert(!parts.empty());
  TruthTable acc(parts[0].n);
  for (const ComparisonSpec& p : parts) {
    const TruthTable t = p.to_truth_table();
    for (std::uint32_t m = 0; m < acc.num_minterms(); ++m) {
      if (t.get(m)) acc.set(m, true);
    }
  }
  return complemented ? acc.complemented() : acc;
}

namespace {

/// Maximal runs of consecutive ON values of f under `perm`; empty when the
/// run count exceeds `cap`.
std::vector<std::pair<std::uint32_t, std::uint32_t>> runs_under_order(
    const TruthTable& f, const std::vector<unsigned>& perm, unsigned cap) {
  const TruthTable p = f.permuted(perm);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> runs;
  bool in_run = false;
  for (std::uint32_t m = 0; m < p.num_minterms(); ++m) {
    if (p.get(m)) {
      if (!in_run) {
        runs.push_back({m, m});
        in_run = true;
        if (runs.size() > cap) return {};
      } else {
        runs.back().second = m;
      }
    } else {
      in_run = false;
    }
  }
  return runs;
}

}  // namespace

std::optional<MultiUnitSpec> identify_multi_comparison(
    const TruthTable& f, const MultiIdentifyOptions& opt) {
  const unsigned n = f.num_vars();
  std::vector<unsigned> identity(n);
  std::iota(identity.begin(), identity.end(), 0u);

  if (f.is_const_one() || f.is_const_zero() || n == 0) {
    MultiUnitSpec spec;
    ComparisonSpec part;
    part.n = n;
    part.perm = identity;
    part.lower = 0;
    part.upper = n == 0 ? 0 : f.num_minterms() - 1;
    spec.parts.push_back(std::move(part));
    spec.complemented = f.is_const_zero();
    return spec;
  }

  Rng rng(opt.seed);
  std::vector<std::vector<unsigned>> orders{identity,
                                            {identity.rbegin(), identity.rend()}};
  for (unsigned t = 0; t < opt.order_tries; ++t) {
    auto p32 = rng.permutation(n);
    orders.emplace_back(p32.begin(), p32.end());
  }

  std::optional<MultiUnitSpec> best;
  std::size_t best_units = opt.max_units + 1;
  for (const auto& order : orders) {
    for (bool comp : {false, true}) {
      if (comp && !opt.try_complement) continue;
      const TruthTable& target = comp ? f.complemented() : f;
      // Note: complementing then permuting == permuting then complementing.
      const auto runs =
          runs_under_order(target, order, static_cast<unsigned>(best_units) - 1);
      if (runs.empty() || runs.size() >= best_units) continue;
      MultiUnitSpec spec;
      spec.complemented = comp;
      for (const auto& [lo, hi] : runs) {
        ComparisonSpec part;
        part.n = n;
        part.perm = order;
        part.lower = lo;
        part.upper = hi;
        spec.parts.push_back(std::move(part));
      }
      best_units = runs.size();
      best = std::move(spec);
      if (best_units == 1) return best;  // cannot do better
    }
  }
  return best;
}

UnitBuildResult build_multi_unit(Netlist& nl, const MultiUnitSpec& spec,
                                 const std::vector<NodeId>& leaves,
                                 const UnitOptions& opt) {
  assert(!spec.parts.empty());
  const unsigned n = spec.n();
  if (spec.parts.size() == 1) {
    ComparisonSpec single = spec.parts[0];
    single.complemented = spec.complemented;
    return build_comparison_unit(nl, single, leaves, opt);
  }
  UnitBuildResult res;
  res.kp.assign(n, 0);
  std::vector<NodeId> outs;
  for (const ComparisonSpec& part : spec.parts) {
    UnitBuildResult r = build_comparison_unit(nl, part, leaves, opt);
    outs.push_back(r.output);
    res.new_nodes.insert(res.new_nodes.end(), r.new_nodes.begin(), r.new_nodes.end());
    res.equiv_gates += r.equiv_gates;
    for (unsigned v = 0; v < n; ++v) res.kp[v] += r.kp[v];
    res.depth = std::max(res.depth, r.depth);
  }
  NodeId out = nl.add_gate(spec.complemented ? GateType::Nor : GateType::Or, outs);
  res.new_nodes.push_back(out);
  res.equiv_gates += outs.size() - 1;
  res.depth += 1;
  res.output = out;
  return res;
}

UnitCost multi_unit_cost(const MultiUnitSpec& spec, const UnitOptions& opt) {
  assert(!spec.parts.empty());
  if (spec.parts.size() == 1) {
    ComparisonSpec single = spec.parts[0];
    single.complemented = spec.complemented;
    return unit_cost(single, opt);
  }
  // The parts side by side, joined by one OR (NOR) gate.
  UnitCost cost;
  cost.kp.assign(spec.n(), 0);
  for (const ComparisonSpec& part : spec.parts) {
    const UnitCost c = unit_cost(part, opt);
    cost.equiv_gates += c.equiv_gates;
    for (unsigned v = 0; v < spec.n(); ++v) cost.kp[v] += c.kp[v];
    cost.depth = std::max(cost.depth, c.depth);
  }
  cost.equiv_gates += spec.parts.size() - 1;
  cost.depth += 1;
  return cost;
}

}  // namespace compsyn
