#include "core/comparison_unit.hpp"

#include <algorithm>
#include <cassert>
#include <map>

namespace compsyn {
namespace {

/// Incremental chain builder that merges same-type neighbours (Figure 4).
class ChainBuilder {
 public:
  ChainBuilder(Netlist& nl, std::vector<NodeId>& new_nodes, bool merge)
      : nl_(nl), new_nodes_(new_nodes), merge_(merge) {}

  /// Starts the chain at its least-significant end with an existing node.
  void start(NodeId seed) {
    cur_ = seed;
    pending_inputs_.clear();
  }

  /// Adds one stage: cur = type(input, cur).
  void add_stage(GateType type, NodeId input) {
    if (merge_ && !pending_inputs_.empty() && pending_type_ == type) {
      pending_inputs_.insert(pending_inputs_.begin(), input);
      return;
    }
    flush();
    pending_type_ = type;
    pending_inputs_ = {input, cur_};
  }

  /// Completes the chain and returns its output node.
  NodeId finish() {
    flush();
    return cur_;
  }

 private:
  void flush() {
    if (pending_inputs_.empty()) return;
    cur_ = nl_.add_gate(pending_type_, pending_inputs_);
    new_nodes_.push_back(cur_);
    pending_inputs_.clear();
  }

  Netlist& nl_;
  std::vector<NodeId>& new_nodes_;
  bool merge_;
  NodeId cur_ = kNoNode;
  GateType pending_type_ = GateType::And;
  std::vector<NodeId> pending_inputs_;
};

}  // namespace

UnitBuildResult build_comparison_unit(Netlist& nl, const ComparisonSpec& spec,
                                      const std::vector<NodeId>& leaves,
                                      const UnitOptions& opt) {
  assert(leaves.size() == spec.n);
  assert(spec.perm.size() == spec.n);
  assert(spec.lower <= spec.upper);
  const unsigned n = spec.n;

  UnitBuildResult res;
  res.kp.assign(n, 0);

  auto bit_l = [&](unsigned j) { return (spec.lower >> (n - 1 - j)) & 1u; };
  auto bit_u = [&](unsigned j) { return (spec.upper >> (n - 1 - j)) & 1u; };
  auto pos_leaf = [&](unsigned j) { return leaves[spec.perm[j]]; };

  std::map<NodeId, NodeId> inverters;  // leaf -> NOT(leaf), shared in the unit
  auto inverted = [&](NodeId leaf) {
    auto it = inverters.find(leaf);
    if (it == inverters.end()) {
      NodeId inv = nl.add_gate(GateType::Not, {leaf});
      res.new_nodes.push_back(inv);
      it = inverters.emplace(leaf, inv).first;
    }
    return it->second;
  };

  // Free variables: leading positions where L and U agree (Definition 2).
  unsigned free_count = 0;
  while (free_count < n && bit_l(free_count) == bit_u(free_count)) ++free_count;

  std::vector<NodeId> top_inputs;
  for (unsigned j = 0; j < free_count; ++j) {
    top_inputs.push_back(bit_l(j) ? pos_leaf(j) : inverted(pos_leaf(j)));
  }

  if (free_count < n) {
    // Non-trivial >=L_F block (omitted when L_F = 0, Section 3.2.2).
    bool lf_zero = true;
    for (unsigned j = free_count; j < n; ++j) lf_zero &= bit_l(j) == 0;
    if (!lf_zero) {
      unsigned jl = n - 1;
      while (bit_l(jl) == 0) --jl;  // strip trailing zeros (Figure 3(b))
      ChainBuilder chain(nl, res.new_nodes, opt.merge_gates);
      chain.start(pos_leaf(jl));  // G at the last 1-bit is a direct connection
      for (unsigned j = jl; j-- > free_count;) {
        chain.add_stage(bit_l(j) ? GateType::And : GateType::Or, pos_leaf(j));
      }
      top_inputs.push_back(chain.finish());
    }
    // Non-trivial <=U_F block (omitted when U_F = 11..1).
    bool uf_ones = true;
    for (unsigned j = free_count; j < n; ++j) uf_ones &= bit_u(j) == 1;
    if (!uf_ones) {
      unsigned ju = n - 1;
      while (bit_u(ju) == 1) --ju;  // strip trailing ones (Figure 3(d))
      ChainBuilder chain(nl, res.new_nodes, opt.merge_gates);
      chain.start(inverted(pos_leaf(ju)));  // inverter stage (Section 3.1)
      for (unsigned j = ju; j-- > free_count;) {
        chain.add_stage(bit_u(j) ? GateType::Or : GateType::And,
                        inverted(pos_leaf(j)));
      }
      top_inputs.push_back(chain.finish());
    }
  }

  NodeId out;
  if (top_inputs.empty()) {
    // No constraints at all: the function is constant 1.
    out = nl.add_const(true);
    res.new_nodes.push_back(out);
  } else if (top_inputs.size() == 1) {
    out = top_inputs[0];
  } else {
    out = nl.add_gate(GateType::And, top_inputs);
    res.new_nodes.push_back(out);
  }
  if (spec.complemented) {
    out = nl.add_gate(GateType::Not, {out});
    res.new_nodes.push_back(out);
  }
  res.output = out;

  // Metrics over the freshly created subgraph.
  std::map<NodeId, std::uint32_t> contrib;  // paths from node to res.output
  std::map<NodeId, std::uint32_t> level;    // logic level within the unit
  contrib[res.output] = 1;
  for (auto it = res.new_nodes.rbegin(); it != res.new_nodes.rend(); ++it) {
    const NodeId y = *it;
    const auto cy = contrib.find(y);
    if (cy == contrib.end()) continue;  // not on a path to the output
    for (NodeId f : nl.node(y).fanins) contrib[f] += cy->second;
  }
  for (unsigned v = 0; v < n; ++v) {
    const auto it = contrib.find(leaves[v]);
    res.kp[v] = it == contrib.end() ? 0 : it->second;
  }
  for (NodeId y : res.new_nodes) {
    const Node& nd = nl.node(y);
    std::uint32_t lv = 0;
    for (NodeId f : nd.fanins) {
      const auto lf = level.find(f);
      lv = std::max(lv, lf == level.end() ? 0u : lf->second);
    }
    level[y] = lv + 1;
    switch (nd.type) {
      case GateType::And:
      case GateType::Or:
      case GateType::Nand:
      case GateType::Nor:
      case GateType::Xor:
      case GateType::Xnor:
        res.equiv_gates += nd.fanins.size() - 1;
        break;
      default:
        break;
    }
  }
  const auto lo = level.find(res.output);
  res.depth = lo == level.end() ? 0 : lo->second;
  return res;
}

Netlist build_unit_netlist(const ComparisonSpec& spec, const UnitOptions& opt,
                           UnitBuildResult* result) {
  Netlist nl("comparison_unit");
  std::vector<NodeId> leaves;
  leaves.reserve(spec.n);
  for (unsigned v = 0; v < spec.n; ++v) {
    leaves.push_back(nl.add_input("x" + std::to_string(v + 1)));
  }
  UnitBuildResult res = build_comparison_unit(nl, spec, leaves, opt);
  nl.mark_output(res.output);
  if (result) *result = std::move(res);
  return nl;
}

UnitCost unit_cost(const ComparisonSpec& spec, const UnitOptions& opt) {
  assert(spec.perm.size() == spec.n);
  assert(spec.lower <= spec.upper);
  const unsigned n = spec.n;
  UnitCost cost;
  cost.kp.assign(n, 0);

  auto bit_l = [&](unsigned j) { return (spec.lower >> (n - 1 - j)) & 1u; };
  auto bit_u = [&](unsigned j) { return (spec.upper >> (n - 1 - j)) & 1u; };

  unsigned free_count = 0;
  while (free_count < n && bit_l(free_count) == bit_u(free_count)) ++free_count;

  // Output-AND inputs and their highest level: a free literal is the leaf
  // itself (level 0) or its inverter (level 1).
  unsigned top_inputs = free_count;
  std::uint32_t top_level = 0;
  for (unsigned j = 0; j < free_count; ++j) {
    ++cost.kp[spec.perm[j]];
    if (!bit_l(j)) top_level = 1;
  }

  // One chain block over positions free_count..last: every position feeds it
  // once, its last - free_count stages add one equivalent gate each, and its
  // gates (one per stage, or one per run of equal stage types when merging)
  // are its depth. A stage's type is fixed by its bit in either chain.
  auto chain = [&](unsigned last, auto bit) {
    std::uint32_t gates = 0;
    unsigned prev = 2;
    for (unsigned j = last; j-- > free_count;) {
      if (!opt.merge_gates || bit(j) != prev) ++gates;
      prev = bit(j);
    }
    for (unsigned j = free_count; j <= last; ++j) ++cost.kp[spec.perm[j]];
    cost.equiv_gates += last - free_count;
    ++top_inputs;
    return gates;
  };
  // The >=L_F block ends at the last 1-bit of L, the <=U_F block at the last
  // 0-bit of U; a block with no such bit is trivial and omitted. The U chain
  // sits one level above its inverted inputs.
  for (unsigned j = n; j-- > free_count;) {
    if (bit_l(j)) {
      top_level = std::max(top_level, chain(j, bit_l));
      break;
    }
  }
  for (unsigned j = n; j-- > free_count;) {
    if (!bit_u(j)) {
      top_level = std::max(top_level, chain(j, bit_u) + 1);
      break;
    }
  }

  if (top_inputs == 0) {
    cost.depth = 1;  // the constant-1 node
  } else if (top_inputs == 1) {
    cost.depth = top_level;
  } else {
    cost.equiv_gates += top_inputs - 1;
    cost.depth = top_level + 1;
  }
  if (spec.complemented) ++cost.depth;
  return cost;
}

}  // namespace compsyn
