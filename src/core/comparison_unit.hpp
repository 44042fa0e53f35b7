// Comparison units (Sections 3.1-3.2): the circuit structure implementing a
// comparison function given a ComparisonSpec.
//
// Structure (Figure 5 generalises Figure 1):
//   * free variables (positions where the bits of L and U agree) feed the
//     output AND gate directly, inverted when their common bit is 0;
//   * a >=L_F chain block:  A_i = x_i AND A_(i+1) when l_i = 1,
//                           A_i = x_i OR  A_(i+1) when l_i = 0,
//     with trailing-zero stages omitted (Figure 3(b));
//   * a <=U_F chain block:  B_i = ~x_i OR  B_(i+1) when u_i = 1,
//                           B_i = ~x_i AND B_(i+1) when u_i = 0,
//     with trailing-one stages omitted (Figure 3(d));
//   * trivial bounds (L_F = 0 / U_F = all ones) omit the whole block
//     (Section 3.2.2); if both are trivial the unit is a single AND of the
//     free literals;
//   * consecutive same-type chain gates are merged into one multi-input gate
//     (Figure 4) unless disabled;
//   * a complemented spec gets an output inverter (Section 5).
#pragma once

#include <cstdint>
#include <vector>

#include "core/comparison.hpp"
#include "netlist/netlist.hpp"

namespace compsyn {

struct UnitOptions {
  bool merge_gates = true;  // merge same-type chain neighbours (Figure 4)
};

struct UnitBuildResult {
  NodeId output = kNoNode;           // node computing the function
  std::vector<NodeId> new_nodes;     // every node created, in creation order
  std::uint64_t equiv_gates = 0;     // equivalent 2-input gates added
  std::vector<std::uint32_t> kp;     // paths from variable v to the output
  std::uint32_t depth = 0;           // logic levels through the unit
};

/// Builds the unit inside `nl`. leaves[v] is the node feeding variable v of
/// the spec (v indexes the ORIGINAL variable order, before spec.perm).
/// No nodes are rewired: the caller connects `output` where it is needed.
UnitBuildResult build_comparison_unit(Netlist& nl, const ComparisonSpec& spec,
                                      const std::vector<NodeId>& leaves,
                                      const UnitOptions& opt = {});

/// Standalone unit: a fresh netlist with spec.n inputs (x1..xn in original
/// variable order) and the unit output as the only primary output.
Netlist build_unit_netlist(const ComparisonSpec& spec, const UnitOptions& opt = {},
                           UnitBuildResult* result = nullptr);

/// Cost of a unit, computed in O(n) from the bits of L and U alone: no
/// netlist is built. Equals what build_unit_netlist reports for the same
/// spec and options (DESIGN.md sect. 5 gives the formula).
struct UnitCost {
  std::uint64_t equiv_gates = 0;
  std::vector<std::uint32_t> kp;  // per original variable
  std::uint32_t depth = 0;
};
UnitCost unit_cost(const ComparisonSpec& spec, const UnitOptions& opt = {});

}  // namespace compsyn
