// SCOAP testability measures (Goldstein 1979) over the combinational
// netlist, plus the AtpgGuidance bundle consumed by the strategy-driven
// PODEM (podem.hpp) and the guided ATPG driver (guided.hpp).
//
// Combinational controllability CC0/CC1: the number of line assignments
// needed to force a node to 0/1 (inputs cost 1, every gate adds 1).
// Combinational observability CO: the number of assignments needed to
// propagate a node's value to a primary output (outputs cost 0, every
// gate adds 1 plus the cost of holding its side inputs non-controlling).
// Fanout stems take the minimum over their branch observabilities.
//
// All arithmetic saturates at kScoapInf, which doubles as the score of
// structurally dead or unreachable lines (and of the impossible side of a
// constant). The metrics are pure functions of the netlist: computed once,
// reused across every fault targeted on it, and invalidated by mutation.
#pragma once

#include <cstdint>
#include <vector>

#include "faults/fault.hpp"
#include "netlist/netlist.hpp"

namespace compsyn {

/// Saturation bound for SCOAP scores; also the score of an impossible or
/// unobservable line. Small enough that sums of a few kScoapInf never wrap
/// a uint32.
inline constexpr std::uint32_t kScoapInf = 0x3fffffffu;

/// Saturating add on SCOAP scores.
inline std::uint32_t scoap_add(std::uint32_t a, std::uint32_t b) {
  const std::uint32_t s = a + b;
  return s >= kScoapInf ? kScoapInf : s;
}

struct ScoapMetrics {
  std::vector<std::uint32_t> cc0;  // per NodeId; kScoapInf when impossible
  std::vector<std::uint32_t> cc1;
  std::vector<std::uint32_t> co;   // stem observability (min over branches)

  /// Cost of setting node n to value v.
  std::uint32_t cc(NodeId n, bool v) const { return v ? cc1[n] : cc0[n]; }
};

/// Computes CC0/CC1 (forward topological pass) and CO (reverse pass) for
/// every live node. Dead nodes score kScoapInf on all three measures.
ScoapMetrics compute_scoap(const Netlist& nl);

/// Observability of the fanout branch feeding pin `pin` of `gate`:
/// CO(gate) + cost of holding the other fanins non-controlling + 1.
std::uint32_t scoap_branch_co(const Netlist& nl, const ScoapMetrics& m,
                              NodeId gate, std::size_t pin);

/// SCOAP detection-hardness of a stuck-at fault: the cost of driving the
/// faulty line to the opposite value plus the observability of that line
/// (branch observability for branch faults). Saturates at kScoapInf --
/// structurally redundant faults score as hard as it gets.
std::uint32_t scoap_fault_hardness(const Netlist& nl, const ScoapMetrics& m,
                                   const StuckFault& f);

/// Everything the strategy policies need, computed once per netlist.
/// Invariant under fault choice; must be rebuilt after any netlist
/// mutation (NodeId-indexed vectors go stale the moment sizes change).
struct AtpgGuidance {
  ScoapMetrics scoap;

  static AtpgGuidance build(const Netlist& nl);
};

}  // namespace compsyn
