#include "atpg/scoap.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace compsyn {
namespace {

std::uint32_t min_cc(const ScoapMetrics& m, NodeId n) {
  return std::min(m.cc0[n], m.cc1[n]);
}

}  // namespace

ScoapMetrics compute_scoap(const Netlist& nl) {
  const Span sp("atpg.scoap");
  ScoapMetrics m;
  m.cc0.assign(nl.size(), kScoapInf);
  m.cc1.assign(nl.size(), kScoapInf);
  m.co.assign(nl.size(), kScoapInf);

  // Forward pass: controllability, fanins before fanouts.
  for (NodeId n : nl.topo_order()) {
    const Node& nd = nl.node(n);
    switch (nd.type) {
      case GateType::Input:
        m.cc0[n] = 1;
        m.cc1[n] = 1;
        break;
      case GateType::Const0:
        m.cc0[n] = 0;  // already there; the other side is impossible
        break;
      case GateType::Const1:
        m.cc1[n] = 0;
        break;
      case GateType::Buf:
        m.cc0[n] = scoap_add(m.cc0[nd.fanins[0]], 1);
        m.cc1[n] = scoap_add(m.cc1[nd.fanins[0]], 1);
        break;
      case GateType::Not:
        m.cc0[n] = scoap_add(m.cc1[nd.fanins[0]], 1);
        m.cc1[n] = scoap_add(m.cc0[nd.fanins[0]], 1);
        break;
      case GateType::And:
      case GateType::Nand:
      case GateType::Or:
      case GateType::Nor: {
        // Output forced by one controlling input (min) or by all inputs
        // non-controlling (sum).
        const bool c = controlling_value(nd.type);
        std::uint32_t one = kScoapInf, all = 0;
        for (NodeId f : nd.fanins) {
          one = std::min(one, m.cc(f, c));
          all = scoap_add(all, m.cc(f, !c));
        }
        const bool out_c = controlled_output(nd.type);
        (out_c ? m.cc1[n] : m.cc0[n]) = scoap_add(one, 1);
        (out_c ? m.cc0[n] : m.cc1[n]) = scoap_add(all, 1);
        break;
      }
      case GateType::Xor:
      case GateType::Xnor: {
        // Parity DP: cost[p] = cheapest way to make the inputs xor to p.
        std::uint32_t cost0 = 0, cost1 = kScoapInf;
        for (NodeId f : nd.fanins) {
          const std::uint32_t n0 = std::min(scoap_add(cost0, m.cc0[f]),
                                            scoap_add(cost1, m.cc1[f]));
          const std::uint32_t n1 = std::min(scoap_add(cost0, m.cc1[f]),
                                            scoap_add(cost1, m.cc0[f]));
          cost0 = n0;
          cost1 = n1;
        }
        const bool inv = nd.type == GateType::Xnor;
        m.cc1[n] = scoap_add(inv ? cost0 : cost1, 1);
        m.cc0[n] = scoap_add(inv ? cost1 : cost0, 1);
        break;
      }
    }
  }

  // Reverse pass: observability, fanouts before fanins. When node y is
  // reached, every consumer of y has already folded its branch cost into
  // co[y], so co[y] is final and can be pushed down to y's own fanins.
  const auto& topo = nl.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId n = *it;
    const Node& nd = nl.node(n);
    if (nd.is_output) m.co[n] = 0;
    for (std::size_t p = 0; p < nd.fanins.size(); ++p) {
      const NodeId f = nd.fanins[p];
      m.co[f] = std::min(m.co[f], scoap_branch_co(nl, m, n, p));
    }
  }
  return m;
}

std::uint32_t scoap_branch_co(const Netlist& nl, const ScoapMetrics& m,
                              NodeId gate, std::size_t pin) {
  const Node& nd = nl.node(gate);
  if (nd.fanins.empty() || pin >= nd.fanins.size()) return kScoapInf;
  std::uint32_t side = 0;
  switch (nd.type) {
    case GateType::Buf:
    case GateType::Not:
      break;
    case GateType::And:
    case GateType::Nand:
    case GateType::Or:
    case GateType::Nor: {
      // Every other fanin must hold its non-controlling value.
      const bool nc = !controlling_value(nd.type);
      for (std::size_t q = 0; q < nd.fanins.size(); ++q) {
        if (q != pin) side = scoap_add(side, m.cc(nd.fanins[q], nc));
      }
      break;
    }
    case GateType::Xor:
    case GateType::Xnor:
      // Any fixed assignment of the other fanins propagates; take the
      // cheapest side per input.
      for (std::size_t q = 0; q < nd.fanins.size(); ++q) {
        if (q != pin) side = scoap_add(side, min_cc(m, nd.fanins[q]));
      }
      break;
    case GateType::Input:
    case GateType::Const0:
    case GateType::Const1:
      return kScoapInf;
  }
  return scoap_add(scoap_add(m.co[gate], side), 1);
}

std::uint32_t scoap_fault_hardness(const Netlist& nl, const ScoapMetrics& m,
                                   const StuckFault& f) {
  NodeId site;
  std::uint32_t obs;
  if (f.is_stem()) {
    site = f.node;
    obs = m.co[f.node];
  } else {
    const std::size_t pin = static_cast<std::size_t>(f.pin);
    site = nl.node(f.node).fanins[pin];
    obs = scoap_branch_co(nl, m, f.node, pin);
  }
  // Detecting s-a-v needs the line at !v, observed at a PO.
  return scoap_add(m.cc(site, !f.value), obs);
}

AtpgGuidance AtpgGuidance::build(const Netlist& nl) {
  AtpgGuidance g;
  g.scoap = compute_scoap(nl);
  return g;
}

}  // namespace compsyn
