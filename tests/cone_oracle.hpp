// The top-down cone grower of Section 4.1, kept as the oracle the cut
// database (core/cones.hpp) is checked against. Starting from {root}, every
// interior grows by absorbing one leaf's driver gate; the cones are the
// distinct interiors with at most K non-constant leaves. Intermediate
// interiors may have any number of leaves (unlimited slack), so the result
// is the complete cone set.
//
// Unlimited slack explodes on real circuits, so the grower prunes exactly
// the interiors no cone contains. An interior I lies inside some cone iff
// at most K vertex-disjoint paths lead from the primary inputs to leaves(I):
// the leaves of a cone containing I form a vertex cut between the inputs and
// I, and conversely the reach set of the root through a minimum cut is a
// cone containing I. Every interior on the absorption chain of a cone is a
// subset of it, so pruning the others loses no cone.
#pragma once

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "core/cones.hpp"
#include "netlist/equivalence.hpp"
#include "netlist/netlist.hpp"

namespace compsyn::oracle {

inline bool is_gate(const Netlist& nl, NodeId n) {
  const GateType t = nl.node(n).type;
  return t != GateType::Input && t != GateType::Const0 && t != GateType::Const1;
}

inline bool is_const(const Netlist& nl, NodeId n) {
  const GateType t = nl.node(n).type;
  return t == GateType::Const0 || t == GateType::Const1;
}

/// Non-constant fanins of the sorted interior that lie outside it, sorted.
inline std::vector<NodeId> leaves_of(const Netlist& nl,
                                     const std::vector<NodeId>& interior) {
  std::set<NodeId> leaves;
  for (NodeId g : interior) {
    for (NodeId f : nl.node(g).fanins) {
      if (!is_const(nl, f) &&
          !std::binary_search(interior.begin(), interior.end(), f)) {
        leaves.insert(f);
      }
    }
  }
  return {leaves.begin(), leaves.end()};
}

/// Decides whether some cone of `root` contains a given interior: more
/// than k vertex-disjoint paths from the primary inputs to the interior's
/// leaves mean no. Augmenting paths over the node-split graph of root's
/// fanin cone (vertex v is in = 2v and out = 2v+1, capacity 1), with the
/// interior's vertices removed and its leaves wired to the sink.
class ConeContainment {
 public:
  ConeContainment(const Netlist& nl, NodeId root) : local_(nl.size(), -1) {
    std::vector<NodeId> stack{root};
    while (!stack.empty()) {
      const NodeId n = stack.back();
      stack.pop_back();
      if (local_[n] >= 0 || is_const(nl, n)) continue;
      local_[n] = static_cast<int>(nodes_.size());
      nodes_.push_back(n);
      for (NodeId f : nl.node(n).fanins) stack.push_back(f);
    }
    const int vs = static_cast<int>(2 * nodes_.size());
    s_ = vs;
    t_ = vs + 1;
    adj_.resize(vs + 2);
    for (std::size_t v = 0; v < nodes_.size(); ++v) {
      const int in = static_cast<int>(2 * v);
      through_.push_back(add(in, in + 1, 1));
      to_sink_.push_back(add(in + 1, t_, 0));
      if (nl.node(nodes_[v]).type == GateType::Input) add(s_, in, 1);
      for (NodeId f : nl.node(nodes_[v]).fanins) {
        if (!is_const(nl, f)) add(2 * local_[f] + 1, in, kInf);
      }
    }
    for (const Edge& e : edges_) initial_.push_back(e.cap);
  }

  bool some_cone_contains(const std::vector<NodeId>& interior,
                          const std::vector<NodeId>& leaves, unsigned k) {
    for (std::size_t e = 0; e < edges_.size(); ++e) edges_[e].cap = initial_[e];
    for (NodeId g : interior) edges_[through_[local_[g]]].cap = 0;
    for (NodeId l : leaves) edges_[to_sink_[local_[l]]].cap = 1;
    unsigned flow = 0;
    std::vector<int> via(adj_.size());
    std::vector<int> queue;
    while (flow <= k) {
      std::fill(via.begin(), via.end(), -1);
      via[s_] = -2;
      queue.assign(1, s_);
      for (std::size_t h = 0; h < queue.size() && via[t_] == -1; ++h) {
        for (int e : adj_[queue[h]]) {
          if (edges_[e].cap > 0 && via[edges_[e].to] == -1) {
            via[edges_[e].to] = e;
            queue.push_back(edges_[e].to);
          }
        }
      }
      if (via[t_] == -1) break;
      for (int v = t_; v != s_; v = edges_[via[v] ^ 1].to) {
        edges_[via[v]].cap -= 1;
        edges_[via[v] ^ 1].cap += 1;
      }
      ++flow;
    }
    return flow <= k;
  }

 private:
  struct Edge {
    int to, cap;
  };
  static constexpr int kInf = 1 << 20;

  int add(int a, int b, int cap) {
    const int e = static_cast<int>(edges_.size());
    adj_[a].push_back(e);
    edges_.push_back({b, cap});
    adj_[b].push_back(e + 1);
    edges_.push_back({a, 0});
    return e;
  }

  std::vector<int> local_;
  std::vector<NodeId> nodes_;
  int s_ = 0, t_ = 0;
  std::vector<std::vector<int>> adj_;
  std::vector<Edge> edges_;
  std::vector<int> initial_, through_, to_sink_;
};

/// Every cone of `root` with at most k leaves, in the canonical order
/// (interior size, then leaf list); interiors sorted ascending.
inline std::vector<Cone> grow_cones(const Netlist& nl, NodeId root, unsigned k) {
  ConeContainment containment(nl, root);
  std::vector<Cone> out;
  std::set<std::vector<NodeId>> seen{{root}};
  std::vector<std::vector<NodeId>> frontier{{root}};
  while (!frontier.empty()) {
    std::vector<std::vector<NodeId>> next;
    for (const std::vector<NodeId>& interior : frontier) {
      const std::vector<NodeId> leaves = leaves_of(nl, interior);
      if (leaves.size() > k && !containment.some_cone_contains(interior, leaves, k)) {
        continue;
      }
      if (leaves.size() <= k) out.push_back({root, leaves, interior});
      for (NodeId g : leaves) {
        if (!is_gate(nl, g)) continue;  // primary inputs stay leaves
        std::vector<NodeId> grown = interior;
        grown.insert(std::lower_bound(grown.begin(), grown.end(), g), g);
        if (seen.insert(grown).second) next.push_back(std::move(grown));
      }
    }
    frontier = std::move(next);
  }
  std::sort(out.begin(), out.end(), [](const Cone& a, const Cone& b) {
    if (a.interior.size() != b.interior.size()) {
      return a.interior.size() < b.interior.size();
    }
    return a.leaves < b.leaves;
  });
  return out;
}

/// The cone's function by whole-netlist-order simulation of its interior
/// over a fresh value vector (leaf i = variable i, MSB first).
inline TruthTable simulate_cone(const Netlist& nl, const Cone& cone) {
  const unsigned k = static_cast<unsigned>(cone.leaves.size());
  std::vector<NodeId> order;
  for (NodeId n : nl.topo_order()) {
    if (std::binary_search(cone.interior.begin(), cone.interior.end(), n)) {
      order.push_back(n);
    }
  }
  TruthTable t(k);
  const std::uint32_t minterms = 1u << k;
  std::vector<std::uint64_t> value(nl.size(), 0);
  for (std::uint32_t base = 0; base < minterms; base += 64) {
    for (unsigned i = 0; i < k; ++i) {
      const unsigned shift = k - 1 - i;
      value[cone.leaves[i]] = shift < 6 ? exhaustive_mask(shift)
                              : ((base >> shift) & 1u) ? ~0ull
                                                       : 0ull;
    }
    for (NodeId g : cone.interior) {
      for (NodeId f : nl.node(g).fanins) {
        if (nl.node(f).type == GateType::Const1) value[f] = ~0ull;
        else if (nl.node(f).type == GateType::Const0) value[f] = 0;
      }
    }
    for (NodeId g : order) {
      value[g] = eval_gate(nl.node(g).type, nl.node(g).fanins, value.data());
    }
    const std::uint64_t w = value[cone.root];
    const std::uint32_t limit = std::min<std::uint32_t>(64, minterms - base);
    for (std::uint32_t b = 0; b < limit; ++b) t.set(base + b, (w >> b) & 1ull);
  }
  return t;
}

/// The cones of `root` listed from a database, as Cones in its order.
inline std::vector<Cone> database_cones(const Netlist& nl, const CutDatabase& db,
                                        NodeId root) {
  RootCones rc;
  rc.collect(nl, db, root);
  std::vector<Cone> out;
  for (std::size_t i = 0; i < rc.size(); ++i) out.push_back(rc.cone(i));
  return out;
}

}  // namespace compsyn::oracle
