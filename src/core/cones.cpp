#include "core/cones.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <iterator>
#include <set>
#include <stdexcept>

#include "core/signature.hpp"
#include "netlist/equivalence.hpp"

namespace compsyn {
namespace {

bool is_gate(const Netlist& nl, NodeId n) {
  const GateType t = nl.node(n).type;
  return t != GateType::Input && t != GateType::Const0 && t != GateType::Const1;
}

bool is_const(const Netlist& nl, NodeId n) {
  const GateType t = nl.node(n).type;
  return t == GateType::Const0 || t == GateType::Const1;
}

/// Per-thread scratch of enumerate_cones, reused across calls so a root's
/// enumeration allocates nothing beyond the cones it returns.
///
/// Every derived interior -- accepted, or rejected for having too many
/// leaves -- is stored once in `pool` and indexed by an open-addressing hash
/// set keyed on a commutative hash of its members (the hash of I + {g} is the
/// hash of I plus mix(g)); an exact compare against the stored interior
/// confirms each hit, as the signature-keyed memos of core/signature.hpp do.
struct EnumScratch {
  struct Known {
    std::uint64_t hash;
    std::uint32_t off, len;  // interior in `pool`
  };
  struct State {
    std::uint64_t hash;
    std::uint32_t int_off, int_len, leaf_off, leaf_len;
  };
  std::vector<NodeId> pool;
  std::vector<Known> known;
  std::vector<std::uint32_t> slots;  // 1 + index into `known`; 0 = empty
  std::vector<State> states;         // accepted cones in BFS order
  std::vector<NodeId> interior;      // interior being derived
  std::vector<NodeId> leaves;        // its leaves
  std::vector<NodeId> fresh;         // leaves the absorbed gate brings in

  void reset() {
    pool.clear();
    known.clear();
    slots.assign(64, 0);
    states.clear();
  }

  /// True if `interior` (with hash h) was derived before.
  bool seen(std::uint64_t h) const {
    const std::size_t mask = slots.size() - 1;
    for (std::size_t i = h & mask; slots[i] != 0; i = (i + 1) & mask) {
      const Known& k = known[slots[i] - 1];
      if (k.hash == h && k.len == interior.size() &&
          std::equal(interior.begin(), interior.end(), pool.begin() + k.off)) {
        return true;
      }
    }
    return false;
  }

  /// Stores `interior` (hash h) in the pool and the set; returns its offset.
  std::uint32_t remember(std::uint64_t h) {
    const auto off = static_cast<std::uint32_t>(pool.size());
    pool.insert(pool.end(), interior.begin(), interior.end());
    known.push_back({h, off, static_cast<std::uint32_t>(interior.size())});
    if (2 * known.size() > slots.size()) {
      slots.assign(2 * slots.size(), 0);
      for (std::size_t j = 0; j < known.size(); ++j) place(j);
    } else {
      place(known.size() - 1);
    }
    return off;
  }

  /// Accepts `interior`/`leaves` (hash h) as the next BFS state.
  void accept(std::uint64_t h) {
    const std::uint32_t int_off = remember(h);
    const auto leaf_off = static_cast<std::uint32_t>(pool.size());
    pool.insert(pool.end(), leaves.begin(), leaves.end());
    states.push_back({h, int_off, static_cast<std::uint32_t>(interior.size()),
                      leaf_off, static_cast<std::uint32_t>(leaves.size())});
  }

 private:
  void place(std::size_t j) {
    const std::size_t mask = slots.size() - 1;
    std::size_t i = known[j].hash & mask;
    while (slots[i] != 0) i = (i + 1) & mask;
    slots[i] = static_cast<std::uint32_t>(j + 1);
  }
};

std::uint64_t member_hash(NodeId n) { return signature_mix(0, n); }

Cone make_cone(NodeId root, const EnumScratch& s) {
  Cone c;
  c.root = root;
  c.leaves = s.leaves;
  c.interior = s.interior;
  return c;
}

}  // namespace

std::vector<Cone> enumerate_cones(const Netlist& nl, NodeId root,
                                  const ConeOptions& opt) {
  assert(is_gate(nl, root) && !nl.is_dead(root));
  std::vector<Cone> out;
  thread_local EnumScratch s;
  s.reset();
  const unsigned expand_limit = opt.max_leaves + opt.expand_slack;

  // The seed cone {root}; constants never count as leaves (their values are
  // folded into the cone function).
  s.interior.assign(1, root);
  s.leaves.clear();
  for (NodeId f : nl.node(root).fanins) {
    if (!is_const(nl, f)) s.leaves.push_back(f);
  }
  std::sort(s.leaves.begin(), s.leaves.end());
  s.leaves.erase(std::unique(s.leaves.begin(), s.leaves.end()), s.leaves.end());
  if (s.leaves.size() > expand_limit) return out;
  s.accept(member_hash(root));
  if (s.leaves.size() <= opt.max_leaves) out.push_back(make_cone(root, s));
  std::size_t visited = 1;

  // Breadth-first growth: states are expanded in the order they were
  // accepted, which is level order, each deriving its children in ascending
  // leaf order. This order fixes which cones a max_cones cap keeps and the
  // order candidates are merged in, so tie-breaks depend on it.
  for (std::size_t i = 0; i < s.states.size() && visited < opt.max_cones; ++i) {
    const EnumScratch::State st = s.states[i];
    for (std::uint32_t li = 0; li < st.leaf_len; ++li) {
      const NodeId g = s.pool[st.leaf_off + li];
      if (!is_gate(nl, g)) continue;  // primary inputs stay leaves

      // I' = I + {g}, kept sorted.
      const auto int_begin = s.pool.begin() + st.int_off;
      const auto int_end = int_begin + st.int_len;
      const auto at = std::lower_bound(int_begin, int_end, g);
      s.interior.assign(int_begin, at);
      s.interior.push_back(g);
      s.interior.insert(s.interior.end(), at, int_end);
      const std::uint64_t h = st.hash + member_hash(g);
      if (s.seen(h)) continue;

      // leaves(I') = (leaves(I) - {g}) + (fanins(g) - I' - constants).
      s.fresh.clear();
      for (NodeId f : nl.node(g).fanins) {
        if (!is_const(nl, f) &&
            !std::binary_search(s.interior.begin(), s.interior.end(), f)) {
          s.fresh.push_back(f);
        }
      }
      std::sort(s.fresh.begin(), s.fresh.end());
      s.fresh.erase(std::unique(s.fresh.begin(), s.fresh.end()), s.fresh.end());
      s.leaves.clear();
      const auto leaf_begin = s.pool.begin() + st.leaf_off;
      std::set_union(leaf_begin, leaf_begin + st.leaf_len, s.fresh.begin(),
                     s.fresh.end(), std::back_inserter(s.leaves));
      s.leaves.erase(std::lower_bound(s.leaves.begin(), s.leaves.end(), g));
      if (s.leaves.size() > expand_limit) {
        s.remember(h);  // rejected: never derived again
        continue;
      }
      s.accept(h);
      ++visited;
      if (s.leaves.size() <= opt.max_leaves) out.push_back(make_cone(root, s));
      if (visited >= opt.max_cones) break;
    }
  }
  return out;
}

TruthTable cone_function(const Netlist& nl, const Cone& cone) {
  const unsigned k = static_cast<unsigned>(cone.leaves.size());
  if (k > 16) throw std::invalid_argument("cone too wide for a truth table");

  // Per-thread scratch: node values indexed by NodeId (grown, never
  // cleared: every slot read below is written first), the cone-local order,
  // and the DFS state that produces it.
  thread_local std::vector<std::uint64_t> value;
  thread_local std::vector<NodeId> order;
  thread_local std::vector<char> placed;
  thread_local std::vector<std::pair<NodeId, std::size_t>> stack;
  if (value.size() < nl.size()) value.resize(nl.size());

  // Cone-local topological order: depth-first post-order from the root over
  // interior gates. Any topological order yields the same function.
  const auto& interior = cone.interior;
  auto interior_index = [&](NodeId n) -> std::size_t {
    const auto it = std::lower_bound(interior.begin(), interior.end(), n);
    return it != interior.end() && *it == n
               ? static_cast<std::size_t>(it - interior.begin())
               : interior.size();
  };
  order.clear();
  placed.assign(interior.size(), 0);
  placed[interior_index(cone.root)] = 1;
  stack.assign(1, {cone.root, 0});
  while (!stack.empty()) {
    const NodeId n = stack.back().first;
    const auto& fanins = nl.node(n).fanins;
    if (stack.back().second == fanins.size()) {
      order.push_back(n);
      stack.pop_back();
      continue;
    }
    const NodeId f = fanins[stack.back().second++];
    const std::size_t p = interior_index(f);
    if (p < interior.size() && !placed[p]) {
      placed[p] = 1;
      stack.push_back({f, 0});
    } else if (p == interior.size() && is_const(nl, f)) {
      value[f] = nl.node(f).type == GateType::Const1 ? ~0ull : 0;
    }
  }
  assert(order.size() == interior.size());

  TruthTable t(k);
  const std::uint32_t minterms = 1u << k;
  for (std::uint32_t base = 0; base < minterms; base += 64) {
    // Pack up to 64 consecutive minterm indices into one word per leaf.
    // Word bit b corresponds to minterm (base+b); leaf i is variable i,
    // i.e. bit (k-1-i) of the minterm value.
    for (unsigned i = 0; i < k; ++i) {
      const unsigned shift = k - 1 - i;
      std::uint64_t w;
      if (shift < 6) {
        w = exhaustive_mask(shift);
      } else {
        w = ((base >> shift) & 1u) ? ~0ull : 0ull;
      }
      value[cone.leaves[i]] = w;
    }
    for (NodeId g : order) {
      value[g] = eval_gate(nl.node(g).type, nl.node(g).fanins, value.data());
    }
    std::uint64_t w = value[cone.root];
    if (minterms - base < 64) w &= (1ull << (minterms - base)) - 1;
    for (; w != 0; w &= w - 1) t.set(base + std::countr_zero(w), true);
  }
  return t;
}

std::uint64_t removable_gate_count(const Netlist& nl, const Cone& cone,
                                   std::vector<NodeId>* removable_out) {
  const auto& fanouts = nl.fanouts();
  std::set<NodeId> removable{cone.root};
  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId g : cone.interior) {
      if (removable.count(g)) continue;
      // Primary-output gates must stay (their function is observable).
      if (nl.node(g).is_output) continue;
      bool all_removable = true;
      for (NodeId y : fanouts[g]) all_removable &= removable.count(y) != 0;
      // A gate with no fanout at all is dead logic; treat as removable.
      if (all_removable) {
        removable.insert(g);
        changed = true;
      }
    }
  }
  std::uint64_t total = 0;
  for (NodeId g : removable) {
    const Node& nd = nl.node(g);
    switch (nd.type) {
      case GateType::And:
      case GateType::Nand:
      case GateType::Or:
      case GateType::Nor:
      case GateType::Xor:
      case GateType::Xnor:
        total += nd.fanins.size() - 1;
        break;
      default:
        break;
    }
  }
  if (removable_out) removable_out->assign(removable.begin(), removable.end());
  return total;
}

}  // namespace compsyn
