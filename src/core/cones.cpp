#include "core/cones.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "netlist/equivalence.hpp"
#include "robust/robust.hpp"

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

std::uint64_t sig_bit(NodeId n) { return 1ull << (n & 63); }

// kVarMask[v]: the word bits whose minterm has bit v set.
constexpr std::uint64_t kVarMask[6] = {
    0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
    0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull,
};

/// Exchanges minterm bits a < b of a 6-variable word.
std::uint64_t swap_vars(std::uint64_t t, unsigned a, unsigned b) {
  const std::uint64_t m = kVarMask[a] & ~kVarMask[b];
  const unsigned s = (1u << b) - (1u << a);
  return (t & ~(m | (m << s))) | ((t & m) << s) | ((t >> s) & m);
}

/// Re-expresses a function over n_old sorted leaves as one over n_new
/// leaves, where old leaf j is new leaf pos[j]. Leaf i of n sits at minterm
/// bit n-1-i, and pos only moves leaves up, so handling the highest bit
/// first always swaps into a bit the function does not depend on.
std::uint64_t stretch(std::uint64_t f, unsigned n_old, const std::uint8_t* pos,
                      unsigned n_new) {
  for (unsigned j = 0; j < n_old; ++j) {
    const unsigned from = n_old - 1 - j;
    const unsigned to = n_new - 1 - pos[j];
    if (from != to) f = swap_vars(f, from, to);
  }
  return f;
}

/// Union of two sorted leaf lists into `out`, recording where each side's
/// leaves land. False when the union has more than k leaves.
bool merge_leaves(std::span<const NodeId> a, std::span<const NodeId> b,
                  unsigned k, NodeId* out, unsigned* n, std::uint8_t* pos_a,
                  std::uint8_t* pos_b) {
  std::size_t i = 0, j = 0;
  unsigned m = 0;
  while (i < a.size() || j < b.size()) {
    if (m == k) return false;
    if (j == b.size() || (i < a.size() && a[i] < b[j])) {
      pos_a[i] = static_cast<std::uint8_t>(m);
      out[m++] = a[i++];
    } else if (i == a.size() || b[j] < a[i]) {
      pos_b[j] = static_cast<std::uint8_t>(m);
      out[m++] = b[j++];
    } else {
      pos_a[i] = pos_b[j] = static_cast<std::uint8_t>(m);
      out[m++] = a[i++];
      ++j;
    }
  }
  *n = m;
  return true;
}

std::uint64_t leaf_hash(const NodeId* leaves, unsigned n) {
  std::uint64_t h = 0x243f6a8885a308d3ull ^ n;
  for (unsigned i = 0; i < n; ++i) {
    h = (h ^ leaves[i]) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
  }
  return h;
}

/// Advances a mark epoch; on wrap-around clears the marks it stamps.
std::uint32_t next_epoch(std::uint32_t& epoch,
                         std::initializer_list<std::vector<std::uint32_t>*> marks) {
  if (++epoch == 0) {
    for (auto* m : marks) std::fill(m->begin(), m->end(), 0);
    epoch = 1;
  }
  return epoch;
}

}  // namespace

CutDatabase::CutDatabase(const Netlist& nl, unsigned max_leaves) : k_(max_leaves) {
  if (k_ > kMaxLeaves) throw std::invalid_argument("cone leaf limit above 8");
  build(nl, nl.topo_order());
}

CutDatabase::CutDatabase(const Netlist& nl, unsigned max_leaves, NodeId root)
    : k_(max_leaves) {
  if (k_ > kMaxLeaves) throw std::invalid_argument("cone leaf limit above 8");
  assert(is_gate(nl, root) && !nl.is_dead(root));
  // The transitive fanin of root in depth-first post-order.
  std::vector<NodeId> order;
  std::vector<char> seen(nl.size(), 0);
  std::vector<std::pair<NodeId, std::size_t>> stack{{root, 0}};
  seen[root] = 1;
  while (!stack.empty()) {
    auto& [n, i] = stack.back();
    const auto& fanins = nl.node(n).fanins;
    if (i == fanins.size()) {
      order.push_back(n);
      stack.pop_back();
      continue;
    }
    const NodeId f = fanins[i++];
    if (!seen[f]) {
      seen[f] = 1;
      stack.push_back({f, 0});
    }
  }
  build(nl, order);
}

std::span<const Cut> CutDatabase::cones(NodeId root) const {
  if (root >= begin_.size() || begin_[root] == end_[root]) return {};
  return {cuts_.data() + begin_[root] + 1, end_[root] - begin_[root] - 1};
}

TruthTable CutDatabase::function(const Cut& c) const {
  assert(has_functions());
  return TruthTable::from_word(c.num_leaves, c.function);
}

void CutDatabase::build(const Netlist& nl, std::span<const NodeId> topo) {
  begin_.assign(nl.size(), 0);
  end_.assign(nl.size(), 0);
  stop_mark_.assign(nl.size(), 0);
  seen_mark_.assign(nl.size(), 0);
  for (NodeId n : topo) {
    robust::poll_cancellation();
    begin_[n] = static_cast<std::uint32_t>(cuts_.size());
    Cut c;
    c.leaf_off = static_cast<std::uint32_t>(leaf_pool_.size());
    if (is_const(nl, n)) {
      c.function = nl.node(n).type == GateType::Const1 ? ~0ull : 0ull;
      cuts_.push_back(c);
    } else {
      c.leaf_sig = sig_bit(n);
      c.function = kVarMask[0];
      c.num_leaves = 1;
      leaf_pool_.push_back(n);
      cuts_.push_back(c);
      if (is_gate(nl, n)) build_gate(nl, n);
    }
    end_[n] = static_cast<std::uint32_t>(cuts_.size());
  }
}

void CutDatabase::build_gate(const Netlist& nl, NodeId g) {
  const GateType type = nl.node(g).type;
  enum class Op { And, Or, Xor } op = Op::Or;  // Buf and Not fold with OR
  if (type == GateType::And || type == GateType::Nand) op = Op::And;
  if (type == GateType::Xor || type == GateType::Xnor) op = Op::Xor;
  const bool invert = is_inverting(type);
  const bool functions = has_functions();

  // Distinct fanins in first-occurrence order; a fanin repeated an even
  // number of times cancels out of an XOR but still feeds the cone.
  fanins_.clear();
  for (NodeId f : nl.node(g).fanins) {
    auto it = std::find_if(fanins_.begin(), fanins_.end(),
                           [f](const auto& e) { return e.first == f; });
    if (it == fanins_.end()) fanins_.push_back({f, true});
    else it->second = !it->second;
  }

  cur_.clear();
  cur_pool_.clear();
  cur_.push_back({0, 0, op == Op::And ? ~0ull : 0ull, 0, 0});
  roots_.clear();
  NodeId merged[kMaxLeaves];
  std::uint8_t pos_a[kMaxLeaves], pos_b[kMaxLeaves];
  for (const auto& [f, odd] : fanins_) {
    const bool folds = odd || op != Op::Xor;
    const std::span<const Cut> fcuts(cuts_.data() + begin_[f], end_[f] - begin_[f]);
    next_.clear();
    next_pool_.clear();
    slots_.assign(64, 0);
    const NodeId self[1] = {f};
    const std::span<const NodeId> f_root =
        is_gate(nl, f) ? std::span<const NodeId>(self) : std::span<const NodeId>();

    for (const Cut& p : cur_) {
      const std::span<const NodeId> pl(cur_pool_.data() + p.leaf_off, p.num_leaves);
      for (const Cut& c : fcuts) {
        if (static_cast<unsigned>(std::popcount(p.leaf_sig | c.leaf_sig)) > k_) {
          continue;
        }
        const std::span<const NodeId> cl = leaves(c);
        unsigned n = 0;
        if (!merge_leaves(pl, cl, k_, merged, &n, pos_a, pos_b)) continue;

        // Already derived from another pair of cuts?
        const std::uint64_t h = leaf_hash(merged, n);
        std::size_t s = find_slot(h, merged, n);
        if (slots_[s] != 0) continue;

        // Pseudo-cut: a leaf of one side inside the other side's interior.
        if ((p.interior_sig & c.leaf_sig) != 0 &&
            reaches(nl, roots_, pl, cl, c.leaf_sig)) {
          continue;
        }
        if ((c.interior_sig & p.leaf_sig) != 0 &&
            reaches(nl, f_root, cl, pl, p.leaf_sig)) {
          continue;
        }

        Cut q{p.leaf_sig | c.leaf_sig, p.interior_sig | c.interior_sig,
              p.function, static_cast<std::uint32_t>(next_pool_.size()), n};
        if (functions) {
          const std::uint64_t a = stretch(p.function, p.num_leaves, pos_a, n);
          const std::uint64_t b = stretch(c.function, c.num_leaves, pos_b, n);
          q.function = !folds          ? a
                       : op == Op::And ? a & b
                       : op == Op::Or  ? a | b
                                       : a ^ b;
        }
        next_pool_.insert(next_pool_.end(), merged, merged + n);
        next_.push_back(q);
        if (next_.size() == kMaxCuts) break;
        slots_[s] = static_cast<std::uint32_t>(next_.size());
        if (2 * next_.size() > slots_.size()) {
          // Keep the table at most half full.
          slots_.assign(2 * slots_.size(), 0);
          for (std::size_t i = 0; i < next_.size(); ++i) {
            const NodeId* l = next_pool_.data() + next_[i].leaf_off;
            const unsigned m = next_[i].num_leaves;
            slots_[find_slot(leaf_hash(l, m), l, m)] = static_cast<std::uint32_t>(i + 1);
          }
        }
      }
      if (next_.size() == kMaxCuts) break;
    }
    std::swap(cur_, next_);
    std::swap(cur_pool_, next_pool_);
    if (is_gate(nl, f)) roots_.push_back(f);
    if (cur_.empty()) return;
  }

  for (const Cut& p : cur_) {
    Cut c;
    c.leaf_sig = p.leaf_sig;
    c.interior_sig = p.interior_sig | sig_bit(g);
    c.function = invert ? ~p.function : p.function;
    c.leaf_off = static_cast<std::uint32_t>(leaf_pool_.size());
    c.num_leaves = p.num_leaves;
    leaf_pool_.insert(leaf_pool_.end(), cur_pool_.begin() + p.leaf_off,
                      cur_pool_.begin() + p.leaf_off + p.num_leaves);
    cuts_.push_back(c);
  }
}

/// The slot of leaf list `leaves` (hash h) in the dedupe table of next_:
/// the slot holding it, or the empty slot where it belongs.
std::size_t CutDatabase::find_slot(std::uint64_t h, const NodeId* leaves,
                                   unsigned n) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = h & mask;
  for (; slots_[s] != 0; s = (s + 1) & mask) {
    const Cut& q = next_[slots_[s] - 1];
    if (q.num_leaves == n &&
        std::equal(leaves, leaves + n, next_pool_.begin() + q.leaf_off)) {
      break;
    }
  }
  return s;
}

/// True if one of `targets` (signature `targets_sig`) lies in the interior
/// reached from `roots` without passing through `stop`.
bool CutDatabase::reaches(const Netlist& nl, std::span<const NodeId> roots,
                          std::span<const NodeId> stop,
                          std::span<const NodeId> targets,
                          std::uint64_t targets_sig) {
  const std::uint32_t e = next_epoch(epoch_, {&stop_mark_, &seen_mark_});
  for (NodeId s : stop) stop_mark_[s] = e;
  stack_.clear();
  for (NodeId r : roots) {
    if (stop_mark_[r] != e && seen_mark_[r] != e) {
      seen_mark_[r] = e;
      stack_.push_back(r);
    }
  }
  while (!stack_.empty()) {
    const NodeId x = stack_.back();
    stack_.pop_back();
    if ((sig_bit(x) & targets_sig) != 0 &&
        std::find(targets.begin(), targets.end(), x) != targets.end()) {
      return true;
    }
    for (NodeId y : nl.node(x).fanins) {
      if (stop_mark_[y] == e || seen_mark_[y] == e || !is_gate(nl, y)) continue;
      seen_mark_[y] = e;
      stack_.push_back(y);
    }
  }
  return false;
}

void RootCones::collect(const Netlist& nl, const CutDatabase& db, NodeId root) {
  nl_ = &nl;
  db_ = &db;
  root_ = root;
  entries_.clear();
  offsets_.clear();
  pool_.clear();
  if (stop_mark_.size() < nl.size()) {
    stop_mark_.resize(nl.size(), 0);
    seen_mark_.resize(nl.size(), 0);
  }
  // Each interior is the reach set of the root through its leaves, listed
  // in depth-first post-order.
  for (const Cut& c : db.cones(root)) {
    const std::uint32_t e = next_epoch(epoch_, {&stop_mark_, &seen_mark_});
    const std::span<const NodeId> leaves = db.leaves(c);
    for (NodeId l : leaves) stop_mark_[l] = e;
    offsets_.push_back(static_cast<std::uint32_t>(pool_.size()));
    seen_mark_[root] = e;
    stack_.assign(1, {root, 0});
    while (!stack_.empty()) {
      const NodeId x = stack_.back().first;
      const auto& fanins = nl.node(x).fanins;
      if (stack_.back().second == fanins.size()) {
        pool_.push_back(x);
        stack_.pop_back();
        continue;
      }
      const NodeId y = fanins[stack_.back().second++];
      if (stop_mark_[y] == e || seen_mark_[y] == e || is_const(nl, y)) continue;
      assert(is_gate(nl, y));
      seen_mark_[y] = e;
      stack_.push_back({y, 0});
    }
    entries_.push_back({&c, leaves, {}});
  }
  offsets_.push_back(static_cast<std::uint32_t>(pool_.size()));
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    entries_[i].interior = {pool_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }
  std::sort(entries_.begin(), entries_.end(), [](const Entry& a, const Entry& b) {
    if (a.interior.size() != b.interior.size()) {
      return a.interior.size() < b.interior.size();
    }
    return std::lexicographical_compare(a.leaves.begin(), a.leaves.end(),
                                        b.leaves.begin(), b.leaves.end());
  });
}

Cone RootCones::cone(std::size_t i) const {
  Cone c;
  c.root = root_;
  c.leaves.assign(entries_[i].leaves.begin(), entries_[i].leaves.end());
  c.interior.assign(entries_[i].interior.begin(), entries_[i].interior.end());
  std::sort(c.interior.begin(), c.interior.end());
  return c;
}

TruthTable RootCones::function(std::size_t i) const {
  return db_->has_functions() ? db_->function(*entries_[i].cut)
                              : cone_function(*nl_, cone(i));
}

std::vector<Cone> enumerate_cones(const Netlist& nl, NodeId root,
                                  const ConeOptions& opt) {
  const CutDatabase db(nl, opt.max_leaves, root);
  RootCones rc;
  rc.collect(nl, db, root);
  std::vector<Cone> out;
  out.reserve(rc.size());
  for (std::size_t i = 0; i < rc.size(); ++i) out.push_back(rc.cone(i));
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

std::uint64_t removable_gate_count(const Netlist& nl, NodeId root,
                                   std::span<const NodeId> interior,
                                   std::vector<NodeId>* removable_out) {
  const auto& fanouts = nl.fanouts();
  thread_local std::vector<std::uint32_t> mark;
  thread_local std::uint32_t epoch = 0;
  if (mark.size() < nl.size()) mark.resize(nl.size(), 0);
  const std::uint32_t e = next_epoch(epoch, {&mark});
  // A gate is removable when every fanout is. Walking a fanins-first
  // interior backwards meets every interior fanout of a gate before the
  // gate itself, so one sweep settles every mark.
  mark[root] = e;
  for (auto it = interior.rbegin(); it != interior.rend(); ++it) {
    const NodeId g = *it;
    // Primary-output gates must stay (their function is observable).
    if (mark[g] == e || nl.node(g).is_output) continue;
    // A gate with no fanout at all is dead logic; treat as removable.
    if (std::all_of(fanouts[g].begin(), fanouts[g].end(),
                    [&](NodeId y) { return mark[y] == e; })) {
      mark[g] = e;
    }
  }
  std::uint64_t total = 0;
  if (removable_out) removable_out->clear();
  for (NodeId g : interior) {
    if (mark[g] != e) continue;
    if (removable_out) removable_out->push_back(g);
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
  if (removable_out) std::sort(removable_out->begin(), removable_out->end());
  return total;
}

}  // namespace compsyn
