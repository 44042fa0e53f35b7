#include "netlist/netlist.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace compsyn {

bool has_controlling_value(GateType t) {
  switch (t) {
    case GateType::And:
    case GateType::Nand:
    case GateType::Or:
    case GateType::Nor:
      return true;
    default:
      return false;
  }
}

bool controlling_value(GateType t) {
  assert(has_controlling_value(t));
  return t == GateType::Or || t == GateType::Nor;
}

bool is_inverting(GateType t) {
  switch (t) {
    case GateType::Not:
    case GateType::Nand:
    case GateType::Nor:
    case GateType::Xnor:
      return true;
    default:
      return false;
  }
}

const char* to_string(GateType t) {
  switch (t) {
    case GateType::Input: return "INPUT";
    case GateType::Const0: return "CONST0";
    case GateType::Const1: return "CONST1";
    case GateType::Buf: return "BUF";
    case GateType::Not: return "NOT";
    case GateType::And: return "AND";
    case GateType::Nand: return "NAND";
    case GateType::Or: return "OR";
    case GateType::Nor: return "NOR";
    case GateType::Xor: return "XOR";
    case GateType::Xnor: return "XNOR";
  }
  return "?";
}

NodeId Netlist::add_input(std::string name) {
  NodeId id = static_cast<NodeId>(nodes_.size());
  Node n;
  n.type = GateType::Input;
  n.name = std::move(name);
  nodes_.push_back(std::move(n));
  inputs_.push_back(id);
  invalidate_caches();
  return id;
}

NodeId Netlist::add_const(bool value, std::string name) {
  NodeId id = static_cast<NodeId>(nodes_.size());
  Node n;
  n.type = value ? GateType::Const1 : GateType::Const0;
  n.name = std::move(name);
  nodes_.push_back(std::move(n));
  invalidate_caches();
  return id;
}

NodeId Netlist::add_gate(GateType type, std::vector<NodeId> fanins, std::string name) {
  assert(type != GateType::Input);
  NodeId id = static_cast<NodeId>(nodes_.size());
  for (NodeId f : fanins) {
    assert(f < id && "fanins must already exist (DAG invariant)");
    (void)f;
  }
  Node n;
  n.type = type;
  n.fanins = std::move(fanins);
  n.name = std::move(name);
  nodes_.push_back(std::move(n));
  invalidate_caches();
  return id;
}

void Netlist::mark_output(NodeId n) {
  if (!nodes_[n].is_output) {
    nodes_[n].is_output = true;
    outputs_.push_back(n);
  }
}

std::size_t Netlist::live_count() const {
  std::size_t c = 0;
  for (const Node& n : nodes_) c += n.dead ? 0 : 1;
  return c;
}

void Netlist::invalidate_caches() const {
  fanouts_valid_ = false;
  topo_valid_ = false;
}

const std::vector<std::vector<NodeId>>& Netlist::fanouts() const {
  if (!fanouts_valid_) {
    fanouts_.assign(nodes_.size(), {});
    for (NodeId id = 0; id < nodes_.size(); ++id) {
      if (nodes_[id].dead) continue;
      for (NodeId f : nodes_[id].fanins) fanouts_[f].push_back(id);
    }
    fanouts_valid_ = true;
  }
  return fanouts_;
}

const std::vector<NodeId>& Netlist::topo_order() const {
  if (topo_valid_) return topo_;
  [[maybe_unused]] const bool acyclic = topo_sort(topo_, nullptr);
  assert(acyclic && "cycle in netlist");
  topo_valid_ = true;
  return topo_;
}

bool Netlist::topo_sort(std::vector<NodeId>& order, NodeId* cycle_at) const {
  // Iterative DFS from all live nodes; redefine() can move a node before its
  // fanins in id order, so id order is not a valid topological order.
  order.clear();
  order.reserve(nodes_.size());
  enum : std::uint8_t { White, Grey, Black };
  std::vector<std::uint8_t> color(nodes_.size(), White);
  std::vector<std::pair<NodeId, std::size_t>> stack;
  for (NodeId root = 0; root < nodes_.size(); ++root) {
    if (nodes_[root].dead || color[root] != White) continue;
    stack.emplace_back(root, 0);
    color[root] = Grey;
    while (!stack.empty()) {
      auto& [n, next] = stack.back();
      const auto& fi = nodes_[n].fanins;
      if (next < fi.size()) {
        NodeId f = fi[next++];
        if (color[f] == White) {
          color[f] = Grey;
          stack.emplace_back(f, 0);
        } else if (color[f] == Grey) {  // still on the stack: a cycle
          if (cycle_at != nullptr) *cycle_at = f;
          return false;
        }
      } else {
        color[n] = Black;
        order.push_back(n);
        stack.pop_back();
      }
    }
  }
  return true;
}

std::vector<std::uint32_t> Netlist::levels() const {
  std::vector<std::uint32_t> lvl(nodes_.size(), 0);
  for (NodeId n : topo_order()) {
    const Node& nd = nodes_[n];
    if (nd.type == GateType::Input || nd.type == GateType::Const0 ||
        nd.type == GateType::Const1) {
      continue;
    }
    std::uint32_t m = 0;
    for (NodeId f : nd.fanins) m = std::max(m, lvl[f]);
    lvl[n] = m + 1;
  }
  return lvl;
}

std::uint32_t Netlist::depth() const {
  auto lvl = levels();
  std::uint32_t d = 0;
  for (NodeId o : outputs_) d = std::max(d, lvl[o]);
  return d;
}

std::uint64_t Netlist::equivalent_gate_count() const {
  std::uint64_t total = 0;
  for (const Node& n : nodes_) {
    if (n.dead) continue;
    switch (n.type) {
      case GateType::And:
      case GateType::Nand:
      case GateType::Or:
      case GateType::Nor:
      case GateType::Xor:
      case GateType::Xnor:
        total += n.fanins.empty() ? 0 : n.fanins.size() - 1;
        break;
      default:
        break;
    }
  }
  return total;
}

std::uint64_t Netlist::gate_count() const {
  std::uint64_t total = 0;
  for (const Node& n : nodes_) {
    if (n.dead) continue;
    if (n.type != GateType::Input && n.type != GateType::Const0 &&
        n.type != GateType::Const1) {
      ++total;
    }
  }
  return total;
}

// Inlined into each caller so simulate_into's constant stride of 1 folds
// into the address arithmetic, as in a plain per-word loop.
template <std::size_t W>
[[gnu::always_inline]] inline void Netlist::sweep_words(std::uint64_t* values,
                                                        std::size_t stride) const {
  for (NodeId n : topo_order()) {
    const Node& nd = nodes_[n];
    if (nd.type != GateType::Input) {
      eval_gate_block<W>(nd.type, nd.fanins, values, stride, values + n * stride);
    }
  }
}

std::vector<std::uint64_t> Netlist::simulate(const std::vector<std::uint64_t>& pi_words) const {
  std::vector<std::uint64_t> values(nodes_.size(), 0);
  simulate_into(pi_words, values);
  return values;
}

void Netlist::simulate_into(const std::vector<std::uint64_t>& pi_words,
                            std::vector<std::uint64_t>& values) const {
  assert(pi_words.size() == inputs_.size());
  values.assign(nodes_.size(), 0);
  for (std::size_t i = 0; i < inputs_.size(); ++i) values[inputs_[i]] = pi_words[i];
  sweep_words<1>(values.data(), 1);
}

void Netlist::simulate_words(std::uint64_t* values, std::size_t stride,
                             std::size_t words) const {
  assert(words <= stride);
  std::size_t w = 0;
  for (; w + kSimBlockWords <= words; w += kSimBlockWords) {
    sweep_words<kSimBlockWords>(values + w, stride);
  }
  for (; w < words; ++w) sweep_words<1>(values + w, stride);
}

void Netlist::redefine(NodeId n, GateType type, std::vector<NodeId> fanins) {
  assert(type != GateType::Input);
  assert(nodes_[n].type != GateType::Input && "cannot redefine a primary input");
  nodes_[n].type = type;
  nodes_[n].fanins = std::move(fanins);
  invalidate_caches();
}

void Netlist::replace_fanin(NodeId gate, NodeId old_fanin, NodeId new_fanin) {
  for (NodeId& f : nodes_[gate].fanins) {
    if (f == old_fanin) f = new_fanin;
  }
  invalidate_caches();
}

std::size_t Netlist::sweep() {
  std::vector<bool> reach(nodes_.size(), false);
  std::vector<NodeId> stack;
  for (NodeId o : outputs_) {
    if (!reach[o]) {
      reach[o] = true;
      stack.push_back(o);
    }
  }
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    for (NodeId f : nodes_[n].fanins) {
      if (!reach[f]) {
        reach[f] = true;
        stack.push_back(f);
      }
    }
  }
  std::size_t newly_dead = 0;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    // Inputs stay live: they are part of the circuit interface even when no
    // output depends on them (matches the .bench/scan view of a circuit).
    const bool keep = reach[id] || nodes_[id].type == GateType::Input;
    if (!keep && !nodes_[id].dead) {
      nodes_[id].dead = true;
      nodes_[id].fanins.clear();
      ++newly_dead;
    }
  }
  if (newly_dead) invalidate_caches();
  return newly_dead;
}

bool Netlist::simplify() {
  bool changed_any = false;
  bool changed = true;
  while (changed) {
    changed = false;
    // value[n]: 0/1 if the node is a known constant, 2 otherwise.
    std::vector<std::uint8_t> cval(nodes_.size(), 2);
    // alias[n]: node that n is a pure buffer of (or kNoNode).
    std::vector<NodeId> alias(nodes_.size(), kNoNode);
    for (NodeId n : topo_order()) {
      Node& nd = nodes_[n];
      if (nd.type == GateType::Const0) { cval[n] = 0; continue; }
      if (nd.type == GateType::Const1) { cval[n] = 1; continue; }
      if (nd.type == GateType::Input) continue;

      // Re-point fanins at buffer sources discovered earlier this pass.
      for (NodeId& f : nd.fanins) {
        if (alias[f] != kNoNode) {
          f = alias[f];
          changed = true;
        }
      }

      if (nd.type == GateType::Buf) {
        if (cval[nd.fanins[0]] != 2) {
          nd.type = cval[nd.fanins[0]] ? GateType::Const1 : GateType::Const0;
          nd.fanins.clear();
          changed = true;
          cval[n] = nd.type == GateType::Const1 ? 1 : 0;
        } else if (!nd.is_output) {
          alias[n] = nd.fanins[0];
        }
        continue;
      }
      if (nd.type == GateType::Not) {
        if (cval[nd.fanins[0]] != 2) {
          nd.type = cval[nd.fanins[0]] ? GateType::Const0 : GateType::Const1;
          nd.fanins.clear();
          changed = true;
          cval[n] = nd.type == GateType::Const1 ? 1 : 0;
        }
        continue;
      }

      if (has_controlling_value(nd.type)) {
        const bool cv = controlling_value(nd.type);
        bool has_ctrl = false;
        std::vector<NodeId> kept;
        for (NodeId f : nd.fanins) {
          if (cval[f] == 2) {
            kept.push_back(f);
          } else if (cval[f] == static_cast<std::uint8_t>(cv)) {
            has_ctrl = true;
          }
          // non-controlling constants are simply dropped
        }
        if (has_ctrl) {
          nd.type = controlled_output(nd.type) ? GateType::Const1 : GateType::Const0;
          nd.fanins.clear();
          cval[n] = nd.type == GateType::Const1 ? 1 : 0;
          changed = true;
          continue;
        }
        if (kept.size() != nd.fanins.size()) changed = true;
        if (kept.empty()) {
          // All inputs were non-controlling constants: the output is the
          // gate's identity value (1 for AND, 0 for OR), inverted if needed.
          const bool v = !cv;  // value every input held
          const bool res = v ^ is_inverting(nd.type);
          nd.type = res ? GateType::Const1 : GateType::Const0;
          nd.fanins.clear();
          cval[n] = res ? 1 : 0;
          continue;
        }
        if (kept.size() == 1) {
          nd.type = is_inverting(nd.type) ? GateType::Not : GateType::Buf;
          nd.fanins = {kept[0]};
          if (nd.type == GateType::Buf && !nd.is_output) alias[n] = kept[0];
          continue;
        }
        nd.fanins = std::move(kept);
        continue;
      }

      if (nd.type == GateType::Xor || nd.type == GateType::Xnor) {
        bool parity = nd.type == GateType::Xnor;  // accumulated inversion
        std::vector<NodeId> kept;
        for (NodeId f : nd.fanins) {
          if (cval[f] == 2) kept.push_back(f);
          else parity ^= (cval[f] == 1);
        }
        if (kept.size() != nd.fanins.size()) changed = true;
        if (kept.empty()) {
          nd.type = parity ? GateType::Const1 : GateType::Const0;
          nd.fanins.clear();
          cval[n] = parity ? 1 : 0;
        } else if (kept.size() == 1) {
          nd.type = parity ? GateType::Not : GateType::Buf;
          nd.fanins = {kept[0]};
          if (nd.type == GateType::Buf && !nd.is_output) alias[n] = kept[0];
        } else {
          nd.type = parity ? GateType::Xnor : GateType::Xor;
          nd.fanins = std::move(kept);
        }
        continue;
      }
    }
    if (changed) {
      invalidate_caches();
      changed_any = true;
    }
  }
  if (sweep() > 0) changed_any = true;
  return changed_any;
}

Netlist Netlist::compacted(std::vector<NodeId>* out_map) const {
  Netlist out(name_);
  std::vector<NodeId> map(nodes_.size(), kNoNode);
  // Inputs first, preserving interface order.
  for (NodeId pi : inputs_) map[pi] = out.add_input(nodes_[pi].name);
  for (NodeId n : topo_order()) {
    const Node& nd = nodes_[n];
    if (nd.type == GateType::Input) continue;
    if (nd.type == GateType::Const0 || nd.type == GateType::Const1) {
      map[n] = out.add_const(nd.type == GateType::Const1, nd.name);
      continue;
    }
    std::vector<NodeId> fi;
    fi.reserve(nd.fanins.size());
    for (NodeId f : nd.fanins) {
      assert(map[f] != kNoNode);
      fi.push_back(map[f]);
    }
    map[n] = out.add_gate(nd.type, std::move(fi), nd.name);
  }
  for (NodeId o : outputs_) {
    assert(map[o] != kNoNode);
    out.mark_output(map[o]);
  }
  if (out_map) *out_map = std::move(map);
  return out;
}

bool Netlist::assign_nodes(std::vector<Node> nodes,
                           const std::vector<NodeId>& outputs,
                           std::string* error) {
  Netlist nl(name_);
  nl.nodes_ = std::move(nodes);
  for (NodeId id = 0; id < nl.size(); ++id) {
    nl.nodes_[id].is_output = false;
    if (nl.nodes_[id].type == GateType::Input) nl.inputs_.push_back(id);
  }
  std::string why;
  for (NodeId o : outputs) {
    if (o >= nl.size() || nl.nodes_[o].is_output) {
      why = "output " + std::to_string(o) + " is out of range or repeated\n";
      break;
    }
    nl.mark_output(o);
  }
  if (why.empty()) why = nl.check();
  if (!why.empty()) {
    if (error != nullptr) *error = why;
    return false;
  }
  *this = std::move(nl);
  return true;
}

std::string Netlist::check() const {
  std::ostringstream err;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    if (n.dead) continue;
    for (NodeId f : n.fanins) {
      if (f >= nodes_.size()) {
        err << "node " << id << " has out-of-range fanin " << f << '\n';
      } else if (nodes_[f].dead) {
        err << "node " << id << " has dead fanin " << f << '\n';
      }
    }
    switch (n.type) {
      case GateType::Input:
      case GateType::Const0:
      case GateType::Const1:
        if (!n.fanins.empty()) err << "node " << id << " source with fanins\n";
        break;
      case GateType::Buf:
      case GateType::Not:
        if (n.fanins.size() != 1) err << "node " << id << " arity != 1\n";
        break;
      default:
        if (n.fanins.size() < 2) err << "node " << id << " arity < 2\n";
        break;
    }
  }
  for (NodeId o : outputs_) {
    if (nodes_[o].dead) err << "output node " << o << " is dead\n";
  }
  // topo_order() only asserts on a cycle; look for one once the fanins are
  // known to be in range.
  std::vector<NodeId> order;
  NodeId at = kNoNode;
  if (err.str().empty() && !topo_sort(order, &at)) {
    err << "cycle through node " << at << '\n';
  }
  return err.str();
}

}  // namespace compsyn
