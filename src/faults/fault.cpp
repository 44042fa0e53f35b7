#include "faults/fault.hpp"

#include <numeric>
#include <sstream>

namespace compsyn {
namespace {

bool is_source(GateType t) {
  return t == GateType::Input || t == GateType::Const0 || t == GateType::Const1;
}

/// Union-find over fault ids.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

std::string to_string(const Netlist& nl, const StuckFault& f) {
  std::ostringstream ss;
  const Node& n = nl.node(f.node);
  const std::string name = n.name.empty() ? "n" + std::to_string(f.node) : n.name;
  if (f.is_stem()) {
    ss << name;
  } else {
    const NodeId src = n.fanins[static_cast<std::size_t>(f.pin)];
    const Node& s = nl.node(src);
    ss << (s.name.empty() ? "n" + std::to_string(src) : s.name) << "->" << name
       << "[" << f.pin << "]";
  }
  ss << " s-a-" << (f.value ? 1 : 0);
  return ss.str();
}

std::vector<StuckFault> enumerate_faults(const Netlist& nl, bool collapse) {
  const auto& fanouts = nl.fanouts();
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  // Collect fault sites: stems for every live node (except constants),
  // branches for pins fed by multi-fanout stems. Line i owns faults 2i
  // (s-a-0) and 2i+1 (s-a-1); stem_line and branch_line (indexed through
  // the fanin-offset prefix pin_base) map a line back to its id.
  std::vector<StuckFault> sites;
  std::vector<std::size_t> stem_line(nl.size(), kNone);
  std::vector<std::size_t> pin_base(nl.size() + 1, 0);
  for (NodeId n = 0; n < nl.size(); ++n) {
    pin_base[n + 1] = pin_base[n] + nl.node(n).fanins.size();
    if (nl.is_dead(n)) continue;
    const GateType t = nl.node(n).type;
    if (t == GateType::Const0 || t == GateType::Const1) continue;
    // A stem with no observers contributes no faults.
    if (fanouts[n].empty() && !nl.node(n).is_output) continue;
    stem_line[n] = sites.size() / 2;
    sites.push_back({n, -1, false});
    sites.push_back({n, -1, true});
  }
  std::vector<std::size_t> branch_line(pin_base.back(), kNone);
  for (NodeId n = 0; n < nl.size(); ++n) {
    if (nl.is_dead(n)) continue;
    const Node& nd = nl.node(n);
    if (is_source(nd.type)) continue;
    for (std::size_t pin = 0; pin < nd.fanins.size(); ++pin) {
      const NodeId src = nd.fanins[pin];
      if (nl.node(src).type == GateType::Const0 ||
          nl.node(src).type == GateType::Const1) {
        continue;  // faults on constant connections are untestable by design
      }
      const bool multi = fanouts[src].size() > 1 ||
                         (fanouts[src].size() == 1 && nl.node(src).is_output);
      if (multi) {
        branch_line[pin_base[n] + pin] = sites.size() / 2;
        sites.push_back({n, static_cast<int>(pin), false});
        sites.push_back({n, static_cast<int>(pin), true});
      }
    }
  }
  if (!collapse) return sites;

  // Equivalence collapsing via union-find over fault ids.
  auto fault_id = [&](NodeId node, int pin, bool value) -> std::size_t {
    const std::size_t line =
        pin < 0 ? stem_line[node]
                : branch_line[pin_base[node] + static_cast<std::size_t>(pin)];
    if (line == kNone) return kNone;
    return 2 * line + (value ? 1 : 0);
  };
  UnionFind uf(sites.size());

  for (NodeId n = 0; n < nl.size(); ++n) {
    if (nl.is_dead(n)) continue;
    const Node& nd = nl.node(n);
    if (is_source(nd.type)) continue;
    const std::size_t out0 = fault_id(n, -1, false);
    const std::size_t out1 = fault_id(n, -1, true);
    for (std::size_t pin = 0; pin < nd.fanins.size(); ++pin) {
      // The line feeding this pin: the branch if it exists, else the stem.
      NodeId src = nd.fanins[pin];
      std::size_t in0 = fault_id(n, static_cast<int>(pin), false);
      if (in0 == kNone) in0 = fault_id(src, -1, false);
      if (in0 == kNone) continue;  // constant feed
      const std::size_t in1 = in0 + 1;
      switch (nd.type) {
        case GateType::Buf:
          if (out0 != kNone) {
            uf.unite(in0, out0);
            uf.unite(in1, out1);
          }
          break;
        case GateType::Not:
          if (out0 != kNone) {
            uf.unite(in0, out1);
            uf.unite(in1, out0);
          }
          break;
        case GateType::And:
          if (out0 != kNone) uf.unite(in0, out0);
          break;
        case GateType::Nand:
          if (out1 != kNone) uf.unite(in0, out1);
          break;
        case GateType::Or:
          if (out1 != kNone) uf.unite(in1, out1);
          break;
        case GateType::Nor:
          if (out0 != kNone) uf.unite(in1, out0);
          break;
        default:
          break;  // XOR-type gates have no structural equivalences
      }
    }
  }

  // One representative (the first site) per class. Site i is fault id i.
  std::vector<StuckFault> out;
  std::vector<char> taken(sites.size(), 0);
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const std::size_t rep = uf.find(i);
    if (!taken[rep]) {
      taken[rep] = 1;
      out.push_back(sites[i]);
    }
  }
  return out;
}

}  // namespace compsyn
