// Differential tests for the fault-simulation substrate: the FFR/stem
// FaultSimulator against the per-fault PPSFP loop it replaced and against
// full faulty-machine resimulation, and the array-indexed enumerate_faults
// against the map-indexed collapser it replaced. The references live here,
// outside src/, as oracles only.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <queue>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "faults/fault.hpp"
#include "faults/fault_sim.hpp"
#include "gen/circuits.hpp"
#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace compsyn {
namespace {

// -- reference: per-fault parallel-pattern single-fault propagation ----------

/// Every live fault's difference word is propagated on its own, event by
/// event in topological order, against the block's fault-free values.
/// Output differences are read when a node leaves the queue, once all its
/// fanins are final; read whenever the node is evaluated, a transient value
/// on a reconvergent path would count as a detection.
class PerFaultSimulator {
 public:
  PerFaultSimulator(const Netlist& nl, std::vector<StuckFault> faults)
      : nl_(nl), faults_(std::move(faults)) {
    detected_.assign(faults_.size(), 0);
    first_pattern_.assign(faults_.size(), 0);
    topo_rank_.assign(nl_.size(), 0);
    const auto& order = nl_.topo_order();
    for (std::uint32_t i = 0; i < order.size(); ++i) topo_rank_[order[i]] = i;
    is_po_.assign(nl_.size(), 0);
    for (NodeId o : nl_.outputs()) is_po_[o] = 1;
  }

  std::size_t remaining() const { return faults_.size() - detected_total_; }
  bool is_detected(std::size_t fi) const { return detected_[fi]; }
  std::uint64_t detecting_pattern(std::size_t fi) const { return first_pattern_[fi]; }

  std::vector<std::size_t> simulate_block(const std::vector<std::uint64_t>& pi_words,
                                          std::uint64_t base_pattern,
                                          unsigned num_patterns) {
    const std::uint64_t mask =
        num_patterns >= 64 ? ~0ull : ((1ull << num_patterns) - 1);
    nl_.simulate_into(pi_words, good_);
    fval_.assign(good_.begin(), good_.end());
    fval_.push_back(0);  // spare slot for a stuck pin
    std::vector<std::size_t> newly;
    for (std::size_t fi = 0; fi < faults_.size(); ++fi) {
      if (detected_[fi]) continue;
      const std::uint64_t diff = propagate_fault(faults_[fi], mask);
      if (diff == 0) continue;
      detected_[fi] = 1;
      ++detected_total_;
      first_pattern_[fi] = base_pattern + static_cast<unsigned>(__builtin_ctzll(diff));
      newly.push_back(fi);
    }
    return newly;
  }

 private:
  std::uint64_t propagate_fault(const StuckFault& f, std::uint64_t mask) {
    std::vector<NodeId> touched;
    auto set_faulty = [&](NodeId x, std::uint64_t v) {
      fval_[x] = v;
      touched.push_back(x);
    };
    const std::uint64_t stuck_word = f.value ? ~0ull : 0ull;
    const NodeId origin = f.node;
    std::uint64_t origin_val = stuck_word;
    if (!f.is_stem()) {
      const Node& nd = nl_.node(origin);
      std::vector<NodeId> pin_fanins(nd.fanins.begin(), nd.fanins.end());
      pin_fanins[static_cast<std::size_t>(f.pin)] = static_cast<NodeId>(nl_.size());
      fval_[nl_.size()] = stuck_word;
      origin_val = eval_gate(nd.type, pin_fanins, fval_.data());
    }
    if (((origin_val ^ good_[origin]) & mask) == 0) return 0;
    set_faulty(origin, origin_val);
    const auto& fanouts = nl_.fanouts();
    std::uint64_t po_diff = 0;
    using HeapItem = std::pair<std::uint32_t, NodeId>;
    std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
    heap.push({topo_rank_[origin], origin});
    while (!heap.empty()) {
      const NodeId x = heap.top().second;
      heap.pop();
      if (fval_[x] == good_[x]) continue;
      if (is_po_[x]) po_diff |= fval_[x] ^ good_[x];  // x is final here
      for (NodeId y : fanouts[x]) {
        const Node& nd = nl_.node(y);
        const std::uint64_t yv = eval_gate(nd.type, nd.fanins, fval_.data());
        if (yv == fval_[y]) continue;
        set_faulty(y, yv);
        heap.push({topo_rank_[y], y});
      }
    }
    for (NodeId x : touched) fval_[x] = good_[x];
    return po_diff & mask;
  }

  const Netlist& nl_;
  std::vector<StuckFault> faults_;
  std::vector<char> detected_;
  std::vector<std::uint64_t> first_pattern_;
  std::size_t detected_total_ = 0;
  std::vector<std::uint64_t> good_;
  std::vector<std::uint64_t> fval_;
  std::vector<std::uint32_t> topo_rank_;
  std::vector<char> is_po_;
};

// -- reference: full faulty-machine resimulation ------------------------------

/// The 64-pattern output difference of fault f: the faulty machine
/// simulated in full, in topological order, next to the good one.
std::uint64_t resimulated_difference(const Netlist& nl,
                                     const std::vector<std::uint64_t>& pi_words,
                                     const StuckFault& f) {
  const std::vector<std::uint64_t> good = nl.simulate(pi_words);
  std::vector<std::uint64_t> bad = good;
  const std::uint64_t stuck = f.value ? ~0ull : 0ull;
  bad.push_back(stuck);  // the slot a stuck pin reads
  for (NodeId y : nl.topo_order()) {
    const Node& nd = nl.node(y);
    if (nd.type != GateType::Input) {
      std::vector<NodeId> fanins(nd.fanins.begin(), nd.fanins.end());
      if (!f.is_stem() && y == f.node) {
        fanins[static_cast<std::size_t>(f.pin)] = static_cast<NodeId>(nl.size());
      }
      bad[y] = eval_gate(nd.type, fanins, bad.data());
    }
    if (f.is_stem() && y == f.node) bad[y] = stuck;
  }
  std::uint64_t diff = 0;
  for (NodeId o : nl.outputs()) diff |= bad[o] ^ good[o];
  return diff;
}

// -- reference: map-indexed structural equivalence collapsing ----------------

bool is_const(GateType t) { return t == GateType::Const0 || t == GateType::Const1; }

std::vector<StuckFault> map_enumerate_faults(const Netlist& nl, bool collapse) {
  const auto& fanouts = nl.fanouts();
  std::vector<StuckFault> sites;
  for (NodeId n = 0; n < nl.size(); ++n) {
    if (nl.is_dead(n) || is_const(nl.node(n).type)) continue;
    if (fanouts[n].empty() && !nl.node(n).is_output) continue;
    sites.push_back({n, -1, false});
    sites.push_back({n, -1, true});
  }
  for (NodeId n = 0; n < nl.size(); ++n) {
    if (nl.is_dead(n)) continue;
    const Node& nd = nl.node(n);
    if (nd.type == GateType::Input || is_const(nd.type)) continue;
    for (std::size_t pin = 0; pin < nd.fanins.size(); ++pin) {
      const NodeId src = nd.fanins[pin];
      if (is_const(nl.node(src).type)) continue;
      const bool multi = fanouts[src].size() > 1 ||
                         (fanouts[src].size() == 1 && nl.node(src).is_output);
      if (multi) {
        sites.push_back({n, static_cast<int>(pin), false});
        sites.push_back({n, static_cast<int>(pin), true});
      }
    }
  }
  if (!collapse) return sites;

  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::map<std::pair<NodeId, int>, std::size_t> line_index;
  for (std::size_t i = 0; i < sites.size(); i += 2) {
    line_index[{sites[i].node, sites[i].pin}] = i / 2;
  }
  auto fault_id = [&](NodeId node, int pin, bool value) -> std::size_t {
    auto it = line_index.find({node, pin});
    if (it == line_index.end()) return kNone;
    return 2 * it->second + (value ? 1 : 0);
  };
  std::vector<std::size_t> parent(sites.size());
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  auto find = [&](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  auto unite = [&](std::size_t a, std::size_t b) { parent[find(a)] = find(b); };

  for (NodeId n = 0; n < nl.size(); ++n) {
    if (nl.is_dead(n)) continue;
    const Node& nd = nl.node(n);
    if (nd.type == GateType::Input || is_const(nd.type)) continue;
    const std::size_t out0 = fault_id(n, -1, false);
    const std::size_t out1 = fault_id(n, -1, true);
    for (std::size_t pin = 0; pin < nd.fanins.size(); ++pin) {
      std::size_t in0 = fault_id(n, static_cast<int>(pin), false);
      if (in0 == kNone) in0 = fault_id(nd.fanins[pin], -1, false);
      if (in0 == kNone) continue;
      const std::size_t in1 = in0 + 1;
      if (out0 == kNone) continue;
      switch (nd.type) {
        case GateType::Buf: unite(in0, out0); unite(in1, out1); break;
        case GateType::Not: unite(in0, out1); unite(in1, out0); break;
        case GateType::And: unite(in0, out0); break;
        case GateType::Nand: unite(in0, out1); break;
        case GateType::Or: unite(in1, out1); break;
        case GateType::Nor: unite(in1, out0); break;
        default: break;
      }
    }
  }
  std::vector<StuckFault> out;
  std::vector<char> taken(sites.size(), 0);
  for (const StuckFault& f : sites) {
    const std::size_t rep = find(fault_id(f.node, f.pin, f.value));
    if (!taken[rep]) {
      taken[rep] = 1;
      out.push_back(f);
    }
  }
  return out;
}

// -- circuits ----------------------------------------------------------------

/// A random multilevel netlist with every gate type, constant fanins, a
/// primary input that is also an output, outputs that keep fanout, nodes
/// that feed two pins of one gate, and dangling gates (no sweep runs).
Netlist random_netlist(std::uint64_t seed, unsigned inputs, unsigned gates) {
  static constexpr GateType kTypes[] = {
      GateType::And, GateType::Nand, GateType::Or,  GateType::Nor,
      GateType::Xor, GateType::Xnor, GateType::Not, GateType::Buf};
  Rng rng(seed);
  Netlist nl("rand" + std::to_string(seed));
  std::vector<NodeId> pool;
  for (unsigned i = 0; i < inputs; ++i) pool.push_back(nl.add_input());
  pool.push_back(nl.add_const(false));
  pool.push_back(nl.add_const(true));
  for (unsigned g = 0; g < gates; ++g) {
    const GateType t = kTypes[g % 8 == 0 ? rng.below(8) : g % 8];
    const bool unary = t == GateType::Not || t == GateType::Buf;
    const std::size_t arity = unary ? 1 : 2 + rng.below(3);
    std::vector<NodeId> fanins;
    // Prefer recent nodes so the circuit gets depth.
    for (std::size_t k = 0; k < arity; ++k) {
      const std::size_t span = std::min<std::size_t>(pool.size(), 12);
      fanins.push_back(rng.chance(1, 4) ? pool[rng.below(pool.size())]
                                        : pool[pool.size() - 1 - rng.below(span)]);
    }
    if (!unary && rng.chance(1, 5)) fanins[1] = fanins[0];  // two pins, one node
    pool.push_back(nl.add_gate(t, std::move(fanins)));
  }
  nl.mark_output(pool[0]);  // a primary input that is also an output
  for (std::size_t k = pool.size() - 4; k < pool.size(); ++k) nl.mark_output(pool[k]);
  for (unsigned k = 0; k < 3; ++k) {
    nl.mark_output(pool[inputs + 2 + rng.below(gates / 2)]);  // keeps fanout
  }
  return nl;
}

std::vector<std::pair<std::string, Netlist>> circuits() {
  std::vector<std::pair<std::string, Netlist>> out;
  for (std::uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    out.emplace_back("random" + std::to_string(seed), random_netlist(seed, 9, 70));
  }
  SyntheticOptions rich;
  rich.inputs = 16;
  rich.gates = 120;
  rich.seed = 7;
  rich.sop_fraction = 0.8;
  rich.redundant_term_chance = 0.9;
  out.emplace_back("redundancy_rich", make_synthetic(rich));
  for (const char* name : {"c17", "s27", "syn150"}) {
    out.emplace_back(name, make_benchmark(name));
  }
  return out;
}

/// Every line of the live netlist: both stuck values on each node's output
/// and on each gate pin, fed by single-fanout stems or not.
std::vector<StuckFault> every_line(const Netlist& nl) {
  std::vector<StuckFault> out;
  for (NodeId n = 0; n < nl.size(); ++n) {
    if (nl.is_dead(n)) continue;
    for (bool v : {false, true}) out.push_back({n, -1, v});
    const Node& nd = nl.node(n);
    if (nd.type == GateType::Input || is_const(nd.type)) continue;
    for (std::size_t pin = 0; pin < nd.fanins.size(); ++pin) {
      for (bool v : {false, true}) out.push_back({n, static_cast<int>(pin), v});
    }
  }
  return out;
}

/// Runs both simulators over `blocks` random blocks (mixing in partial
/// blocks of 1, 17 and 63 patterns) and asserts identical outcomes.
void expect_same_simulation(const std::string& what, const Netlist& nl,
                            const std::vector<StuckFault>& faults, unsigned blocks,
                            std::uint64_t seed) {
  FaultSimulator sim(nl, faults);
  PerFaultSimulator ref(nl, faults);
  Rng rng(seed);
  std::vector<std::uint64_t> pi(nl.inputs().size());
  std::uint64_t base = 0;
  for (unsigned b = 0; b < blocks; ++b) {
    static constexpr unsigned kWidths[] = {64, 1, 64, 17, 63};
    const unsigned np = kWidths[b % 5];
    for (auto& w : pi) w = rng.next();
    ASSERT_EQ(sim.simulate_block(pi, base, np), ref.simulate_block(pi, base, np))
        << what << " block " << b;
    ASSERT_EQ(sim.remaining(), ref.remaining()) << what << " block " << b;
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      ASSERT_EQ(sim.is_detected(fi), ref.is_detected(fi)) << what << " fault " << fi;
      if (ref.is_detected(fi)) {
        ASSERT_EQ(sim.detecting_pattern(fi), ref.detecting_pattern(fi))
            << what << " fault " << to_string(nl, faults[fi]);
      }
    }
    base += np;
  }
}

/// Replaces a fault's line by its stuck constant (not function-preserving:
/// the point is to reach netlist states with constants and dead nodes).
void substitute(Netlist& nl, const StuckFault& f) {
  const NodeId k = nl.add_const(f.value);
  if (f.is_stem()) {
    if (nl.node(f.node).type == GateType::Input) return;
    nl.redefine(f.node, f.value ? GateType::Const1 : GateType::Const0, {});
    return;
  }
  std::vector<NodeId> fi = nl.node(f.node).fanins;
  fi[static_cast<std::size_t>(f.pin)] = k;
  nl.redefine(f.node, nl.node(f.node).type, std::move(fi));
}

TEST(FaultSimDiff, RandomCircuitsCoverTheCornerCases) {
  // Every gate type, a constant fanin, a PI that is a PO, a PO with
  // fanout, a node on two pins of one gate, and a dangling gate.
  std::set<GateType> types;
  bool const_fanin = false, pi_po = false, po_fanout = false, two_pins = false,
       dangling = false;
  for (std::uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    const Netlist nl = random_netlist(seed, 9, 70);
    const auto& fanouts = nl.fanouts();
    for (NodeId n = 0; n < nl.size(); ++n) {
      const Node& nd = nl.node(n);
      types.insert(nd.type);
      pi_po |= nd.type == GateType::Input && nd.is_output;
      po_fanout |= nd.is_output && !fanouts[n].empty();
      dangling |= nd.type != GateType::Input && !is_const(nd.type) &&
                  !nd.is_output && fanouts[n].empty();
      for (std::size_t i = 0; i < nd.fanins.size(); ++i) {
        const_fanin |= is_const(nl.node(nd.fanins[i]).type);
        for (std::size_t j = i + 1; j < nd.fanins.size(); ++j) {
          two_pins |= nd.fanins[i] == nd.fanins[j];
        }
      }
    }
  }
  EXPECT_EQ(types.size(), 11u);  // 8 gate types, inputs, both constants
  EXPECT_TRUE(const_fanin);
  EXPECT_TRUE(pi_po);
  EXPECT_TRUE(po_fanout);
  EXPECT_TRUE(two_pins);
  EXPECT_TRUE(dangling);
}

TEST(FaultSimDiff, StemTracingMatchesPerFaultPropagation) {
  std::uint64_t seed = 100;
  for (const auto& [name, nl] : circuits()) {
    for (bool collapse : {false, true}) {
      expect_same_simulation(name + (collapse ? "/collapsed" : "/full"), nl,
                             enumerate_faults(nl, collapse), 200, ++seed);
    }
    expect_same_simulation(name + "/every_line", nl, every_line(nl), 200, ++seed);
  }
}

TEST(FaultSimDiff, EveryFaultMatchesFullResimulation) {
  // A fresh simulator per block: every fault is live, so is_detected and
  // detecting_pattern expose each fault's masked detection word.
  for (const auto& [name, nl] : circuits()) {
    const std::vector<StuckFault> faults = every_line(nl);
    Rng rng(nl.size());
    std::vector<std::uint64_t> pi(nl.inputs().size());
    for (unsigned b = 0; b < 6; ++b) {
      static constexpr unsigned kWidths[] = {64, 1, 17, 63, 64, 64};
      const unsigned np = kWidths[b];
      const std::uint64_t mask = np >= 64 ? ~0ull : ((1ull << np) - 1);
      for (auto& w : pi) w = rng.next();
      FaultSimulator sim(nl, faults);
      sim.simulate_block(pi, 1000, np);
      for (std::size_t fi = 0; fi < faults.size(); ++fi) {
        const std::uint64_t diff = resimulated_difference(nl, pi, faults[fi]) & mask;
        ASSERT_EQ(sim.is_detected(fi), diff != 0)
            << name << " block " << b << " " << to_string(nl, faults[fi]);
        if (diff != 0) {
          ASSERT_EQ(sim.detecting_pattern(fi),
                    1000u + static_cast<unsigned>(__builtin_ctzll(diff)))
              << name << " block " << b << " " << to_string(nl, faults[fi]);
        }
      }
    }
  }
}

TEST(FaultSimDiff, TransientOutputValueIsNoDetection) {
  // y = XNOR(~x, ~~x) is constant 0, so faults on x are undetectable. In
  // topological order a = ~x is final before c = ~~x, so evaluating y as
  // soon as a changes shows a transient flip on the output -- which the
  // per-fault simulator this one replaced counted as a detection.
  Netlist nl("glitch");
  const NodeId x = nl.add_input("x");
  const NodeId a = nl.add_gate(GateType::Not, {x}, "a");
  const NodeId b = nl.add_gate(GateType::Not, {x}, "b");
  const NodeId c = nl.add_gate(GateType::Not, {b}, "c");
  nl.mark_output(nl.add_gate(GateType::Xnor, {a, c}, "y"));
  ASSERT_LT(nl.topo_order().size(), 6u);
  const std::vector<StuckFault> faults = {{x, -1, false}, {x, -1, true}};
  FaultSimulator sim(nl, faults);
  PerFaultSimulator ref(nl, faults);
  Rng rng(1);
  for (std::uint64_t b = 0; b < 4; ++b) {
    const std::vector<std::uint64_t> pi = {rng.next()};
    EXPECT_TRUE(sim.simulate_block(pi, 64 * b).empty());
    EXPECT_TRUE(ref.simulate_block(pi, 64 * b, 64).empty());
    for (const StuckFault& f : faults) EXPECT_EQ(resimulated_difference(nl, pi, f), 0u);
  }
  EXPECT_EQ(sim.remaining(), 2u);
}

TEST(FaultSimDiff, LargerSynCircuit) {
  const Netlist nl = make_benchmark("syn300");
  expect_same_simulation("syn300", nl, enumerate_faults(nl, true), 200, 7);
}

TEST(FaultSimDiff, EnumerateMatchesMapCollapserThroughEdits) {
  for (auto& [name, nl] : circuits()) {
    Rng rng(0xC011A9 + nl.size());
    for (unsigned step = 0; step < 6; ++step) {
      for (bool collapse : {false, true}) {
        ASSERT_EQ(enumerate_faults(nl, collapse), map_enumerate_faults(nl, collapse))
            << name << " step " << step << (collapse ? " collapsed" : " full");
      }
      if (step > 0) {
        expect_same_simulation(name + " step " + std::to_string(step), nl,
                               every_line(nl), 40, step);
      }
      const auto faults = enumerate_faults(nl, /*collapse=*/true);
      if (faults.empty()) break;
      substitute(nl, faults[rng.below(faults.size())]);
      nl.simplify();
    }
  }
}

}  // namespace
}  // namespace compsyn
