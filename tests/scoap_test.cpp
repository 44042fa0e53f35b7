// SCOAP testability measures: hand-computed CC0/CC1/CO references on c17,
// the s27 combinational shell, and an XOR chain, plus structural properties
// (monotonicity, stem-vs-branch observability) on the generated benchmark
// suite. The hand values pin the exact Goldstein arithmetic -- every gate
// adds 1, side inputs are held non-controlling, stems take the branch min.
#include <gtest/gtest.h>

#include <algorithm>

#include "atpg/scoap.hpp"
#include "faults/fault.hpp"
#include "gen/circuits.hpp"
#include "netlist/netlist.hpp"

namespace compsyn {
namespace {

/// ISCAS c17 (all NAND2), NodeIds captured for direct metric lookup.
struct C17 {
  Netlist nl{"c17"};
  NodeId i1, i2, i3, i6, i7;
  NodeId n10, n11, n16, n19, n22, n23;

  C17() {
    i1 = nl.add_input("1");
    i2 = nl.add_input("2");
    i3 = nl.add_input("3");
    i6 = nl.add_input("6");
    i7 = nl.add_input("7");
    n10 = nl.add_gate(GateType::Nand, {i1, i3});
    n11 = nl.add_gate(GateType::Nand, {i3, i6});
    n16 = nl.add_gate(GateType::Nand, {i2, n11});
    n19 = nl.add_gate(GateType::Nand, {n11, i7});
    n22 = nl.add_gate(GateType::Nand, {n10, n16});
    n23 = nl.add_gate(GateType::Nand, {n16, n19});
    nl.mark_output(n22);
    nl.mark_output(n23);
  }
};

/// ISCAS s27 combinational shell: state lines are pseudo-PIs/POs.
struct S27 {
  Netlist nl{"s27"};
  NodeId g0, g1, g2, g3, g5, g6, g7;
  NodeId g14, g8, g12, g15, g16, g9, g11, g10, g17, g13;

  S27() {
    g0 = nl.add_input("G0");
    g1 = nl.add_input("G1");
    g2 = nl.add_input("G2");
    g3 = nl.add_input("G3");
    g5 = nl.add_input("G5");
    g6 = nl.add_input("G6");
    g7 = nl.add_input("G7");
    g14 = nl.add_gate(GateType::Not, {g0});
    g12 = nl.add_gate(GateType::Nor, {g1, g7});
    g8 = nl.add_gate(GateType::And, {g14, g6});
    g15 = nl.add_gate(GateType::Or, {g12, g8});
    g16 = nl.add_gate(GateType::Or, {g3, g8});
    g9 = nl.add_gate(GateType::Nand, {g16, g15});
    g11 = nl.add_gate(GateType::Nor, {g5, g9});
    g10 = nl.add_gate(GateType::Nor, {g14, g11});
    g17 = nl.add_gate(GateType::Not, {g11});
    g13 = nl.add_gate(GateType::Nor, {g2, g12});
    nl.mark_output(g17);
    nl.mark_output(g10);
    nl.mark_output(g11);
    nl.mark_output(g13);
  }
};

TEST(Scoap, C17Controllability) {
  C17 c;
  const ScoapMetrics m = compute_scoap(c.nl);
  for (NodeId in : c.nl.inputs()) {
    EXPECT_EQ(m.cc0[in], 1u);
    EXPECT_EQ(m.cc1[in], 1u);
  }
  // NAND: cc1 = min fanin cc0 + 1, cc0 = sum fanin cc1 + 1.
  EXPECT_EQ(m.cc1[c.n10], 2u);
  EXPECT_EQ(m.cc0[c.n10], 3u);
  EXPECT_EQ(m.cc1[c.n11], 2u);
  EXPECT_EQ(m.cc0[c.n11], 3u);
  EXPECT_EQ(m.cc1[c.n16], 2u);
  EXPECT_EQ(m.cc0[c.n16], 4u);
  EXPECT_EQ(m.cc1[c.n19], 2u);
  EXPECT_EQ(m.cc0[c.n19], 4u);
  EXPECT_EQ(m.cc1[c.n22], 4u);
  EXPECT_EQ(m.cc0[c.n22], 5u);
  EXPECT_EQ(m.cc1[c.n23], 5u);
  EXPECT_EQ(m.cc0[c.n23], 5u);
}

TEST(Scoap, C17Observability) {
  C17 c;
  const ScoapMetrics m = compute_scoap(c.nl);
  EXPECT_EQ(m.co[c.n22], 0u);
  EXPECT_EQ(m.co[c.n23], 0u);
  EXPECT_EQ(m.co[c.n10], 3u);  // through 22, holding 16 at 1 (cc1=2)
  EXPECT_EQ(m.co[c.n16], 3u);  // both branches cost 3
  EXPECT_EQ(m.co[c.n19], 3u);
  EXPECT_EQ(m.co[c.n11], 5u);  // min over the 16- and 19-branches
  EXPECT_EQ(m.co[c.i1], 5u);
  EXPECT_EQ(m.co[c.i2], 6u);
  EXPECT_EQ(m.co[c.i3], 5u);  // the 10-branch beats the 11-branch (7)
  EXPECT_EQ(m.co[c.i6], 7u);
  EXPECT_EQ(m.co[c.i7], 6u);
  // The stem min is visible against the explicit branch costs.
  EXPECT_EQ(scoap_branch_co(c.nl, m, c.n10, 1), 5u);  // 3 via gate 10
  EXPECT_EQ(scoap_branch_co(c.nl, m, c.n11, 0), 7u);  // 3 via gate 11
}

TEST(Scoap, S27HandComputed) {
  S27 s;
  const ScoapMetrics m = compute_scoap(s.nl);
  EXPECT_EQ(m.cc0[s.g14], 2u);
  EXPECT_EQ(m.cc1[s.g14], 2u);
  EXPECT_EQ(m.cc1[s.g8], 4u);
  EXPECT_EQ(m.cc0[s.g8], 2u);
  EXPECT_EQ(m.cc1[s.g12], 3u);
  EXPECT_EQ(m.cc0[s.g12], 2u);
  EXPECT_EQ(m.cc1[s.g15], 4u);
  EXPECT_EQ(m.cc0[s.g15], 5u);
  EXPECT_EQ(m.cc1[s.g16], 2u);
  EXPECT_EQ(m.cc0[s.g16], 4u);
  EXPECT_EQ(m.cc0[s.g9], 7u);
  EXPECT_EQ(m.cc1[s.g9], 5u);
  EXPECT_EQ(m.cc1[s.g11], 9u);
  EXPECT_EQ(m.cc0[s.g11], 2u);
  EXPECT_EQ(m.cc1[s.g13], 4u);
  EXPECT_EQ(m.cc0[s.g13], 2u);
  EXPECT_EQ(m.cc1[s.g10], 5u);
  EXPECT_EQ(m.cc0[s.g10], 3u);
  EXPECT_EQ(m.cc0[s.g17], 10u);
  EXPECT_EQ(m.cc1[s.g17], 3u);

  EXPECT_EQ(m.co[s.g17], 0u);
  EXPECT_EQ(m.co[s.g10], 0u);
  EXPECT_EQ(m.co[s.g11], 0u);  // itself a PO; the G17/G10 branches cost more
  EXPECT_EQ(m.co[s.g13], 0u);
  EXPECT_EQ(m.co[s.g9], 2u);
  EXPECT_EQ(m.co[s.g14], 3u);  // via G10; the G8 branch costs 10
  EXPECT_EQ(m.co[s.g12], 2u);  // via G13; the G15 branch costs 8
  EXPECT_EQ(m.co[s.g15], 5u);
  EXPECT_EQ(m.co[s.g16], 7u);
  EXPECT_EQ(m.co[s.g8], 8u);  // both branches cost 8 and 9; min wins
  EXPECT_EQ(m.co[s.g0], 4u);
  EXPECT_EQ(m.co[s.g1], 4u);
  EXPECT_EQ(m.co[s.g2], 3u);
  EXPECT_EQ(m.co[s.g3], 10u);
  EXPECT_EQ(m.co[s.g5], 8u);
  EXPECT_EQ(m.co[s.g6], 11u);
  EXPECT_EQ(m.co[s.g7], 4u);
}

TEST(Scoap, XorChainParityCosts) {
  // x1 = a0^a1, x2 = x1^a2, x3 = x2^a3: stage k costs 2k+1 both ways, and
  // observability walks back up at min-cc (=1) per side input plus the gate.
  Netlist nl("xorchain");
  NodeId a0 = nl.add_input();
  NodeId a1 = nl.add_input();
  NodeId a2 = nl.add_input();
  NodeId a3 = nl.add_input();
  NodeId x1 = nl.add_gate(GateType::Xor, {a0, a1});
  NodeId x2 = nl.add_gate(GateType::Xor, {x1, a2});
  NodeId x3 = nl.add_gate(GateType::Xor, {x2, a3});
  nl.mark_output(x3);
  const ScoapMetrics m = compute_scoap(nl);
  EXPECT_EQ(m.cc0[x1], 3u);
  EXPECT_EQ(m.cc1[x1], 3u);
  EXPECT_EQ(m.cc0[x2], 5u);
  EXPECT_EQ(m.cc1[x2], 5u);
  EXPECT_EQ(m.cc0[x3], 7u);
  EXPECT_EQ(m.cc1[x3], 7u);
  EXPECT_EQ(m.co[x3], 0u);
  EXPECT_EQ(m.co[x2], 2u);
  EXPECT_EQ(m.co[x1], 4u);
  EXPECT_EQ(m.co[a0], 6u);
  EXPECT_EQ(m.co[a1], 6u);
  EXPECT_EQ(m.co[a2], 6u);
  EXPECT_EQ(m.co[a3], 6u);
}

TEST(Scoap, ConstantsSaturate) {
  // A constant's impossible side scores kScoapInf, and faults that need it
  // saturate to maximum hardness instead of overflowing.
  Netlist nl("const");
  NodeId a = nl.add_input();
  NodeId c0 = nl.add_const(false);
  NodeId g = nl.add_gate(GateType::Or, {a, c0});
  nl.mark_output(g);
  const ScoapMetrics m = compute_scoap(nl);
  EXPECT_EQ(m.cc0[c0], 0u);
  EXPECT_EQ(m.cc1[c0], kScoapInf);
  EXPECT_EQ(m.cc0[g], 2u);  // both fanins at 0: 1 + 0 + 1
  EXPECT_EQ(m.cc1[g], 2u);  // a=1 suffices
  EXPECT_EQ(m.co[a], 1u);   // hold the constant side at 0 for free
  EXPECT_EQ(m.co[c0], 2u);

  EXPECT_EQ(scoap_fault_hardness(nl, m, {c0, -1, true}), 2u);  // s-a-1: at 0 already
  EXPECT_EQ(scoap_fault_hardness(nl, m, {c0, -1, false}), kScoapInf);
  EXPECT_EQ(scoap_add(kScoapInf, kScoapInf), kScoapInf);
}

TEST(Scoap, FaultHardnessStemAndBranch) {
  C17 c;
  const ScoapMetrics m = compute_scoap(c.nl);
  // Stem s-a-0 on 22: drive to 1 (cc1=4) and observe at the PO (0).
  EXPECT_EQ(scoap_fault_hardness(c.nl, m, {c.n22, -1, false}), 4u);
  // Branch s-a-0 on pin 1 of gate 16 (the 11-input): drive 11 to 1 (cc1=2),
  // observe through 16 holding input 2 at 1 (3 + 1 + 1 = 5).
  EXPECT_EQ(scoap_fault_hardness(c.nl, m, {c.n16, 1, false}), 7u);
  // Branch hardness is never cheaper than the stem's.
  for (const StuckFault& f : enumerate_faults(c.nl, false)) {
    if (f.is_stem()) continue;
    const StuckFault stem{c.nl.node(f.node).fanins[f.pin], -1, f.value};
    EXPECT_GE(scoap_fault_hardness(c.nl, m, f),
              scoap_fault_hardness(c.nl, m, stem));
  }
}

TEST(Scoap, StemCoIsMinOverBranchCosOnBenchmarks) {
  for (const char* name : {"c17", "s27", "add8", "cmp8", "syn150"}) {
    Netlist nl = make_benchmark(name);
    const ScoapMetrics m = compute_scoap(nl);
    for (NodeId n : nl.topo_order()) {
      std::uint32_t expect = nl.node(n).is_output ? 0 : kScoapInf;
      bool consumed = nl.node(n).is_output;
      for (NodeId g : nl.topo_order()) {
        const auto& fi = nl.node(g).fanins;
        for (std::size_t p = 0; p < fi.size(); ++p) {
          if (fi[p] != n) continue;
          expect = std::min(expect, scoap_branch_co(nl, m, g, p));
          consumed = true;
        }
      }
      if (consumed) {
        EXPECT_EQ(m.co[n], expect) << name << " node " << n;
      }
    }
  }
}

TEST(Scoap, ControllabilityGrowsAlongLevels) {
  // Every live gate costs strictly more to control than its cheapest fanin:
  // the +1 per gate level makes min-cc strictly increasing along any path.
  for (const char* name : {"c17", "s27", "add8", "cmp8", "syn150"}) {
    Netlist nl = make_benchmark(name);
    const ScoapMetrics m = compute_scoap(nl);
    for (NodeId n : nl.topo_order()) {
      const Node& nd = nl.node(n);
      if (nd.fanins.empty()) continue;
      const std::uint32_t mine = std::min(m.cc0[n], m.cc1[n]);
      if (mine >= kScoapInf) continue;
      std::uint32_t cheapest = kScoapInf;
      for (NodeId f : nd.fanins) {
        cheapest = std::min(cheapest, std::min(m.cc0[f], m.cc1[f]));
      }
      EXPECT_GE(mine, cheapest + 1) << name << " node " << n;
    }
  }
}

TEST(Scoap, BranchCoExceedsGateCo) {
  for (const char* name : {"c17", "s27", "add8", "cmp8"}) {
    Netlist nl = make_benchmark(name);
    const ScoapMetrics m = compute_scoap(nl);
    for (NodeId g : nl.topo_order()) {
      const auto& fi = nl.node(g).fanins;
      for (std::size_t p = 0; p < fi.size(); ++p) {
        const std::uint32_t b = scoap_branch_co(nl, m, g, p);
        if (b >= kScoapInf) continue;
        EXPECT_GE(b, m.co[g] + 1) << name << " gate " << g << " pin " << p;
      }
    }
  }
}

TEST(Scoap, GuidanceBundle) {
  C17 c;
  const AtpgGuidance g = AtpgGuidance::build(c.nl);
  const ScoapMetrics m = compute_scoap(c.nl);
  EXPECT_EQ(g.scoap.cc0, m.cc0);
  EXPECT_EQ(g.scoap.cc1, m.cc1);
  EXPECT_EQ(g.scoap.co, m.co);
}

}  // namespace
}  // namespace compsyn
