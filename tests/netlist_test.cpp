#include <gtest/gtest.h>

#include "netlist/equivalence.hpp"
#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace compsyn {
namespace {

/// A 1-bit full adder (sum, carry) used by several tests.
Netlist full_adder() {
  Netlist nl("fa");
  NodeId a = nl.add_input("a");
  NodeId b = nl.add_input("b");
  NodeId cin = nl.add_input("cin");
  NodeId axb = nl.add_gate(GateType::Xor, {a, b});
  NodeId sum = nl.add_gate(GateType::Xor, {axb, cin});
  NodeId ab = nl.add_gate(GateType::And, {a, b});
  NodeId c2 = nl.add_gate(GateType::And, {axb, cin});
  NodeId cout = nl.add_gate(GateType::Or, {ab, c2});
  nl.mark_output(sum);
  nl.mark_output(cout);
  return nl;
}

TEST(GateEval, TruthTablesOfAllTypes) {
  const std::uint64_t words[] = {0x5ull, 0x3ull};  // bits: a=1010.., b=1100..
  const std::vector<NodeId> ab = {0, 1}, a = {0}, none;
  EXPECT_EQ(eval_gate(GateType::And, ab, words) & 0xF, 0x1ull);
  EXPECT_EQ(eval_gate(GateType::Nand, ab, words) & 0xF, 0xEull);
  EXPECT_EQ(eval_gate(GateType::Or, ab, words) & 0xF, 0x7ull);
  EXPECT_EQ(eval_gate(GateType::Nor, ab, words) & 0xF, 0x8ull);
  EXPECT_EQ(eval_gate(GateType::Xor, ab, words) & 0xF, 0x6ull);
  EXPECT_EQ(eval_gate(GateType::Xnor, ab, words) & 0xF, 0x9ull);
  EXPECT_EQ(eval_gate(GateType::Not, a, words) & 0xF, 0xAull);
  EXPECT_EQ(eval_gate(GateType::Buf, a, words) & 0xF, 0x5ull);
  EXPECT_EQ(eval_gate(GateType::Const0, none, words) & 0xF, 0x0ull);
  EXPECT_EQ(eval_gate(GateType::Const1, none, words) & 0xF, 0xFull);
}

TEST(GateProps, ControllingValues) {
  EXPECT_TRUE(has_controlling_value(GateType::And));
  EXPECT_TRUE(has_controlling_value(GateType::Nor));
  EXPECT_FALSE(has_controlling_value(GateType::Xor));
  EXPECT_FALSE(has_controlling_value(GateType::Not));
  EXPECT_FALSE(controlling_value(GateType::And));
  EXPECT_FALSE(controlling_value(GateType::Nand));
  EXPECT_TRUE(controlling_value(GateType::Or));
  EXPECT_TRUE(controlling_value(GateType::Nor));
  // Controlled outputs: AND->0, NAND->1, OR->1, NOR->0.
  EXPECT_FALSE(controlled_output(GateType::And));
  EXPECT_TRUE(controlled_output(GateType::Nand));
  EXPECT_TRUE(controlled_output(GateType::Or));
  EXPECT_FALSE(controlled_output(GateType::Nor));
}

TEST(Netlist, BuildAndSimulateFullAdder) {
  Netlist nl = full_adder();
  EXPECT_EQ(nl.inputs().size(), 3u);
  EXPECT_EQ(nl.outputs().size(), 2u);
  EXPECT_TRUE(nl.check().empty()) << nl.check();

  // Exhaustive: 8 patterns in one word.
  std::vector<std::uint64_t> pi = {exhaustive_mask(0), exhaustive_mask(1),
                                   exhaustive_mask(2)};
  auto v = nl.simulate(pi);
  for (unsigned p = 0; p < 8; ++p) {
    const unsigned a = p & 1, b = (p >> 1) & 1, c = (p >> 2) & 1;
    const unsigned sum = (v[nl.outputs()[0]] >> p) & 1;
    const unsigned cout = (v[nl.outputs()[1]] >> p) & 1;
    EXPECT_EQ(sum, (a + b + c) & 1u) << "pattern " << p;
    EXPECT_EQ(cout, (a + b + c) >> 1) << "pattern " << p;
  }
}

TEST(Netlist, EquivalentGateCountPerPaper) {
  Netlist nl("g");
  NodeId a = nl.add_input();
  NodeId b = nl.add_input();
  NodeId c = nl.add_input();
  NodeId d = nl.add_input();
  NodeId g1 = nl.add_gate(GateType::And, {a, b, c, d});  // 4-input -> 3
  NodeId g2 = nl.add_gate(GateType::Not, {g1});          // inverter -> 0
  NodeId g3 = nl.add_gate(GateType::Or, {g2, a});        // 2-input -> 1
  nl.mark_output(g3);
  EXPECT_EQ(nl.equivalent_gate_count(), 4u);
  EXPECT_EQ(nl.gate_count(), 3u);
}

TEST(Netlist, DepthCountsBufAndNot) {
  Netlist nl("d");
  NodeId a = nl.add_input();
  NodeId n1 = nl.add_gate(GateType::Not, {a});
  NodeId n2 = nl.add_gate(GateType::Buf, {n1});
  NodeId n3 = nl.add_gate(GateType::And, {n2, a});
  nl.mark_output(n3);
  EXPECT_EQ(nl.depth(), 3u);
}

TEST(Netlist, SweepMarksUnreachableDead) {
  Netlist nl("s");
  NodeId a = nl.add_input();
  NodeId b = nl.add_input();
  NodeId used = nl.add_gate(GateType::And, {a, b});
  NodeId dead1 = nl.add_gate(GateType::Or, {a, b});
  NodeId dead2 = nl.add_gate(GateType::Not, {dead1});
  nl.mark_output(used);
  EXPECT_EQ(nl.sweep(), 2u);
  EXPECT_TRUE(nl.is_dead(dead1));
  EXPECT_TRUE(nl.is_dead(dead2));
  EXPECT_FALSE(nl.is_dead(a));
  EXPECT_FALSE(nl.is_dead(used));
  EXPECT_EQ(nl.live_count(), 3u);
  EXPECT_TRUE(nl.check().empty()) << nl.check();
}

TEST(Netlist, RedefineKeepsFanoutsAndOutputs) {
  Netlist nl("r");
  NodeId a = nl.add_input();
  NodeId b = nl.add_input();
  NodeId g = nl.add_gate(GateType::And, {a, b});
  NodeId h = nl.add_gate(GateType::Not, {g});
  nl.mark_output(g);
  nl.mark_output(h);
  nl.redefine(g, GateType::Or, {a, b});
  EXPECT_EQ(nl.node(g).type, GateType::Or);
  EXPECT_TRUE(nl.node(g).is_output);
  EXPECT_EQ(nl.node(h).fanins[0], g);
  auto v = nl.simulate({0b01ull, 0b10ull});  // a=1,0 ; b=0,1
  EXPECT_EQ(v[g] & 3ull, 3ull);
}

struct ConstFoldCase {
  GateType type;
  bool const_val;        // the constant fed to the gate
  bool other_is_var;     // second input is a variable
  GateType expect_type;  // expected node type after simplify
};

class SimplifyConstFold : public ::testing::TestWithParam<ConstFoldCase> {};

TEST_P(SimplifyConstFold, FoldsCorrectly) {
  const auto& c = GetParam();
  Netlist nl("cf");
  NodeId a = nl.add_input();
  NodeId k = nl.add_const(c.const_val);
  NodeId g = nl.add_gate(c.type, {a, k});
  nl.mark_output(g);
  nl.simplify();
  EXPECT_EQ(nl.node(g).type, c.expect_type)
      << to_string(c.type) << " with const " << c.const_val << " got "
      << to_string(nl.node(g).type);
}

INSTANTIATE_TEST_SUITE_P(
    AllGates, SimplifyConstFold,
    ::testing::Values(
        // controlling constants
        ConstFoldCase{GateType::And, false, true, GateType::Const0},
        ConstFoldCase{GateType::Nand, false, true, GateType::Const1},
        ConstFoldCase{GateType::Or, true, true, GateType::Const1},
        ConstFoldCase{GateType::Nor, true, true, GateType::Const0},
        // non-controlling constants reduce to Buf/Not of the variable
        ConstFoldCase{GateType::And, true, true, GateType::Buf},
        ConstFoldCase{GateType::Nand, true, true, GateType::Not},
        ConstFoldCase{GateType::Or, false, true, GateType::Buf},
        ConstFoldCase{GateType::Nor, false, true, GateType::Not},
        ConstFoldCase{GateType::Xor, false, true, GateType::Buf},
        ConstFoldCase{GateType::Xor, true, true, GateType::Not},
        ConstFoldCase{GateType::Xnor, true, true, GateType::Buf},
        ConstFoldCase{GateType::Xnor, false, true, GateType::Not}));

TEST(Simplify, PreservesFunction) {
  Netlist nl("sp");
  NodeId a = nl.add_input("a");
  NodeId b = nl.add_input("b");
  NodeId c = nl.add_input("c");
  NodeId k1 = nl.add_const(true);
  NodeId k0 = nl.add_const(false);
  NodeId t1 = nl.add_gate(GateType::And, {a, k1});       // = a
  NodeId t2 = nl.add_gate(GateType::Or, {t1, k0});       // = a
  NodeId t3 = nl.add_gate(GateType::Buf, {t2});          // = a
  NodeId t4 = nl.add_gate(GateType::Xor, {t3, b, k0});   // = a^b
  NodeId t5 = nl.add_gate(GateType::Nand, {t4, c, k1});  // = ~((a^b)c)
  nl.mark_output(t5);
  Netlist ref = nl.compacted();
  nl.simplify();
  Rng rng(5);
  auto res = check_equivalent(nl, ref, rng);
  EXPECT_TRUE(res.equivalent) << res.message;
  EXPECT_TRUE(res.exhaustive);
  // After simplification: one XOR and one NAND survive.
  EXPECT_LE(nl.gate_count(), 2u);
}

TEST(Simplify, BufferChainsBypassed) {
  Netlist nl("bc");
  NodeId a = nl.add_input();
  NodeId b1 = nl.add_gate(GateType::Buf, {a});
  NodeId b2 = nl.add_gate(GateType::Buf, {b1});
  NodeId b3 = nl.add_gate(GateType::Buf, {b2});
  NodeId g = nl.add_gate(GateType::And, {b3, a});
  nl.mark_output(g);
  nl.simplify();
  // g's surviving fanins all point directly at a.
  for (NodeId f : nl.node(g).fanins) EXPECT_EQ(f, a);
}

TEST(Simplify, OutputBufferKept) {
  Netlist nl("ob");
  NodeId a = nl.add_input();
  NodeId b = nl.add_input();
  NodeId g = nl.add_gate(GateType::And, {a, b});
  NodeId buf = nl.add_gate(GateType::Buf, {g}, "po_buf");
  nl.mark_output(buf);
  nl.simplify();
  EXPECT_FALSE(nl.is_dead(buf));
  EXPECT_EQ(nl.outputs()[0], buf);
}

TEST(Netlist, CompactedPreservesFunctionAndInterface) {
  Netlist nl = full_adder();
  // Create garbage then compact.
  NodeId junk = nl.add_gate(GateType::And, {nl.inputs()[0], nl.inputs()[1]});
  (void)junk;
  nl.sweep();
  std::vector<NodeId> map;
  Netlist c = nl.compacted(&map);
  EXPECT_EQ(c.size(), nl.live_count());
  EXPECT_EQ(c.inputs().size(), 3u);
  EXPECT_EQ(c.outputs().size(), 2u);
  Rng rng(1);
  auto res = check_equivalent(nl, c, rng);
  EXPECT_TRUE(res.equivalent) << res.message;
  EXPECT_TRUE(res.exhaustive);
}

TEST(Equivalence, DetectsDifferenceWithCounterexample) {
  Netlist a("a"), b("b");
  NodeId ax = a.add_input(), ay = a.add_input();
  a.mark_output(a.add_gate(GateType::And, {ax, ay}));
  NodeId bx = b.add_input(), by = b.add_input();
  b.mark_output(b.add_gate(GateType::Or, {bx, by}));
  Rng rng(2);
  auto res = check_equivalent(a, b, rng);
  EXPECT_FALSE(res.equivalent);
  ASSERT_EQ(res.counterexample.size(), 2u);
  // The counterexample must actually distinguish AND from OR.
  const bool va = res.counterexample[0] && res.counterexample[1];
  const bool vb = res.counterexample[0] || res.counterexample[1];
  EXPECT_NE(va, vb);
}

TEST(Equivalence, ZeroInputConstantsThatDifferAreNotEquivalent) {
  // With no inputs the one valid pattern must still be compared.
  Netlist a("zero"), b("one");
  a.mark_output(a.add_gate(GateType::Buf, {a.add_const(false)}));
  b.mark_output(b.add_gate(GateType::Buf, {b.add_const(true)}));
  Rng rng(5);
  const EquivalenceResult res = check_equivalent(a, b, rng);
  EXPECT_FALSE(res.equivalent);
  EXPECT_TRUE(res.proven);
  EXPECT_TRUE(res.counterexample.empty());
  EXPECT_EQ(res.message, "output 0 differs");
}

TEST(Equivalence, InterfaceMismatchRejected) {
  Netlist a("a"), b("b");
  a.mark_output(a.add_input());
  b.add_input();
  b.mark_output(b.add_gate(GateType::Not, {b.add_input()}));
  Rng rng(3);
  EXPECT_FALSE(check_equivalent(a, b, rng).equivalent);
}

TEST(Equivalence, LargeInputCountUsesRandom) {
  Netlist a("a"), b("b");
  std::vector<NodeId> ai, bi;
  for (int i = 0; i < 30; ++i) {
    ai.push_back(a.add_input());
    bi.push_back(b.add_input());
  }
  a.mark_output(a.add_gate(GateType::And, ai));
  b.mark_output(b.add_gate(GateType::And, bi));
  Rng rng(4);
  auto res = check_equivalent(a, b, rng, /*random_words=*/16);
  EXPECT_TRUE(res.equivalent);
  EXPECT_FALSE(res.exhaustive);
}

TEST(Netlist, CheckFlagsArityViolations) {
  Netlist nl("bad");
  NodeId a = nl.add_input();
  NodeId g = nl.add_gate(GateType::Not, {a});
  nl.mark_output(g);
  EXPECT_TRUE(nl.check().empty());
  nl.redefine(g, GateType::And, {a});  // 1-input AND: arity violation
  EXPECT_FALSE(nl.check().empty());
}

}  // namespace
}  // namespace compsyn
