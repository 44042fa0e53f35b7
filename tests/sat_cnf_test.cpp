// Tseitin encoder and CEC miter: the CNF model of every circuit must agree
// with 64-bit packed simulation on every node, the miter verdict must agree
// with exhaustive simulation on small generator circuits, and the SAT route
// must deliver real proofs past the exhaustive-simulation limit.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/circuits.hpp"
#include "netlist/equivalence.hpp"
#include "sat/cec.hpp"
#include "sat/solver.hpp"
#include "sat/tseitin.hpp"
#include "sat_oracle.hpp"
#include "util/rng.hpp"

namespace compsyn {
namespace {

/// Solves the encoded circuit under unit assumptions pinning every primary
/// input, then checks the model of EVERY live node against simulation.
void check_model_against_sim(const Netlist& nl, Rng& rng, int trials) {
  Solver s;
  const CircuitEncoding enc = encode_circuit(nl, s);
  const unsigned n = static_cast<unsigned>(nl.inputs().size());
  std::vector<std::uint64_t> pi(n);
  std::vector<SatLit> assumptions(n);
  for (int t = 0; t < trials; ++t) {
    for (unsigned i = 0; i < n; ++i) {
      const bool bit = (rng.next() & 1) != 0;
      pi[i] = bit ? ~0ull : 0ull;
      assumptions[i] = enc.lit(nl.inputs()[i], /*negated=*/!bit);
    }
    ASSERT_EQ(s.solve(assumptions), SolveStatus::Sat) << nl.name();
    const std::vector<std::uint64_t> sim = nl.simulate(pi);
    for (NodeId node = 0; node < nl.size(); ++node) {
      if (!enc.has(node)) continue;
      const bool expect = (sim[node] & 1ull) != 0;
      EXPECT_EQ(s.model_value(enc.node_var[node]), expect)
          << nl.name() << " node " << node << " trial " << t;
    }
  }
}

TEST(SatCnf, EncoderMatchesSimulation) {
  Rng rng(0xC0FFEE);
  for (const char* name : {"c17", "s27"}) {
    check_model_against_sim(make_benchmark(name), rng, 16);
  }
  check_model_against_sim(make_parity_tree(9), rng, 16);   // XOR chain folding
  check_model_against_sim(make_alu_slice(3), rng, 16);     // XOR/XNOR mix
  check_model_against_sim(make_ripple_adder(4), rng, 16);
  check_model_against_sim(make_comparator(4), rng, 16);
  SyntheticOptions opt;
  opt.inputs = 10;
  opt.outputs = 5;
  opt.gates = 120;
  for (std::uint64_t seed : {7ull, 8ull, 9ull}) {
    opt.seed = seed;
    check_model_against_sim(make_synthetic(opt), rng, 8);
  }
}

TEST(SatCnf, EncoderHandlesConstants) {
  Netlist nl("consts");
  const NodeId a = nl.add_input("a");
  const NodeId k0 = nl.add_const(false);
  const NodeId k1 = nl.add_const(true);
  const NodeId g = nl.add_gate(GateType::And, {a, k1});
  const NodeId h = nl.add_gate(GateType::Or, {g, k0});
  nl.mark_output(h);
  Solver s;
  const CircuitEncoding enc = encode_circuit(nl, s);
  ASSERT_EQ(s.solve({enc.lit(a)}), SolveStatus::Sat);
  EXPECT_TRUE(s.model_value(enc.node_var[h]));
  ASSERT_EQ(s.solve({enc.lit(a, /*negated=*/true)}), SolveStatus::Sat);
  EXPECT_FALSE(s.model_value(enc.node_var[h]));
}

TEST(SatCnf, MiterAgreesWithExhaustiveOnGeneratorCircuits) {
  // All suite circuits with at most 20 primary inputs: the SAT verdict must
  // match the exhaustive-simulation verdict both on the identical pair and
  // on a single-gate mutation.
  Rng rng(42);
  for (const BenchmarkEntry& entry : benchmark_suite()) {
    const Netlist a = make_benchmark(entry.name);
    if (a.inputs().size() > kDefaultExhaustiveLimit) continue;

    const EquivalenceResult sat_same = oneshot_check_equivalent(a, a);
    EXPECT_TRUE(sat_same.equivalent) << entry.name;
    EXPECT_TRUE(sat_same.proven) << entry.name;

    // Flip one gate's polarity; exhaustive simulation decides ground truth.
    Netlist b = make_benchmark(entry.name);
    bool mutated = false;
    for (NodeId n = 0; n < b.size() && !mutated; ++n) {
      const Node& node = b.node(n);
      if (b.is_dead(n)) continue;
      GateType flipped;
      switch (node.type) {
        case GateType::And: flipped = GateType::Nand; break;
        case GateType::Nand: flipped = GateType::And; break;
        case GateType::Or: flipped = GateType::Nor; break;
        case GateType::Nor: flipped = GateType::Or; break;
        case GateType::Xor: flipped = GateType::Xnor; break;
        case GateType::Xnor: flipped = GateType::Xor; break;
        default: continue;
      }
      b.redefine(n, flipped, node.fanins);
      mutated = true;
    }
    if (!mutated) continue;

    const EquivalenceResult sim = check_equivalent(a, b, rng);
    const EquivalenceResult sat = oneshot_check_equivalent(a, b);
    ASSERT_TRUE(sim.proven) << entry.name;  // <= 20 PIs: exhaustive
    EXPECT_TRUE(sat.proven) << entry.name;
    EXPECT_EQ(sat.equivalent, sim.equivalent) << entry.name;
  }
}

TEST(SatCnf, CounterexampleIsConcrete) {
  // NAND vs AND on two inputs: SAT must refute and the returned assignment
  // must actually distinguish the circuits under simulation.
  Netlist a("and2");
  {
    const NodeId x = a.add_input("x"), y = a.add_input("y");
    a.mark_output(a.add_gate(GateType::And, {x, y}));
  }
  Netlist b("nand2");
  {
    const NodeId x = b.add_input("x"), y = b.add_input("y");
    b.mark_output(b.add_gate(GateType::Nand, {x, y}));
  }
  const EquivalenceResult res = oneshot_check_equivalent(a, b);
  EXPECT_FALSE(res.equivalent);
  EXPECT_TRUE(res.proven);
  ASSERT_EQ(res.counterexample.size(), 2u);
  std::vector<std::uint64_t> pi(2);
  for (unsigned i = 0; i < 2; ++i) pi[i] = res.counterexample[i] ? ~0ull : 0ull;
  const auto va = a.simulate(pi);
  const auto vb = b.simulate(pi);
  EXPECT_NE(va[a.outputs()[0]] & 1ull, vb[b.outputs()[0]] & 1ull);
}

TEST(SatCnf, ProofBeyondExhaustiveLimit) {
  // 25 primary inputs: simulation cannot prove equivalence here, SAT can.
  const Netlist golden = make_ripple_adder(12);
  ASSERT_GT(golden.inputs().size(), kDefaultExhaustiveLimit);

  Rng rng(7);
  const EquivalenceResult sim = check_equivalent(golden, golden, rng);
  EXPECT_TRUE(sim.equivalent);
  EXPECT_FALSE(sim.proven);  // random vectors only

  const EquivalenceResult sat = oneshot_check_equivalent(golden, golden);
  EXPECT_TRUE(sat.equivalent);
  EXPECT_TRUE(sat.proven);

  // And the Both mode upgrades the unproven simulation verdict to a proof.
  const EquivalenceResult both =
      check_equivalent_mode(golden, golden, rng, VerifyMode::Both);
  EXPECT_TRUE(both.equivalent);
  EXPECT_TRUE(both.proven);
}

TEST(SatCnf, MiterRefutesWideInequivalence) {
  // A wide mutation that random simulation is unlikely to label equivalent,
  // but where SAT must return a definite refutation with a counterexample.
  const Netlist a = make_ripple_adder(12);
  Netlist b = make_ripple_adder(12);
  for (NodeId n = 0; n < b.size(); ++n) {
    if (!b.is_dead(n) && b.node(n).type == GateType::Xor) {
      b.redefine(n, GateType::Xnor, b.node(n).fanins);
      break;
    }
  }
  const EquivalenceResult res = oneshot_check_equivalent(a, b);
  EXPECT_FALSE(res.equivalent);
  EXPECT_TRUE(res.proven);
  ASSERT_EQ(res.counterexample.size(), a.inputs().size());
  std::vector<std::uint64_t> pi(a.inputs().size());
  for (std::size_t i = 0; i < pi.size(); ++i) {
    pi[i] = res.counterexample[i] ? ~0ull : 0ull;
  }
  const auto va = a.simulate(pi);
  const auto vb = b.simulate(pi);
  bool differs = false;
  for (std::size_t o = 0; o < a.outputs().size(); ++o) {
    differs |= ((va[a.outputs()[o]] ^ vb[b.outputs()[o]]) & 1ull) != 0;
  }
  EXPECT_TRUE(differs);
}

TEST(SatCnf, ParseVerifyMode) {
  EXPECT_EQ(parse_verify_mode("sim"), VerifyMode::Sim);
  EXPECT_EQ(parse_verify_mode("sat"), VerifyMode::Sat);
  EXPECT_EQ(parse_verify_mode("both"), VerifyMode::Both);
  EXPECT_FALSE(parse_verify_mode("exhaustive").has_value());
  EXPECT_FALSE(parse_verify_mode("").has_value());
}

}  // namespace
}  // namespace compsyn
