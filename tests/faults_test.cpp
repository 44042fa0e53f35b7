#include <gtest/gtest.h>

#include <set>

#include "bench_io/bench_io.hpp"
#include "faults/fault.hpp"
#include "faults/fault_sim.hpp"
#include "netlist/equivalence.hpp"
#include "util/rng.hpp"

namespace compsyn {
namespace {

Netlist c17() {
  return read_bench_string(R"(
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
)", "c17");
}

TEST(FaultList, C17UncollapsedCount) {
  Netlist nl = c17();
  auto faults = enumerate_faults(nl, /*collapse=*/false);
  // Lines: 11 stems (5 PI + 6 gates) = 22 stem faults. Multi-fanout stems:
  // 3 (fanout 2), 11 (fanout 2), 16 (fanout 2) -> 6 branches -> 12 faults.
  EXPECT_EQ(faults.size(), 34u);
}

TEST(FaultList, C17CollapsedCount) {
  // The classic collapsed fault count for c17 is 22.
  Netlist nl = c17();
  auto faults = enumerate_faults(nl, /*collapse=*/true);
  EXPECT_EQ(faults.size(), 22u);
}

TEST(FaultList, CollapseKeepsOnePerClass) {
  // NOT chain: in s-a-0 == out s-a-1 etc., so a 3-gate chain with one PI and
  // one PO has 8 uncollapsed but only 2 collapsed faults.
  Netlist nl("chain");
  NodeId a = nl.add_input("a");
  NodeId n1 = nl.add_gate(GateType::Not, {a});
  NodeId n2 = nl.add_gate(GateType::Not, {n1});
  NodeId n3 = nl.add_gate(GateType::Not, {n2});
  nl.mark_output(n3);
  EXPECT_EQ(enumerate_faults(nl, false).size(), 8u);
  EXPECT_EQ(enumerate_faults(nl, true).size(), 2u);
}

TEST(FaultList, DeadAndConstantNodesExcluded) {
  Netlist nl("k");
  NodeId a = nl.add_input();
  NodeId k = nl.add_const(true);
  NodeId g = nl.add_gate(GateType::And, {a, k});
  NodeId junk = nl.add_gate(GateType::Not, {a});
  (void)junk;
  nl.mark_output(g);
  nl.sweep();
  for (const auto& f : enumerate_faults(nl, false)) {
    EXPECT_FALSE(nl.is_dead(f.node));
    if (!f.is_stem()) {
      const NodeId src = nl.node(f.node).fanins[static_cast<std::size_t>(f.pin)];
      EXPECT_NE(nl.node(src).type, GateType::Const1);
    }
  }
}

TEST(FaultList, ToStringIsReadable) {
  Netlist nl = c17();
  auto faults = enumerate_faults(nl, false);
  const std::string s = to_string(nl, faults.front());
  EXPECT_NE(s.find("s-a-"), std::string::npos);
}

/// Reference: serial fault simulation by building the faulty circuit.
bool serial_detects(const Netlist& nl, const StuckFault& f,
                    const std::vector<std::uint64_t>& pi, std::uint64_t bit) {
  // Good value.
  auto good = nl.simulate(pi);
  // Faulty: simulate manually with the fault injected.
  // One extra slot past the nodes holds the stuck word a faulty pin reads.
  std::vector<std::uint64_t> val(nl.size() + 1, 0);
  val[nl.size()] = f.value ? ~0ull : 0;
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) val[nl.inputs()[i]] = pi[i];
  if (f.is_stem() && nl.node(f.node).type == GateType::Input) {
    val[f.node] = f.value ? ~0ull : 0;
  }
  for (NodeId n : nl.topo_order()) {
    const Node& nd = nl.node(n);
    if (nd.type == GateType::Input) continue;
    if (nd.type == GateType::Const0) { val[n] = 0; continue; }
    if (nd.type == GateType::Const1) { val[n] = ~0ull; continue; }
    std::vector<NodeId> fanins = nd.fanins;
    if (!f.is_stem() && f.node == n) {
      fanins[static_cast<std::size_t>(f.pin)] = static_cast<NodeId>(nl.size());
    }
    val[n] = eval_gate(nd.type, fanins, val.data());
    if (f.is_stem() && f.node == n) val[n] = f.value ? ~0ull : 0;
  }
  for (NodeId o : nl.outputs()) {
    if (((good[o] ^ val[o]) >> bit) & 1ull) return true;
  }
  return false;
}

TEST(FaultSim, MatchesSerialReferenceOnC17) {
  Netlist nl = c17();
  auto faults = enumerate_faults(nl, false);
  Rng rng(42);
  std::vector<std::uint64_t> pi(nl.inputs().size());
  for (auto& w : pi) w = rng.next();

  // Reference: first detecting bit per fault under this single block.
  FaultSimulator sim(nl, faults);
  auto newly = sim.simulate_block(pi, 0);
  std::set<std::size_t> detected(newly.begin(), newly.end());
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    bool ref = false;
    std::uint64_t first_bit = 0;
    for (std::uint64_t b = 0; b < 64 && !ref; ++b) {
      if (serial_detects(nl, faults[fi], pi, b)) {
        ref = true;
        first_bit = b;
      }
    }
    EXPECT_EQ(detected.count(fi) != 0, ref) << to_string(nl, faults[fi]);
    if (ref) {
      EXPECT_EQ(sim.detecting_pattern(fi), first_bit) << to_string(nl, faults[fi]);
    }
  }
}

TEST(FaultSim, MatchesSerialReferenceOnRandomCircuits) {
  Rng gen(7);
  for (int trial = 0; trial < 8; ++trial) {
    Netlist nl("r");
    std::vector<NodeId> pool;
    for (int i = 0; i < 6; ++i) pool.push_back(nl.add_input());
    const GateType kinds[] = {GateType::And, GateType::Or, GateType::Nand,
                              GateType::Nor, GateType::Not, GateType::Xor};
    for (int i = 0; i < 30; ++i) {
      const GateType t = kinds[gen.below(6)];
      const unsigned arity = t == GateType::Not ? 1 : 2;
      std::vector<NodeId> fi;
      for (unsigned j = 0; j < arity; ++j) fi.push_back(pool[gen.below(pool.size())]);
      pool.push_back(nl.add_gate(t, fi));
    }
    nl.mark_output(pool[pool.size() - 1]);
    nl.mark_output(pool[pool.size() - 2]);
    nl.sweep();

    auto faults = enumerate_faults(nl, false);
    std::vector<std::uint64_t> pi(nl.inputs().size());
    for (auto& w : pi) w = gen.next();
    FaultSimulator sim(nl, faults);
    auto newly = sim.simulate_block(pi, 0);
    std::set<std::size_t> detected(newly.begin(), newly.end());
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      bool ref = false;
      for (std::uint64_t b = 0; b < 64 && !ref; ++b) {
        ref = serial_detects(nl, faults[fi], pi, b);
      }
      ASSERT_EQ(detected.count(fi) != 0, ref)
          << "trial " << trial << " " << to_string(nl, faults[fi]);
    }
  }
}

TEST(FaultSim, AccumulatesAcrossBlocks) {
  Netlist nl = c17();
  FaultSimulator sim(nl, enumerate_faults(nl, true));
  Rng rng(5);
  std::vector<std::uint64_t> pi(5);
  std::size_t detected_before = 0;
  for (int block = 0; block < 4; ++block) {
    for (auto& w : pi) w = rng.next();
    sim.simulate_block(pi, static_cast<std::uint64_t>(block) * 64);
    EXPECT_GE(sim.detected_count(), detected_before);
    detected_before = sim.detected_count();
  }
  // c17 is tiny: 256 random patterns detect everything.
  EXPECT_EQ(sim.remaining(), 0u);
}

TEST(FaultSim, PartialBlockMatchesSerialReference) {
  // A final block with fewer than 64 patterns: only the low num_patterns
  // bits may activate or detect anything.
  Netlist nl = c17();
  auto faults = enumerate_faults(nl, false);
  Rng rng(42);
  std::vector<std::uint64_t> pi(nl.inputs().size());
  for (auto& w : pi) w = rng.next();
  const unsigned kApplied = 11;

  FaultSimulator sim(nl, faults);
  auto newly = sim.simulate_block(pi, 0, kApplied);
  std::set<std::size_t> detected(newly.begin(), newly.end());
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    bool ref = false;
    std::uint64_t first_bit = 0;
    for (std::uint64_t b = 0; b < kApplied && !ref; ++b) {
      if (serial_detects(nl, faults[fi], pi, b)) {
        ref = true;
        first_bit = b;
      }
    }
    EXPECT_EQ(detected.count(fi) != 0, ref) << to_string(nl, faults[fi]);
    if (ref) {
      EXPECT_EQ(sim.detecting_pattern(fi), first_bit) << to_string(nl, faults[fi]);
    }
  }
  // Some fault of c17 is detected only past bit kApplied under this seed;
  // the partial block must find strictly fewer faults than the full one.
  FaultSimulator full(nl, faults);
  EXPECT_LT(detected.size(), full.simulate_block(pi, 0).size());
}

TEST(FaultSim, ExperimentStopsAtNonMultipleOf64) {
  // max_patterns not a multiple of 64: the final block is partial and the
  // experiment reports exactly max_patterns applied, never rounded up.
  Netlist nl = c17();
  Rng rng(9);
  auto res = random_saf_experiment(nl, rng, /*max_patterns=*/70);
  EXPECT_LE(res.patterns_applied, 70u);
  EXPECT_LE(res.last_effective_pattern, res.patterns_applied);
}

TEST(FaultSim, RandomExperimentDetectsAllOnC17) {
  Netlist nl = c17();
  Rng rng(9);
  auto res = random_saf_experiment(nl, rng, /*max_patterns=*/1 << 16);
  EXPECT_EQ(res.total_faults, 22u);
  EXPECT_EQ(res.remaining, 0u);
  EXPECT_GT(res.last_effective_pattern, 0u);
  EXPECT_LE(res.last_effective_pattern, res.patterns_applied);
}

TEST(FaultSim, UndetectableFaultStaysUndetected) {
  // y = OR(a, NOT a) is constant 1: the s-a-1 fault on y is undetectable.
  Netlist nl("red");
  NodeId a = nl.add_input();
  NodeId na = nl.add_gate(GateType::Not, {a});
  NodeId y = nl.add_gate(GateType::Or, {a, na});
  NodeId g = nl.add_gate(GateType::And, {y, a});
  nl.mark_output(g);
  std::vector<StuckFault> faults{{y, -1, true}};
  FaultSimulator sim(nl, faults);
  Rng rng(3);
  std::vector<std::uint64_t> pi(1);
  for (int i = 0; i < 16; ++i) {
    pi[0] = rng.next();
    sim.simulate_block(pi, static_cast<std::uint64_t>(i) * 64);
  }
  EXPECT_EQ(sim.detected_count(), 0u);
}

TEST(FaultSim, DeterministicLastEffectivePattern) {
  Netlist nl = c17();
  Rng r1(123), r2(123);
  auto a = random_saf_experiment(nl, r1, 1 << 14);
  auto b = random_saf_experiment(nl, r2, 1 << 14);
  EXPECT_EQ(a.last_effective_pattern, b.last_effective_pattern);
  EXPECT_EQ(a.remaining, b.remaining);
}

}  // namespace
}  // namespace compsyn
