// Differential tests for the block simulation kernel (Netlist::simulate_words)
// against the word-at-a-time sweeps it replaced: check_equivalent against a
// per-64-pattern-word equivalence loop, ReachabilityTable against a
// per-word simulate_into sweep. The references live only here.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/sdc.hpp"
#include "netlist/equivalence.hpp"
#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace compsyn {
namespace {

/// The word-at-a-time equivalence check: one simulate_into per netlist per
/// 64-pattern word, outputs compared in order, lowest differing bit first.
/// Below 6 inputs only the 2^n valid patterns of the one word are compared
/// (one pattern at 0 inputs).
EquivalenceResult reference_check(const Netlist& a, const Netlist& b, Rng& rng,
                                  unsigned random_words, unsigned exhaustive_limit) {
  EquivalenceResult res;
  if (a.inputs().size() != b.inputs().size() ||
      a.outputs().size() != b.outputs().size()) {
    res.message = "interface mismatch";
    return res;
  }
  const std::size_t n = a.inputs().size();
  std::vector<std::uint64_t> pi(n), va, vb;
  auto compare_word = [&](std::uint64_t care) {
    a.simulate_into(pi, va);
    b.simulate_into(pi, vb);
    for (std::size_t o = 0; o < a.outputs().size(); ++o) {
      const std::uint64_t diff = (va[a.outputs()[o]] ^ vb[b.outputs()[o]]) & care;
      if (diff == 0) continue;
      const unsigned bit = static_cast<unsigned>(__builtin_ctzll(diff));
      res.counterexample.assign(n, false);
      for (std::size_t i = 0; i < n; ++i) res.counterexample[i] = ((pi[i] >> bit) & 1ull) != 0;
      std::ostringstream ss;
      ss << "output " << o << " differs";
      res.message = ss.str();
      res.proven = true;
      return false;
    }
    return true;
  };

  if (n <= exhaustive_limit && n <= kMaxExhaustiveInputs) {
    res.exhaustive = true;
    res.proven = true;
    const std::uint64_t blocks = n >= 6 ? (1ull << (n - 6)) : 1;
    const std::uint64_t care = n >= 6 ? ~0ull : (1ull << (1u << n)) - 1ull;
    for (std::uint64_t blk = 0; blk < blocks; ++blk) {
      for (std::size_t i = 0; i < n; ++i) {
        pi[i] = i < 6 ? exhaustive_mask(static_cast<unsigned>(i))
                      : (((blk >> (i - 6)) & 1ull) ? ~0ull : 0ull);
      }
      if (!compare_word(care)) return res;
    }
    res.equivalent = true;
    res.message = "proved equivalent by exhaustive simulation";
    return res;
  }
  for (unsigned w = 0; w < random_words; ++w) {
    for (std::size_t i = 0; i < n; ++i) pi[i] = rng.next();
    if (!compare_word(~0ull)) return res;
  }
  res.equivalent = true;
  std::ostringstream ss;
  ss << "no difference in " << random_words << " random words (not a proof)";
  res.message = ss.str();
  return res;
}

/// Runs check_equivalent and the reference on copies of one Rng and
/// asserts identical results and identical Rng states afterwards.
void expect_same_as_reference(const Netlist& a, const Netlist& b, std::uint64_t seed,
                              unsigned random_words, unsigned exhaustive_limit,
                              const std::string& what) {
  Rng got_rng(seed), want_rng(seed);
  const EquivalenceResult got = check_equivalent(a, b, got_rng, random_words, exhaustive_limit);
  const EquivalenceResult want =
      reference_check(a, b, want_rng, random_words, exhaustive_limit);
  EXPECT_EQ(got.equivalent, want.equivalent) << what;
  EXPECT_EQ(got.proven, want.proven) << what;
  EXPECT_EQ(got.exhaustive, want.exhaustive) << what;
  EXPECT_EQ(got.counterexample, want.counterexample) << what;
  EXPECT_EQ(got.message, want.message) << what;
  for (int d = 0; d < 4; ++d) {
    ASSERT_EQ(got_rng.next(), want_rng.next()) << what << ": Rng state after the call";
  }
}

constexpr GateType kGateKinds[] = {GateType::Buf, GateType::Not, GateType::And,
                                   GateType::Nand, GateType::Or, GateType::Nor,
                                   GateType::Xor, GateType::Xnor};

/// A random netlist over n inputs with every gate type and both constants
/// among its gates, a primary input that is also an output, one node
/// driving two outputs, and dead (unobserved, swept) gates. Every output is
/// a Buf over its observed node, so mutants can redefine it in place.
Netlist random_circuit(unsigned n, unsigned gates, Rng& gen) {
  Netlist nl("rand");
  std::vector<NodeId> pool;
  for (unsigned i = 0; i < n; ++i) pool.push_back(nl.add_input());
  pool.push_back(nl.add_const(false));
  pool.push_back(nl.add_const(true));
  for (unsigned g = 0; g < gates; ++g) {
    const GateType t = g < 8 ? kGateKinds[g] : kGateKinds[gen.below(8)];
    const unsigned arity = t == GateType::Buf || t == GateType::Not ? 1 : 2 + gen.below(3);
    std::vector<NodeId> fanins;
    // Prefer recent nodes so the netlist gets some depth.
    for (unsigned j = 0; j < arity; ++j) {
      const std::size_t span = std::min<std::size_t>(pool.size(), 12);
      fanins.push_back(gen.flip() ? pool[pool.size() - 1 - gen.below(span)]
                                  : pool[gen.below(pool.size())]);
    }
    pool.push_back(nl.add_gate(t, fanins));
  }
  if (n > 0) nl.mark_output(pool[0]);  // a PO that is a PI
  const NodeId shared = pool.back();
  nl.mark_output(nl.add_gate(GateType::Buf, {shared}));  // two POs, one driver
  nl.mark_output(nl.add_gate(GateType::Buf, {shared}));
  for (int o = 0; o < 3; ++o) {
    const NodeId x = pool[n + gen.below(pool.size() - n)];
    nl.mark_output(nl.add_gate(GateType::Buf, {x}));
  }
  nl.sweep();
  return nl;
}

/// A random type change of one live gate (same arity class).
Netlist type_mutant(const Netlist& nl, Rng& gen) {
  Netlist m = nl;
  std::vector<NodeId> gates;
  for (NodeId id : nl.topo_order()) {
    const GateType t = nl.node(id).type;
    if (t != GateType::Input && t != GateType::Const0 && t != GateType::Const1) {
      gates.push_back(id);
    }
  }
  const NodeId g = gates[gen.below(gates.size())];
  const Node& nd = nl.node(g);
  GateType t = nd.type;
  while (t == nd.type) {
    t = nd.fanins.size() == 1 ? (gen.flip() ? GateType::Buf : GateType::Not)
                              : kGateKinds[2 + gen.below(6)];
  }
  m.redefine(g, t, nd.fanins);
  return m;
}

/// Adds to m a detector that is 1 exactly when the given inputs take the
/// bits of `pattern` (input i = bit i), and flips each listed output with
/// it: the outputs then differ from the original on those patterns only.
void flip_outputs_on(Netlist& m, const std::vector<unsigned>& inputs, std::uint64_t pattern,
                     const std::vector<std::size_t>& outputs) {
  std::vector<NodeId> literals;
  for (unsigned i : inputs) {
    const NodeId x = m.inputs()[i];
    literals.push_back(((pattern >> i) & 1ull) ? x : m.add_gate(GateType::Not, {x}));
  }
  const NodeId det = literals.size() == 1 ? literals[0] : m.add_gate(GateType::And, literals);
  for (std::size_t o : outputs) {
    // The output is a Buf over its driver, or the Xor of an earlier flip.
    const NodeId po = m.outputs()[o];
    std::vector<NodeId> fanins = m.node(po).fanins;
    fanins.push_back(det);
    m.redefine(po, GateType::Xor, fanins);
  }
}

std::vector<unsigned> all_inputs(unsigned n) {
  std::vector<unsigned> v(n);
  for (unsigned i = 0; i < n; ++i) v[i] = i;
  return v;
}

TEST(BlockSim, GeneratedPairsMatchWordAtATimeCheck) {
  Rng gen(17);
  bool saw_dead = false;
  for (unsigned n = 0; n <= 20; ++n) {
    const int trials = n <= 12 ? 6 : 2;
    for (int t = 0; t < trials; ++t) {
      const Netlist a = random_circuit(n, 40, gen);
      saw_dead = saw_dead || a.live_count() < a.size();
      const Netlist same = a.compacted();
      const Netlist mut = type_mutant(a, gen);
      const std::string what = "n=" + std::to_string(n) + " trial " + std::to_string(t);
      expect_same_as_reference(a, same, 100 + t, 256, kDefaultExhaustiveLimit, what + " self");
      expect_same_as_reference(a, mut, 200 + t, 256, kDefaultExhaustiveLimit, what + " mutant");
      if (n > 0) {
        // The random branch, forced with a small exhaustive limit, at a
        // word count that is not a whole number of kernel groups.
        expect_same_as_reference(a, same, 300 + t, 37, n - 1, what + " random self");
        expect_same_as_reference(a, mut, 400 + t, 37, n - 1, what + " random mutant");
      }
    }
  }
  EXPECT_TRUE(saw_dead);
}

TEST(BlockSim, FirstDifferenceAtEachGroupPosition) {
  // 14 inputs: 256 exhaustive words, 16 kernel groups. Plant the first
  // difference in the first, a middle and the last word of a group, on
  // several outputs: output 3 at a low bit, output 2 at a higher bit of
  // the same word, output 1 in a later word. The reference order picks
  // output 2 (lowest word, then lowest output, then lowest bit).
  constexpr unsigned n = 14;
  Rng gen(23);
  const Netlist a = random_circuit(n, 60, gen);
  ASSERT_GE(a.outputs().size(), 5u);
  for (std::uint64_t word : {5 * kSimBlockWords, 5 * kSimBlockWords + kSimBlockWords / 2,
                             6 * kSimBlockWords - 1}) {
    Netlist b = a;
    const std::uint64_t low = word * 64 + 3, high = word * 64 + 40;
    flip_outputs_on(b, all_inputs(n), low, {3});
    flip_outputs_on(b, all_inputs(n), high, {2, 3});
    flip_outputs_on(b, all_inputs(n), (word + 1) * 64 + 1, {1});
    const std::string what = "word " + std::to_string(word);
    expect_same_as_reference(a, b, 7, 256, kDefaultExhaustiveLimit, what);

    Rng rng(7);
    const EquivalenceResult res = check_equivalent(a, b, rng);
    EXPECT_EQ(res.message, "output 2 differs") << what;
    std::vector<bool> expected(n);
    for (unsigned i = 0; i < n; ++i) expected[i] = ((high >> i) & 1ull) != 0;
    EXPECT_EQ(res.counterexample, expected) << what;
  }
}

TEST(BlockSim, RandomBranchRareDifferencesKeepRngState) {
  // A difference on one pattern in 2^10 of a 24-input pair shows up after
  // about 16 random words, so the first differing word lands at varying
  // positions inside a group; the Rng must be left as the word-at-a-time
  // loop leaves it every time.
  constexpr unsigned n = 24;
  Rng gen(29);
  for (int t = 0; t < 12; ++t) {
    const Netlist a = random_circuit(n, 50, gen);
    Netlist b = a;
    std::vector<unsigned> subset;
    for (unsigned i = 0; i < 10; ++i) subset.push_back(static_cast<unsigned>(gen.below(n)));
    flip_outputs_on(b, subset, gen.next(), {1, 3});
    expect_same_as_reference(a, b, 500 + t, 256, kDefaultExhaustiveLimit,
                             "trial " + std::to_string(t));
    expect_same_as_reference(a, b, 600 + t, 21, kDefaultExhaustiveLimit,
                             "short trial " + std::to_string(t));
  }
}

/// Per-node pattern words from a simulate_into call per 64 patterns.
std::vector<std::vector<std::uint64_t>> reference_bits(const Netlist& nl) {
  const unsigned n = static_cast<unsigned>(nl.inputs().size());
  const std::uint64_t patterns = 1ull << n;
  const std::size_t words = std::max<std::uint64_t>(1, patterns / 64);
  std::vector<std::vector<std::uint64_t>> bits(nl.size(), std::vector<std::uint64_t>(words));
  std::vector<std::uint64_t> pi(n), values;
  for (std::size_t w = 0; w < words; ++w) {
    for (unsigned i = 0; i < n; ++i) {
      pi[i] = i < 6 ? exhaustive_mask(i) : (((w >> (i - 6)) & 1u) ? ~0ull : 0ull);
    }
    nl.simulate_into(pi, values);
    for (NodeId node = 0; node < nl.size(); ++node) bits[node][w] = values[node];
  }
  return bits;
}

TruthTable reference_combos(const std::vector<std::vector<std::uint64_t>>& bits,
                            const std::vector<NodeId>& nodes) {
  const unsigned k = static_cast<unsigned>(nodes.size());
  TruthTable reach(k);
  const std::uint64_t patterns = bits[0].size() * 64;
  for (std::uint64_t p = 0; p < patterns; ++p) {
    std::uint32_t combo = 0;
    for (unsigned i = 0; i < k; ++i) {
      const std::uint64_t bit = (bits[nodes[i]][p >> 6] >> (p & 63)) & 1ull;
      combo |= static_cast<std::uint32_t>(bit) << (k - 1 - i);
    }
    reach.set(combo, true);
  }
  return reach;
}

void expect_reachability_matches(const Netlist& nl, Rng& gen, const std::string& what) {
  const ReachabilityTable table(nl);
  const auto bits = reference_bits(nl);
  for (int q = 0; q < 12; ++q) {
    std::vector<NodeId> nodes;
    const unsigned k = 1 + static_cast<unsigned>(gen.below(4));
    for (unsigned i = 0; i < k; ++i) nodes.push_back(static_cast<NodeId>(gen.below(nl.size())));
    EXPECT_EQ(table.reachable_combos(nodes), reference_combos(bits, nodes))
        << what << " query " << q;
  }
}

// The circuits of sdc_test.cpp (the hand-built ones and the seeded random
// 8-input ones of SdcResynthesis.PreservesCircuitFunction), plus generated
// circuits at input counts below, inside and above one kernel group.
TEST(BlockSim, ReachabilityTableMatchesPerWordSweep) {
  Rng gen(31);
  {
    Netlist nl("r");
    const NodeId a = nl.add_input();
    nl.mark_output(nl.add_gate(GateType::Not, {a}));
    expect_reachability_matches(nl, gen, "complementary pair");
  }
  {
    Netlist nl("uv");
    const NodeId a = nl.add_input(), b = nl.add_input();
    nl.mark_output(nl.add_gate(GateType::And, {a, b}));
    nl.mark_output(nl.add_gate(GateType::Or, {a, b}));
    expect_reachability_matches(nl, gen, "and/or");
  }
  {
    Netlist nl("corr");
    const NodeId p = nl.add_input(), q = nl.add_input(), r = nl.add_input(),
                 s = nl.add_input();
    const NodeId a = nl.add_gate(GateType::And, {p, q});
    const NodeId b = nl.add_gate(GateType::Or, {r, s});
    const NodeId u = nl.add_gate(GateType::And, {a, b});
    const NodeId v = nl.add_gate(GateType::Or, {a, b});
    const NodeId w = nl.add_gate(GateType::Xor, {a, b});
    const NodeId t1 = nl.add_gate(GateType::And, {nl.add_gate(GateType::Not, {u}), v, w});
    const NodeId t2 = nl.add_gate(GateType::And, {u, v, nl.add_gate(GateType::Not, {w})});
    nl.mark_output(nl.add_gate(GateType::Or, {t1, t2}));
    expect_reachability_matches(nl, gen, "correlated");
  }
  Rng sdc_gen(91);
  for (int trial = 0; trial < 10; ++trial) {
    Netlist nl("s");
    std::vector<NodeId> pool;
    for (int i = 0; i < 8; ++i) pool.push_back(nl.add_input());
    const GateType kinds[] = {GateType::And, GateType::Or, GateType::Nand,
                              GateType::Nor, GateType::Not, GateType::Xor};
    for (int i = 0; i < 30; ++i) {
      const GateType t = kinds[sdc_gen.below(6)];
      const unsigned arity = t == GateType::Not ? 1 : 2 + sdc_gen.below(2);
      std::vector<NodeId> fi;
      for (unsigned j = 0; j < arity; ++j) fi.push_back(pool[sdc_gen.below(pool.size())]);
      pool.push_back(nl.add_gate(t, fi));
    }
    nl.mark_output(pool.back());
    nl.mark_output(pool[pool.size() - 2]);
    nl.sweep();
    expect_reachability_matches(nl, gen, "sdc trial " + std::to_string(trial));
  }
  for (unsigned n : {0u, 3u, 7u, 10u, 14u}) {
    expect_reachability_matches(random_circuit(n, 40, gen), gen,
                                "generated n=" + std::to_string(n));
  }
}

}  // namespace
}  // namespace compsyn
