// Seeded CEC fuzz smoke: random synthetic circuit pairs (identical, locally
// mutated, or independently generated), SAT verdict cross-checked against
// the exhaustive-simulation ground truth. Deterministic by construction --
// the seed sweep is fixed -- so a failure is always reproducible.
//
// The differential suites additionally check every pair's session verdict
// against a fresh-miter oracle (sat_oracle.hpp), the correctness contract of
// the persistent session, and run full redundancy removal under PODEM
// budgets from 1 (SAT decides nearly every fault) to unlimited (SAT decides
// none): substitutions and final netlists must be identical.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "atpg/redundancy.hpp"
#include "bench_io/bench_io.hpp"
#include "gen/circuits.hpp"
#include "netlist/equivalence.hpp"
#include "sat/cec.hpp"
#include "sat/session.hpp"
#include "sat_oracle.hpp"
#include "util/rng.hpp"

namespace compsyn {
namespace {

/// Applies one random polarity flip to a live gate; returns false if the
/// netlist has no flippable gate.
bool flip_random_gate(Netlist& nl, Rng& rng) {
  std::vector<NodeId> gates;
  for (NodeId n = 0; n < nl.size(); ++n) {
    if (nl.is_dead(n)) continue;
    switch (nl.node(n).type) {
      case GateType::And:
      case GateType::Nand:
      case GateType::Or:
      case GateType::Nor:
      case GateType::Xor:
      case GateType::Xnor:
        gates.push_back(n);
        break;
      default:
        break;
    }
  }
  if (gates.empty()) return false;
  const NodeId g = gates[rng.next() % gates.size()];
  GateType flipped = GateType::And;
  switch (nl.node(g).type) {
    case GateType::And: flipped = GateType::Nand; break;
    case GateType::Nand: flipped = GateType::And; break;
    case GateType::Or: flipped = GateType::Nor; break;
    case GateType::Nor: flipped = GateType::Or; break;
    case GateType::Xor: flipped = GateType::Xnor; break;
    case GateType::Xnor: flipped = GateType::Xor; break;
    default: break;
  }
  nl.redefine(g, flipped, nl.node(g).fanins);
  return true;
}

TEST(SatCecFuzz, RandomCircuitsAgreeWithExhaustiveSimulation) {
  Rng rng(0xF022);
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SyntheticOptions opt;
    opt.inputs = 8 + static_cast<unsigned>(seed % 5);  // 8..12: exhaustive OK
    opt.outputs = 3 + static_cast<unsigned>(seed % 3);
    opt.gates = 60 + static_cast<unsigned>(seed * 7 % 60);
    opt.seed = seed;
    const Netlist a = make_synthetic(opt);
    Netlist b = make_synthetic(opt);

    // Three scenarios per seed: identical, one flipped gate, different seed.
    const unsigned scenario = static_cast<unsigned>(seed % 3);
    if (scenario == 1) {
      if (!flip_random_gate(b, rng)) continue;
    } else if (scenario == 2) {
      SyntheticOptions other = opt;
      other.seed = seed + 1000;
      b = make_synthetic(other);
      if (b.inputs().size() != a.inputs().size() ||
          b.outputs().size() != a.outputs().size()) {
        continue;
      }
    }

    Rng ground_rng(seed);
    const EquivalenceResult truth = check_equivalent(a, b, ground_rng);
    ASSERT_TRUE(truth.proven) << "seed " << seed;  // <= 12 PIs: exhaustive

    SatSession session;
    const EquivalenceResult sat = session.check_equivalent(a, b);
    ASSERT_TRUE(sat.proven) << "seed " << seed;
    EXPECT_EQ(sat.equivalent, truth.equivalent)
        << "seed " << seed << " scenario " << scenario;
    if (!sat.equivalent) {
      // Counterexample sanity: it must actually distinguish the circuits.
      std::vector<std::uint64_t> pi(a.inputs().size());
      for (std::size_t i = 0; i < pi.size(); ++i) {
        pi[i] = sat.counterexample[i] ? ~0ull : 0ull;
      }
      const auto va = a.simulate(pi);
      const auto vb = b.simulate(pi);
      bool differs = false;
      for (std::size_t o = 0; o < a.outputs().size(); ++o) {
        differs |= ((va[a.outputs()[o]] ^ vb[b.outputs()[o]]) & 1ull) != 0;
      }
      EXPECT_TRUE(differs) << "seed " << seed;
    }
  }
}

TEST(SatCecFuzz, SessionAgreesWithFreshMiterOnEveryPair) {
  // The same pair sweep, session vs fresh miter vs exhaustive simulation:
  // all three must return the same verdict on every seeded scenario.
  Rng rng(0xF023);
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SyntheticOptions opt;
    opt.inputs = 8 + static_cast<unsigned>(seed % 5);
    opt.outputs = 3 + static_cast<unsigned>(seed % 3);
    opt.gates = 60 + static_cast<unsigned>(seed * 7 % 60);
    opt.seed = seed;
    const Netlist a = make_synthetic(opt);
    Netlist b = make_synthetic(opt);
    const unsigned scenario = static_cast<unsigned>(seed % 3);
    if (scenario == 1) {
      if (!flip_random_gate(b, rng)) continue;
    } else if (scenario == 2) {
      SyntheticOptions other = opt;
      other.seed = seed + 1000;
      b = make_synthetic(other);
      if (b.inputs().size() != a.inputs().size() ||
          b.outputs().size() != a.outputs().size()) {
        continue;
      }
    }

    Rng ground_rng(seed);
    const EquivalenceResult truth = check_equivalent(a, b, ground_rng);
    ASSERT_TRUE(truth.proven) << "seed " << seed;

    const EquivalenceResult oneshot = oneshot_check_equivalent(a, b);
    SatSession session;
    const EquivalenceResult ses = session.check_equivalent(a, b);
    ASSERT_TRUE(oneshot.proven) << "seed " << seed;
    ASSERT_TRUE(ses.proven) << "seed " << seed;
    EXPECT_EQ(oneshot.equivalent, truth.equivalent) << "seed " << seed;
    EXPECT_EQ(ses.equivalent, truth.equivalent) << "seed " << seed;
  }
}

/// Redundancy removal under one PODEM backtrack budget (0 = unlimited).
Netlist run_removal(const Netlist& base, std::uint64_t backtrack_limit,
                    RedundancyRemovalStats* stats) {
  Netlist nl = base;
  RedundancyRemovalOptions opt;
  opt.atpg.backtrack_limit = backtrack_limit;
  *stats = remove_redundancies(nl, opt);
  return nl;
}

TEST(SatCecFuzz, RedundancyRemovalIsBudgetInvariant) {
  // PODEM and SAT both give exact verdicts and substitutions follow fault
  // order, so the PODEM budget only moves work between the two engines: a
  // budget of 1 aborts most hard faults into SAT, an unlimited one never
  // calls SAT. Final netlists (byte compare of the .bench serialisation)
  // and removal counts must not move.
  const std::uint64_t other_budgets[] = {kRedundancyBacktrackLimit, 5000, 0};
  std::uint64_t sat_decided = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SyntheticOptions opt;
    opt.inputs = 8 + static_cast<unsigned>(seed % 4);
    opt.outputs = 3;
    opt.gates = 50 + static_cast<unsigned>(seed * 9 % 40);
    opt.seed = seed;
    opt.redundant_term_chance = 0.4;
    const Netlist base = make_synthetic(opt);

    RedundancyRemovalStats ref_stats;
    const Netlist ref = run_removal(base, /*backtrack_limit=*/1, &ref_stats);
    sat_decided += ref_stats.aborted;
    EXPECT_TRUE(ref_stats.irredundant) << "seed " << seed;
    for (const std::uint64_t limit : other_budgets) {
      RedundancyRemovalStats st;
      const Netlist got = run_removal(base, limit, &st);
      EXPECT_EQ(write_bench_string(got), write_bench_string(ref))
          << "seed " << seed << " limit " << limit;
      EXPECT_EQ(st.removed, ref_stats.removed)
          << "seed " << seed << " limit " << limit;
      EXPECT_EQ(st.aborted_unresolved, 0u)
          << "seed " << seed << " limit " << limit;
      EXPECT_TRUE(st.irredundant) << "seed " << seed << " limit " << limit;
      if (limit == 0) {
        EXPECT_EQ(st.aborted, 0u) << "seed " << seed;
      }
    }

    // And the removal preserved the function (exhaustive at these widths).
    Rng rng(seed);
    const EquivalenceResult eq = check_equivalent(base, ref, rng);
    ASSERT_TRUE(eq.proven) << "seed " << seed;
    EXPECT_TRUE(eq.equivalent) << "seed " << seed;
  }
  // The budget-1 runs really exercised SAT.
  EXPECT_GT(sat_decided, 0u);
}

}  // namespace
}  // namespace compsyn
