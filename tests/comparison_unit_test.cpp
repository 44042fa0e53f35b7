#include <gtest/gtest.h>

#include <numeric>

#include "core/comparison_unit.hpp"
#include "netlist/equivalence.hpp"
#include "paths/paths.hpp"
#include "util/rng.hpp"

namespace compsyn {
namespace {

ComparisonSpec make_spec(unsigned n, std::uint32_t lower, std::uint32_t upper,
                         bool complemented = false,
                         std::vector<unsigned> perm = {}) {
  ComparisonSpec s;
  s.n = n;
  if (perm.empty()) {
    s.perm.resize(n);
    std::iota(s.perm.begin(), s.perm.end(), 0u);
  } else {
    s.perm = std::move(perm);
  }
  s.lower = lower;
  s.upper = upper;
  s.complemented = complemented;
  return s;
}

/// Exhaustively checks that the unit computes interval membership.
void expect_unit_correct(const ComparisonSpec& spec, const UnitOptions& opt = {}) {
  Netlist unit = build_unit_netlist(spec, opt);
  ASSERT_TRUE(unit.check().empty()) << unit.check();
  TruthTable expect = spec.to_truth_table();
  const unsigned n = spec.n;
  for (std::uint32_t m = 0; m < (1u << n); ++m) {
    std::vector<std::uint64_t> pi(n);
    for (unsigned v = 0; v < n; ++v) pi[v] = ((m >> (n - 1 - v)) & 1u) ? ~0ull : 0;
    auto val = unit.simulate(pi);
    EXPECT_EQ((val[unit.outputs()[0]] & 1ull) != 0, expect.get(m))
        << "L=" << spec.lower << " U=" << spec.upper << " m=" << m
        << " comp=" << spec.complemented;
  }
}

TEST(ComparisonUnit, Figure3a_GE3Block) {
  // >= 3 over 4 bits: L = 0011. Expected structure: OR(x1, OR(x2, AND(x3,x4)))
  // with merging: OR(x1, x2, AND(x3, x4)) -> 3 equivalent 2-input gates.
  const auto spec = make_spec(4, 3, 15);
  UnitBuildResult r;
  Netlist unit = build_unit_netlist(spec, {}, &r);
  expect_unit_correct(spec);
  EXPECT_EQ(r.equiv_gates, 3u);
  EXPECT_EQ(r.kp, (std::vector<std::uint32_t>{1, 1, 1, 1}));
}

TEST(ComparisonUnit, Figure3b_GE12BlockOmitsTrailingZeros) {
  // >= 12 over 4 bits: L = 1100 -> AND(x1, x2); x3, x4 drop out entirely.
  const auto spec = make_spec(4, 12, 15);
  UnitBuildResult r;
  Netlist unit = build_unit_netlist(spec, {}, &r);
  expect_unit_correct(spec);
  EXPECT_EQ(r.equiv_gates, 1u);
  EXPECT_EQ(r.kp, (std::vector<std::uint32_t>{1, 1, 0, 0}));
}

TEST(ComparisonUnit, Figure3c_LE12Block) {
  // <= 12 over 4 bits: U = 1100 -> ~x1 + ~x2 + ~x3~x4: 3 equivalent gates.
  const auto spec = make_spec(4, 0, 12);
  UnitBuildResult r;
  Netlist unit = build_unit_netlist(spec, {}, &r);
  expect_unit_correct(spec);
  EXPECT_EQ(r.equiv_gates, 3u);
  EXPECT_EQ(r.kp, (std::vector<std::uint32_t>{1, 1, 1, 1}));
}

TEST(ComparisonUnit, Figure3d_LE3BlockOmitsTrailingOnes) {
  // <= 3 over 4 bits: U = 0011 -> AND(~x1, ~x2); x3, x4 drop out.
  const auto spec = make_spec(4, 0, 3);
  UnitBuildResult r;
  Netlist unit = build_unit_netlist(spec, {}, &r);
  expect_unit_correct(spec);
  EXPECT_EQ(r.equiv_gates, 1u);
  EXPECT_EQ(r.kp, (std::vector<std::uint32_t>{1, 1, 0, 0}));
}

TEST(ComparisonUnit, Figure4_GE7MergesChain) {
  // >= 7 over 4 bits: L = 0111 -> OR(x1, AND(x2, x3, x4)) after merging.
  const auto spec = make_spec(4, 7, 15);
  UnitBuildResult r;
  Netlist unit = build_unit_netlist(spec, {}, &r);
  expect_unit_correct(spec);
  EXPECT_EQ(r.equiv_gates, 3u);  // AND3 counts 2, OR2 counts 1
  EXPECT_EQ(r.depth, 2u);
  // Without merging the chain has three 2-input gates in a row.
  UnitOptions no_merge;
  no_merge.merge_gates = false;
  UnitBuildResult r2;
  Netlist unit2 = build_unit_netlist(spec, no_merge, &r2);
  expect_unit_correct(spec, no_merge);
  EXPECT_EQ(r2.equiv_gates, 3u);
  EXPECT_EQ(r2.depth, 3u);
}

TEST(ComparisonUnit, Figure1_PaperExampleL5U10) {
  // The Section 3.1 example: L=5, U=10 over 4 bits, both blocks present.
  const auto spec = make_spec(4, 5, 10);
  UnitBuildResult r;
  Netlist unit = build_unit_netlist(spec, {}, &r);
  expect_unit_correct(spec);
  // At most two paths from any input (Section 3.1).
  for (std::uint32_t kp : r.kp) EXPECT_LE(kp, 2u);
  // x1 participates in both blocks here.
  EXPECT_EQ(r.kp[0], 2u);
}

TEST(ComparisonUnit, Figure6_FreeVariableUnit) {
  // L=11=1011, U=12=1100: x1 is free, L_F=3, U_F=4 over (x2,x3,x4).
  const auto spec = make_spec(4, 11, 12);
  UnitBuildResult r;
  Netlist unit = build_unit_netlist(spec, {}, &r);
  expect_unit_correct(spec);
  EXPECT_EQ(r.kp[0], 1u);  // free variables have exactly one path
  EXPECT_LE(r.kp[1], 2u);
}

TEST(ComparisonUnit, SinglePrimeImplicantBecomesAnd) {
  // Section 3.2.2: L_F = 00..0 and U_F = 11..1 -> a single AND of the free
  // literals. f(y1,y2,y3) = y1 y3: perm (y1,y3,y2), L=110=6, U=111=7.
  const auto spec = make_spec(3, 6, 7, false, {0, 2, 1});
  UnitBuildResult r;
  Netlist unit = build_unit_netlist(spec, {}, &r);
  expect_unit_correct(spec);
  EXPECT_EQ(r.equiv_gates, 1u);  // one 2-input AND
  EXPECT_EQ(r.kp, (std::vector<std::uint32_t>{1, 0, 1}));
  EXPECT_EQ(r.depth, 1u);
}

TEST(ComparisonUnit, NegativeLiteralFreeVariables) {
  // L = U = 0: all variables free with bit 0 -> AND of all inverted inputs.
  const auto spec = make_spec(3, 0, 0);
  UnitBuildResult r;
  Netlist unit = build_unit_netlist(spec, {}, &r);
  expect_unit_correct(spec);
  EXPECT_EQ(r.equiv_gates, 2u);  // 3-input AND
  EXPECT_EQ(r.kp, (std::vector<std::uint32_t>{1, 1, 1}));
}

TEST(ComparisonUnit, FullIntervalIsConstantOne) {
  const auto spec = make_spec(3, 0, 7);
  UnitBuildResult r;
  Netlist unit = build_unit_netlist(spec, {}, &r);
  expect_unit_correct(spec);
  EXPECT_EQ(r.equiv_gates, 0u);
  EXPECT_EQ(unit.node(r.output).type, GateType::Const1);
}

TEST(ComparisonUnit, ComplementedAddsInverter) {
  const auto spec = make_spec(3, 2, 5, /*complemented=*/true);
  UnitBuildResult r;
  Netlist unit = build_unit_netlist(spec, {}, &r);
  expect_unit_correct(spec);
  EXPECT_EQ(unit.node(r.output).type, GateType::Not);
}

TEST(ComparisonUnit, SingleLiteralOutputIsTheLeaf) {
  // f = x1 over 2 vars: L=10=2, U=11=3 -> the output IS input x1.
  const auto spec = make_spec(2, 2, 3);
  UnitBuildResult r;
  Netlist unit = build_unit_netlist(spec, {}, &r);
  expect_unit_correct(spec);
  EXPECT_EQ(r.output, unit.inputs()[0]);
  EXPECT_EQ(r.equiv_gates, 0u);
}

// Exhaustive sweep: every (n, L, U) pair for n in 1..5, plus both output
// polarities, must produce a correct unit with the paper's structural
// invariants (<= 2 paths per input, <= n levels per block chain).
struct UnitSweepParam {
  unsigned n;
  bool complemented;
};

class UnitSweep : public ::testing::TestWithParam<UnitSweepParam> {};

TEST_P(UnitSweep, AllBoundsCorrectAndSmall) {
  const auto [n, comp] = GetParam();
  const std::uint32_t max = (1u << n) - 1;
  for (std::uint32_t lower = 0; lower <= max; ++lower) {
    for (std::uint32_t upper = lower; upper <= max; ++upper) {
      const auto spec = make_spec(n, lower, upper, comp);
      UnitBuildResult r;
      Netlist unit = build_unit_netlist(spec, {}, &r);
      ASSERT_TRUE(unit.check().empty()) << unit.check();
      // Correctness.
      TruthTable expect = spec.to_truth_table();
      for (std::uint32_t m = 0; m <= max; ++m) {
        std::vector<std::uint64_t> pi(n);
        for (unsigned v = 0; v < n; ++v) {
          pi[v] = ((m >> (n - 1 - v)) & 1u) ? ~0ull : 0;
        }
        auto val = unit.simulate(pi);
        ASSERT_EQ((val[unit.outputs()[0]] & 1ull) != 0, expect.get(m))
            << "n=" << n << " L=" << lower << " U=" << upper << " m=" << m;
      }
      // Structural claims from Section 3.1.
      for (std::uint32_t kp : r.kp) EXPECT_LE(kp, 2u);
      auto pc = count_paths(unit);
      std::uint64_t expected_paths = 0;
      for (std::uint32_t kp : r.kp) expected_paths += kp;
      EXPECT_EQ(pc.total, expected_paths) << "kp bookkeeping must match N_p";
      // A comparison unit has at most 2(n-1) equivalent 2-input gates
      // (two chains of at most n-1 gates each).
      EXPECT_LE(r.equiv_gates, 2u * (n > 0 ? n - 1 : 0) + 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllN, UnitSweep,
    ::testing::Values(UnitSweepParam{1, false}, UnitSweepParam{2, false},
                      UnitSweepParam{3, false}, UnitSweepParam{4, false},
                      UnitSweepParam{5, false}, UnitSweepParam{3, true},
                      UnitSweepParam{4, true}),
    [](const ::testing::TestParamInfo<UnitSweepParam>& info) {
      return "n" + std::to_string(info.param.n) +
             (info.param.complemented ? "_comp" : "");
    });

TEST(ComparisonUnit, RandomPermutationsCorrect) {
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    const unsigned n = 2 + trial % 4;
    const std::uint32_t max = (1u << n) - 1;
    std::uint32_t lo = static_cast<std::uint32_t>(rng.below(max + 1));
    std::uint32_t hi = static_cast<std::uint32_t>(rng.below(max + 1));
    if (lo > hi) std::swap(lo, hi);
    auto p32 = rng.permutation(n);
    const auto spec =
        make_spec(n, lo, hi, rng.flip(), std::vector<unsigned>(p32.begin(), p32.end()));
    expect_unit_correct(spec);
  }
}

TEST(ComparisonUnit, UnitCostAgreesWithBuildForEveryUnit) {
  // The analytic cost against the built unit for every (n, L, U) with
  // n <= 8, both UnitOptions, both polarities, under a rotated variable
  // order so kp has to land on perm[j], not on position j.
  std::uint64_t checked = 0;
  for (unsigned n = 1; n <= 8; ++n) {
    std::vector<unsigned> perm(n);
    for (unsigned j = 0; j < n; ++j) perm[j] = (j + 1) % n;
    for (std::uint32_t lower = 0; lower < (1u << n); ++lower) {
      for (std::uint32_t upper = lower; upper < (1u << n); ++upper) {
        for (bool merge : {true, false}) {
          for (bool complemented : {false, true}) {
            const auto spec = make_spec(n, lower, upper, complemented, perm);
            const UnitOptions opt{.merge_gates = merge};
            UnitBuildResult r;
            (void)build_unit_netlist(spec, opt, &r);
            const UnitCost c = unit_cost(spec, opt);
            ASSERT_EQ(c.equiv_gates, r.equiv_gates)
                << "n=" << n << " L=" << lower << " U=" << upper
                << " merge=" << merge << " comp=" << complemented;
            ASSERT_EQ(c.kp, r.kp)
                << "n=" << n << " L=" << lower << " U=" << upper
                << " merge=" << merge << " comp=" << complemented;
            ASSERT_EQ(c.depth, r.depth)
                << "n=" << n << " L=" << lower << " U=" << upper
                << " merge=" << merge << " comp=" << complemented;
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 175780u);
}

TEST(ComparisonUnit, BuildIntoExistingNetlistLeavesRestIntact) {
  Netlist nl("host");
  NodeId a = nl.add_input("a");
  NodeId b = nl.add_input("b");
  NodeId c = nl.add_input("c");
  NodeId g = nl.add_gate(GateType::And, {a, b});
  nl.mark_output(g);
  const std::size_t before = nl.size();
  const auto spec = make_spec(3, 2, 5);
  auto r = build_comparison_unit(nl, spec, {a, b, c});
  nl.mark_output(r.output);
  EXPECT_GT(nl.size(), before);
  EXPECT_TRUE(nl.check().empty()) << nl.check();
  // Original output still computes AND(a, b).
  auto v = nl.simulate({0b0011ull, 0b0101ull, 0b0110ull});
  EXPECT_EQ(v[g] & 0xFull, 0b0001ull);
}

}  // namespace
}  // namespace compsyn
