#include <gtest/gtest.h>

#include "core/multi_unit.hpp"
#include "core/resynth.hpp"
#include "netlist/equivalence.hpp"
#include "paths/paths.hpp"
#include "util/rng.hpp"

namespace compsyn {
namespace {

void expect_multi_correct(const MultiUnitSpec& spec, const TruthTable& f) {
  EXPECT_EQ(spec.to_truth_table(), f);
  Netlist nl("mu");
  std::vector<NodeId> leaves;
  for (unsigned v = 0; v < f.num_vars(); ++v) leaves.push_back(nl.add_input());
  UnitBuildResult r = build_multi_unit(nl, spec, leaves);
  nl.mark_output(r.output);
  ASSERT_TRUE(nl.check().empty()) << nl.check();
  // The analytic cost matches the built structure for every spec built here.
  const UnitCost cost = multi_unit_cost(spec);
  EXPECT_EQ(cost.equiv_gates, r.equiv_gates) << f.to_bits();
  EXPECT_EQ(cost.kp, r.kp) << f.to_bits();
  EXPECT_EQ(cost.depth, r.depth) << f.to_bits();
  for (std::uint32_t m = 0; m < f.num_minterms(); ++m) {
    std::vector<std::uint64_t> pi(f.num_vars());
    for (unsigned v = 0; v < f.num_vars(); ++v) {
      pi[v] = ((m >> (f.num_vars() - 1 - v)) & 1u) ? ~0ull : 0;
    }
    ASSERT_EQ((nl.simulate(pi)[r.output] & 1ull) != 0, f.get(m))
        << f.to_bits() << " @ " << m;
  }
}

TEST(MultiUnit, Xor3NeedsThreeUnits) {
  TruthTable x3 = TruthTable::from_bits("01101001");
  auto spec = identify_multi_comparison(x3);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->parts.size(), 3u);  // symmetric: always 3 runs
  expect_multi_correct(*spec, x3);
}

TEST(MultiUnit, ComparisonFunctionIsOneUnit) {
  TruthTable f = TruthTable::from_function(
      4, [](std::uint32_t m) { return m >= 5 && m <= 10; });
  auto spec = identify_multi_comparison(f);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->parts.size(), 1u);
  expect_multi_correct(*spec, f);
}

TEST(MultiUnit, ComplementChosenWhenCheaper) {
  // f = ~(one interval): OFF-set is one run, ON-set is two.
  TruthTable f = TruthTable::from_function(
      3, [](std::uint32_t m) { return !(m >= 3 && m <= 5); });
  auto spec = identify_multi_comparison(f);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->parts.size(), 1u);
  expect_multi_correct(*spec, f);
}

TEST(MultiUnit, ConstantFunctions) {
  TruthTable one = TruthTable::from_function(3, [](std::uint32_t) { return true; });
  auto s1 = identify_multi_comparison(one);
  ASSERT_TRUE(s1.has_value());
  expect_multi_correct(*s1, one);
  TruthTable zero(3);
  auto s0 = identify_multi_comparison(zero);
  ASSERT_TRUE(s0.has_value());
  expect_multi_correct(*s0, zero);
}

TEST(MultiUnit, RandomFunctionsDecompose) {
  Rng rng(77);
  int found = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const unsigned n = 3 + trial % 2;
    TruthTable f = TruthTable::from_function(
        n, [&](std::uint32_t) { return rng.flip(); });
    MultiIdentifyOptions opt;
    opt.max_units = 8;  // every 3/4-var function has at most 8 ON runs
    auto spec = identify_multi_comparison(f, opt);
    if (!spec) continue;
    ++found;
    EXPECT_LE(spec->parts.size(), 8u);
    expect_multi_correct(*spec, f);
  }
  EXPECT_GE(found, 190) << "nearly all small functions must decompose";
}

TEST(MultiUnit, CostAccountingMatchesBuild) {
  TruthTable x3 = TruthTable::from_bits("01101001");
  auto spec = identify_multi_comparison(x3);
  ASSERT_TRUE(spec.has_value());
  const UnitCost cost = multi_unit_cost(*spec);
  Netlist nl("c");
  std::vector<NodeId> leaves;
  for (unsigned v = 0; v < 3; ++v) leaves.push_back(nl.add_input());
  UnitBuildResult r = build_multi_unit(nl, *spec, leaves);
  EXPECT_EQ(cost.equiv_gates, r.equiv_gates);
  EXPECT_EQ(cost.kp, r.kp);
  EXPECT_EQ(cost.depth, r.depth);
  // Path bookkeeping must match Procedure 1 on the built structure.
  nl.mark_output(r.output);
  std::uint64_t kp_sum = 0;
  for (auto k : r.kp) kp_sum += k;
  EXPECT_EQ(count_paths(nl).total, kp_sum);
}

TEST(MultiUnit, ResynthesisExtensionPreservesFunction) {
  // An XOR-heavy circuit: plain Procedure 2 cannot touch XOR3 cones, the
  // multi-unit extension can.
  Netlist nl("xh");
  std::vector<NodeId> x;
  for (int i = 0; i < 6; ++i) x.push_back(nl.add_input());
  NodeId a = nl.add_gate(GateType::Xor, {x[0], x[1], x[2]});
  NodeId b = nl.add_gate(GateType::Xor, {x[3], x[4], x[5]});
  NodeId c = nl.add_gate(GateType::And, {a, b});
  nl.mark_output(c);
  Netlist ref = nl.compacted();
  ResynthOptions opt;
  opt.objective = ResynthObjective::Paths;
  opt.max_units = 4;
  resynthesize(nl, opt);
  Rng rng(3);
  auto res = check_equivalent(nl, ref, rng);
  EXPECT_TRUE(res.equivalent) << res.message;
  EXPECT_TRUE(res.exhaustive);
}

}  // namespace
}  // namespace compsyn
