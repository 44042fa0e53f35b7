// SAT fault proving (SatSession::prove_fault) against the PODEM ground
// truth, plus redundancy removal's completion step: SAT decides every fault
// PODEM aborts.
#include <gtest/gtest.h>

#include <vector>

#include "atpg/podem.hpp"
#include "atpg/redundancy.hpp"
#include "bench_io/bench_io.hpp"
#include "faults/fault.hpp"
#include "faults/fault_sim.hpp"
#include "gen/circuits.hpp"
#include "netlist/equivalence.hpp"
#include "sat/satpg.hpp"
#include "sat/session.hpp"
#include "util/rng.hpp"

namespace compsyn {
namespace {

/// Confirms the returned PI assignment actually detects the fault.
void expect_detects(const Netlist& nl, const StuckFault& f,
                    const std::vector<bool>& test) {
  ASSERT_EQ(test.size(), nl.inputs().size());
  FaultSimulator sim(nl, {f});
  std::vector<std::uint64_t> pi(nl.inputs().size());
  for (std::size_t i = 0; i < pi.size(); ++i) pi[i] = test[i] ? ~0ull : 0ull;
  sim.simulate_block(pi, 0);
  EXPECT_TRUE(sim.is_detected(0)) << to_string(nl, f);
}

/// One SAT-ATPG query through a session over `nl`.
SatFaultResult prove_fault(const Netlist& nl, const StuckFault& f,
                           const SolverBudget& budget = {kDefaultFaultConflicts,
                                                         0}) {
  SatSession session;
  return session.prove_fault(session.add_circuit(nl), f, budget);
}

/// Every collapsed fault: unlimited-backtrack PODEM is the ground truth; the
/// SAT engine must agree exactly, and every SAT test must really detect.
void check_agreement(const Netlist& nl) {
  AtpgOptions complete;
  complete.backtrack_limit = 0;  // complete search, no Aborted
  for (const StuckFault& f : enumerate_faults(nl)) {
    const AtpgResult podem = run_podem(nl, f, complete);
    ASSERT_NE(podem.status, AtpgStatus::Aborted) << nl.name();
    const SatFaultResult sat = prove_fault(nl, f);
    ASSERT_NE(sat.status, SatFaultStatus::Unknown)
        << nl.name() << " " << to_string(nl, f);
    if (podem.status == AtpgStatus::Detected) {
      EXPECT_EQ(sat.status, SatFaultStatus::Testable)
          << nl.name() << " " << to_string(nl, f);
      expect_detects(nl, f, sat.test);
    } else {
      EXPECT_EQ(sat.status, SatFaultStatus::Untestable)
          << nl.name() << " " << to_string(nl, f);
    }
  }
}

TEST(SatAtpg, AgreesWithPodemOnC17) { check_agreement(make_c17()); }
TEST(SatAtpg, AgreesWithPodemOnS27) { check_agreement(make_s27()); }
TEST(SatAtpg, AgreesWithPodemOnParityTree) { check_agreement(make_parity_tree(6)); }
TEST(SatAtpg, AgreesWithPodemOnAluSlice) { check_agreement(make_alu_slice(2)); }

TEST(SatAtpg, AgreesWithPodemOnRedundantSynthetic) {
  // Synthetic circuits with redundant consensus terms: the interesting case,
  // because Untestable verdicts must be genuine redundancy proofs.
  SyntheticOptions opt;
  opt.inputs = 9;
  opt.outputs = 4;
  opt.gates = 80;
  opt.redundant_term_chance = 0.8;
  for (std::uint64_t seed : {3ull, 11ull}) {
    opt.seed = seed;
    check_agreement(make_synthetic(opt));
  }
}

TEST(SatAtpg, ProvesClassicRedundancy) {
  // y = a | (a & b): the AND output stuck-at-0 leaves y = a, unchanged.
  Netlist nl("red");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(GateType::And, {a, b});
  const NodeId y = nl.add_gate(GateType::Or, {a, g});
  nl.mark_output(y);
  const SatFaultResult res = prove_fault(nl, StuckFault{g, -1, false});
  EXPECT_EQ(res.status, SatFaultStatus::Untestable);
  // ...while stuck-at-1 on the same line is testable (a=0, b arbitrary).
  const SatFaultResult sa1 = prove_fault(nl, StuckFault{g, -1, true});
  ASSERT_EQ(sa1.status, SatFaultStatus::Testable);
  expect_detects(nl, StuckFault{g, -1, true}, sa1.test);
}

TEST(SatAtpg, BranchFaultIsDistinctFromStem) {
  // Classic branch-vs-stem: s = a&b fans out to y1 = s|c and y2 = s&c. A
  // stuck value on ONE branch must leave the other connection healthy.
  Netlist nl("branch");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c = nl.add_input("c");
  const NodeId s = nl.add_gate(GateType::And, {a, b});
  const NodeId y1 = nl.add_gate(GateType::Or, {s, c});
  const NodeId y2 = nl.add_gate(GateType::And, {s, c});
  nl.mark_output(y1);
  nl.mark_output(y2);
  for (const StuckFault f :
       {StuckFault{y1, 0, false}, StuckFault{y1, 0, true},
        StuckFault{y2, 0, false}, StuckFault{y2, 0, true},
        StuckFault{s, -1, false}, StuckFault{s, -1, true}}) {
    const AtpgResult podem = run_podem(nl, f, {/*backtrack_limit=*/0});
    const SatFaultResult sat = prove_fault(nl, f);
    ASSERT_NE(sat.status, SatFaultStatus::Unknown);
    EXPECT_EQ(sat.status == SatFaultStatus::Testable,
              podem.status == AtpgStatus::Detected)
        << to_string(nl, f);
    if (sat.status == SatFaultStatus::Testable) expect_detects(nl, f, sat.test);
  }
}

TEST(SatAtpg, TinyBudgetYieldsUnknown) {
  // One propagation is never enough to decide a fault that needs a decision.
  const Netlist nl = make_c17();
  const std::vector<StuckFault> faults = enumerate_faults(nl);
  ASSERT_FALSE(faults.empty());
  const SolverBudget starved{/*max_conflicts=*/0, /*max_propagations=*/1};
  EXPECT_EQ(prove_fault(nl, faults.front(), starved).status,
            SatFaultStatus::Unknown);
}

TEST(SatAtpg, RedundancyFallbackResolvesAbortedFaults) {
  // A backtrack limit of 1 forces PODEM to abort left and right; the SAT
  // fallback must re-decide every aborted fault (its default budget is far
  // beyond what these circuits need), so nothing stays unresolved and the
  // result is still an exact functional match.
  SyntheticOptions opt;
  opt.inputs = 9;
  opt.outputs = 4;
  opt.gates = 80;
  opt.redundant_term_chance = 0.8;
  opt.seed = 3;
  Netlist nl = make_synthetic(opt);
  const Netlist golden = nl;

  RedundancyRemovalOptions ropt;
  ropt.atpg.backtrack_limit = 1;
  ropt.random_filter_blocks = 0;  // no pre-filter: maximise PODEM pressure
  const RedundancyRemovalStats stats = remove_redundancies(nl, ropt);

  EXPECT_GT(stats.aborted, 0u);  // the limit really forced aborts
  EXPECT_EQ(stats.sat_proved_untestable + stats.sat_found_tests, stats.aborted);
  EXPECT_EQ(stats.sat_unknown, 0u);
  EXPECT_EQ(stats.aborted_unresolved, 0u);
  EXPECT_TRUE(stats.irredundant);

  Rng rng(5);
  const EquivalenceResult eq = check_equivalent(golden, nl, rng);
  EXPECT_TRUE(eq.equivalent);
  EXPECT_TRUE(eq.proven);  // 9 inputs: exhaustive
}

TEST(SatAtpg, DefaultRemovalDecidesFaultsPodemAbortsAt5000) {
  // syn150 holds redundant faults that PODEM does not settle within 5,000
  // backtracks, the test-generation default. Under the redundancy-removal
  // defaults SAT decides every such fault: nothing is left undecided, the
  // result is proven irredundant, and it is the same netlist the 5,000
  // budget reaches (PODEM and SAT verdicts are exact).
  const Netlist base = make_benchmark("syn150");
  Netlist deep = base;
  RedundancyRemovalOptions deep_opt;
  deep_opt.atpg.backtrack_limit = 5000;
  const RedundancyRemovalStats deep_stats = remove_redundancies(deep, deep_opt);
  EXPECT_GT(deep_stats.aborted, 0u);

  Netlist nl = base;
  const RedundancyRemovalStats stats = remove_redundancies(nl);
  EXPECT_GE(stats.aborted, deep_stats.aborted);
  EXPECT_EQ(stats.sat_unknown, 0u);
  EXPECT_EQ(stats.aborted_unresolved, 0u);
  EXPECT_TRUE(stats.irredundant);
  EXPECT_EQ(stats.removed, deep_stats.removed);
  EXPECT_EQ(write_bench_string(nl), write_bench_string(deep));
  EXPECT_TRUE(is_irredundant(nl));
}

TEST(SatAtpg, IsIrredundantSurvivesPodemAborts) {
  // c17 is irredundant; with a 1-backtrack budget PODEM aborts on some
  // faults, and the SAT re-decision must keep the verdict true.
  EXPECT_TRUE(is_irredundant(make_c17(), {/*backtrack_limit=*/1}));
}

}  // namespace
}  // namespace compsyn
