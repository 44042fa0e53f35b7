#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "atpg/redundancy.hpp"
#include "bench_io/bench_io.hpp"
#include "cone_oracle.hpp"
#include "core/resynth.hpp"
#include "gen/circuits.hpp"
#include "netlist/equivalence.hpp"
#include "paths/paths.hpp"
#include "robust/robust.hpp"
#include "util/rng.hpp"

namespace compsyn {
namespace {

/// Builds a naive two-level SOP for an interval function [lo, hi] over n
/// inputs: one AND per minterm, ORed together -- maximally wasteful, so the
/// procedures have something to find.
Netlist interval_sop(unsigned n, std::uint32_t lo, std::uint32_t hi) {
  Netlist nl("sop");
  std::vector<NodeId> x, xn;
  for (unsigned i = 0; i < n; ++i) x.push_back(nl.add_input("x" + std::to_string(i)));
  for (unsigned i = 0; i < n; ++i) xn.push_back(nl.add_gate(GateType::Not, {x[i]}));
  std::vector<NodeId> terms;
  for (std::uint32_t m = lo; m <= hi; ++m) {
    std::vector<NodeId> lits;
    for (unsigned i = 0; i < n; ++i) {
      lits.push_back(((m >> (n - 1 - i)) & 1u) ? x[i] : xn[i]);
    }
    terms.push_back(nl.add_gate(GateType::And, lits));
  }
  NodeId out = terms.size() == 1 ? terms[0] : nl.add_gate(GateType::Or, terms);
  nl.mark_output(out);
  return nl;
}

/// A deterministic random multilevel circuit for property tests.
Netlist random_circuit(Rng& rng, unsigned n_in, unsigned n_gates, unsigned n_out) {
  Netlist nl("rand");
  std::vector<NodeId> pool;
  for (unsigned i = 0; i < n_in; ++i) pool.push_back(nl.add_input());
  const GateType kinds[] = {GateType::And, GateType::Or,   GateType::Nand,
                            GateType::Nor, GateType::Not,  GateType::And,
                            GateType::Or,  GateType::Xor};
  for (unsigned i = 0; i < n_gates; ++i) {
    const GateType t = kinds[rng.below(8)];
    const unsigned arity = t == GateType::Not ? 1 : 2 + rng.below(2);
    std::vector<NodeId> fi;
    for (unsigned j = 0; j < arity; ++j) {
      fi.push_back(pool[rng.below(pool.size())]);
    }
    pool.push_back(nl.add_gate(t, fi));
  }
  for (unsigned i = 0; i < n_out; ++i) {
    nl.mark_output(pool[pool.size() - 1 - i]);
  }
  nl.sweep();
  return nl;
}

TEST(Resynth, SopOfIntervalCollapsesToUnit) {
  // Minterm-level SOP of [1,6] over 3 vars: 6 AND3 terms + one OR6 = 17
  // equivalent gates, 18 paths. The comparison unit needs 5 gates, 6 paths.
  // Reaching the full cone requires passing through intermediate cones
  // wider than K: the cut database finds it anyway, as the cut of the OR
  // whose leaves are the three variables.
  Netlist nl = interval_sop(3, 1, 6);
  Netlist ref = nl.compacted();
  const std::uint64_t gates_before = nl.equivalent_gate_count();
  EXPECT_EQ(gates_before, 17u);
  const std::uint64_t paths_before = count_paths(nl).total;
  ResynthOptions opt;
  opt.objective = ResynthObjective::Gates;
  opt.k = 5;
  ResynthStats st = resynthesize(nl, opt);
  EXPECT_GT(st.replacements, 0u);
  EXPECT_LT(nl.equivalent_gate_count(), gates_before);
  EXPECT_LT(count_paths(nl).total, paths_before);
  EXPECT_LE(nl.equivalent_gate_count(), 5u);
  Rng rng(1);
  auto res = check_equivalent(nl, ref, rng);
  EXPECT_TRUE(res.equivalent) << res.message;
  EXPECT_TRUE(res.exhaustive);
}

TEST(Resynth, Procedure2NeverIncreasesGatesOrChangesFunction) {
  Rng rng(1234);
  for (int trial = 0; trial < 15; ++trial) {
    Netlist nl = random_circuit(rng, 6 + trial % 4, 25 + trial * 3, 3);
    if (nl.outputs().empty()) continue;
    Netlist ref = nl.compacted();
    const std::uint64_t gates_before = nl.equivalent_gate_count();
    ResynthStats st = procedure2(nl, 5);
    EXPECT_LE(st.gates_after, gates_before) << "trial " << trial;
    EXPECT_EQ(st.gates_after, nl.equivalent_gate_count());
    Rng r2(trial);
    auto res = check_equivalent(nl, ref, r2);
    EXPECT_TRUE(res.equivalent) << "trial " << trial << ": " << res.message;
    EXPECT_TRUE(nl.check().empty()) << nl.check();
  }
}

TEST(Resynth, Procedure3NeverIncreasesPathsOrChangesFunction) {
  Rng rng(777);
  for (int trial = 0; trial < 15; ++trial) {
    Netlist nl = random_circuit(rng, 6 + trial % 4, 25 + trial * 3, 3);
    if (nl.outputs().empty()) continue;
    Netlist ref = nl.compacted();
    const std::uint64_t paths_before = count_paths(nl).total;
    ResynthStats st = procedure3(nl, 5);
    EXPECT_LE(st.paths_after, paths_before) << "trial " << trial;
    Rng r2(trial);
    auto res = check_equivalent(nl, ref, r2);
    EXPECT_TRUE(res.equivalent) << "trial " << trial << ": " << res.message;
  }
}

TEST(Resynth, StatsAreConsistent) {
  Netlist nl = interval_sop(4, 3, 12);
  const std::uint64_t g0 = nl.equivalent_gate_count();
  const std::uint64_t p0 = count_paths(nl).total;
  ResynthStats st = procedure2(nl, 6);
  EXPECT_EQ(st.gates_before, g0);
  EXPECT_EQ(st.paths_before, p0);
  EXPECT_EQ(st.gates_after, nl.equivalent_gate_count());
  EXPECT_EQ(st.paths_after, count_paths(nl).total);
  EXPECT_GE(st.passes, 1u);
  EXPECT_GE(st.cones_considered, st.comparison_cones);
}

TEST(Resynth, C17IsStable) {
  Netlist nl = read_bench_string(R"(
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
  Netlist ref = nl.compacted();
  ResynthStats st = procedure2(nl, 5);
  EXPECT_LE(st.gates_after, st.gates_before);
  EXPECT_LE(st.paths_after, st.paths_before);
  Rng rng(3);
  auto res = check_equivalent(nl, ref, rng);
  EXPECT_TRUE(res.equivalent) << res.message;
  EXPECT_TRUE(res.exhaustive);
}

TEST(Resynth, ConstantConeEliminated) {
  // g = AND(a, NOT(a), b): constant 0; Procedure 2 must fold it away.
  Netlist nl("const");
  NodeId a = nl.add_input();
  NodeId b = nl.add_input();
  NodeId na = nl.add_gate(GateType::Not, {a});
  NodeId g = nl.add_gate(GateType::And, {a, na, b});
  NodeId out = nl.add_gate(GateType::Or, {g, b});
  nl.mark_output(out);
  Netlist ref = nl.compacted();
  ResynthStats st = procedure2(nl, 5);
  (void)st;
  EXPECT_LE(nl.equivalent_gate_count(), 1u);
  Rng rng(4);
  EXPECT_TRUE(check_equivalent(nl, ref, rng).equivalent);
}

TEST(Resynth, RedundantLiteralDropsViaSupportReduction) {
  // g = (a AND b) OR (a AND NOT b) == a: support reduction inside the cone
  // should let the procedures simplify it to a wire.
  Netlist nl("vac");
  NodeId a = nl.add_input();
  NodeId b = nl.add_input();
  NodeId nb = nl.add_gate(GateType::Not, {b});
  NodeId t1 = nl.add_gate(GateType::And, {a, b});
  NodeId t2 = nl.add_gate(GateType::And, {a, nb});
  NodeId g = nl.add_gate(GateType::Or, {t1, t2});
  NodeId out = nl.add_gate(GateType::And, {g, b});
  nl.mark_output(out);
  Netlist ref = nl.compacted();
  procedure2(nl, 5);
  EXPECT_LE(nl.equivalent_gate_count(), 1u);  // just AND(a, b) remains
  Rng rng(5);
  auto res = check_equivalent(nl, ref, rng);
  EXPECT_TRUE(res.equivalent) << res.message;
}

TEST(Resynth, CombinedObjectiveTradesGatesForPaths) {
  // Weights (0, 1) are Procedure 3's primary criterion, and Section 4.3's
  // trade-off pays gates for paths: on syn150's irredundant start the
  // combined run reaches Procedure 3's path count only by adding gates
  // (without them it stops at 6,715 paths and 124 gates).
  Netlist base = make_benchmark("syn150");
  remove_redundancies(base);
  base = base.compacted();
  Netlist for3 = base;
  Netlist forC = base;
  const ResynthStats p3 = procedure3(for3, 6);
  ResynthOptions copt;
  copt.objective = ResynthObjective::Combined;
  copt.weight_gates = 0.0;
  copt.weight_paths = 1.0;
  const ResynthStats comb = resynthesize(forC, copt);
  EXPECT_EQ(comb.paths_after, p3.paths_after);
  EXPECT_GT(comb.gates_after, comb.gates_before);
  Rng rng(57);
  EXPECT_TRUE(check_equivalent(forC, base, rng).equivalent);
}

TEST(Resynth, CombinedObjectiveBetweenExtremes) {
  Rng rng(55);
  Netlist base = random_circuit(rng, 8, 60, 4);
  Netlist for2 = base.compacted();
  Netlist for3 = base.compacted();
  Netlist forC = base.compacted();
  procedure2(for2, 5);
  procedure3(for3, 5);
  ResynthOptions copt;
  copt.objective = ResynthObjective::Combined;
  copt.k = 5;
  resynthesize(forC, copt);
  // The combined run must preserve the function...
  Rng r2(56);
  EXPECT_TRUE(check_equivalent(forC, base, r2).equivalent);
  // ... and improve (or hold) the combined measure it optimizes. Individual
  // metrics may trade off, but their weighted sum cannot get worse.
  const double before = static_cast<double>(base.equivalent_gate_count()) +
                        static_cast<double>(count_paths(base).total);
  const double after = static_cast<double>(forC.equivalent_gate_count()) +
                       static_cast<double>(count_paths(forC).total);
  EXPECT_LE(after, before);
}

TEST(Resynth, SampledIdentificationAlsoWorks) {
  Rng rng(66);
  Netlist nl = interval_sop(4, 5, 10);
  Netlist ref = nl.compacted();
  ResynthOptions opt;
  opt.objective = ResynthObjective::Gates;
  opt.k = 5;
  opt.identify.exact = false;
  opt.identify.sample_tries = 200;
  opt.identify.rng = &rng;
  ResynthStats st = resynthesize(nl, opt);
  EXPECT_LE(st.gates_after, st.gates_before);
  Rng r2(67);
  EXPECT_TRUE(check_equivalent(nl, ref, r2).equivalent);
}

TEST(Resynth, RespectsMaxPasses) {
  Netlist nl = interval_sop(4, 1, 14);
  ResynthOptions opt;
  opt.max_passes = 1;
  ResynthStats st = resynthesize(nl, opt);
  EXPECT_EQ(st.passes, 1u);
}

TEST(Resynth, PreservesPrimaryOutputCount) {
  Rng rng(88);
  Netlist nl = random_circuit(rng, 8, 40, 5);
  const std::size_t n_out = nl.outputs().size();
  const std::size_t n_in = nl.inputs().size();
  procedure2(nl, 5);
  EXPECT_EQ(nl.outputs().size(), n_out);
  EXPECT_EQ(nl.inputs().size(), n_in);
}

// Pinned resynthesis digests. Each candidate of a root is folded into the
// best one in a fixed order: cones in the canonical order (interior size,
// then leaf list), and per cone the base specs, then the don't-care specs,
// then the multi-unit rewrite; a fold replaces only on "strictly better", so
// ties go to the earliest candidate, and sampled identification draws from
// one Rng in that same order. The digests below pin the netlists and stats
// of runs that depend on that order; each one changes when the cones are
// folded in reverse or the don't-care specs are folded before the base
// specs. The syn150 digests were re-recorded when the cut database replaced
// the top-down grower (its complete cone set and canonical order moved
// them); the alu4 and cmp8 runs did not move.
enum class PinnedMode {
  Sampled,   // sampled identification and don't-cares share one Rng
  SdcTable,  // don't-cares from the exhaustive ReachabilityTable
  SdcSat,    // don't-cares from the SatReachability oracle
};

struct PinnedRun {
  const char* circuit;
  unsigned k;
  PinnedMode mode;
  std::uint64_t digest;
};

std::uint64_t resynth_digest(const PinnedRun& run) {
  Netlist nl = make_benchmark(run.circuit);
  Rng rng(0x5A3D);
  ResynthOptions opt;
  opt.k = run.k;
  opt.max_units = 3;
  opt.use_sdc = true;
  switch (run.mode) {
    case PinnedMode::Sampled:
      opt.identify.exact = false;
      opt.identify.sample_tries = 24;
      opt.identify.rng = &rng;
      break;
    case PinnedMode::SdcTable:
      opt.sdc_max_inputs = 16;
      break;
    case PinnedMode::SdcSat:
      opt.sdc_max_inputs = 0;
      break;
  }
  const ResynthStats st = resynthesize(nl, opt);
  std::ostringstream os;
  os << "passes=" << st.passes << " repl=" << st.replacements
     << " cones=" << st.cones_considered << " cmp=" << st.comparison_cones
     << " gates=" << st.gates_after << " paths=" << st.paths_after << "\n"
     << write_bench_string(nl.compacted());
  return robust::fnv1a64(os.str());
}

TEST(Resynth, PinnedFoldOrderDigests) {
  const PinnedRun runs[] = {
      {"syn150", 4, PinnedMode::Sampled, 15497222256496025548ull},
      {"alu4", 5, PinnedMode::SdcTable, 6825761207543630088ull},
      {"cmp8", 6, PinnedMode::SdcTable, 12470321009898319817ull},
      {"alu4", 5, PinnedMode::SdcSat, 6825761207543630088ull},
      {"syn150", 4, PinnedMode::SdcSat, 17920139841863610691ull},
  };
  for (const PinnedRun& r : runs) {
    EXPECT_EQ(resynth_digest(r), r.digest)
        << r.circuit << " k=" << r.k << " mode " << static_cast<int>(r.mode);
  }
}

// One cut database per pass is exact: roots are visited in reverse
// topological order, and a commit at g only redefines g, kills nodes that
// reached the outputs through g alone and adds unit gates feeding g, none of
// which is in the fanin cone of a root visited later. This replays a pass
// with the same commit mechanics as run_pass -- a comparison unit or a
// constant in place of a cone, then a sweep -- committing wherever it can,
// and checks every root visited after a commit: the pass-start database
// must still list exactly the top-down oracle's cones of the live netlist.
/// Returns the roots checked after a commit.
std::size_t expect_pass_start_database_exact(Netlist nl, unsigned k,
                                             const std::string& what) {
  const Netlist ref = nl.compacted();
  const CutDatabase db(nl, k);
  const std::vector<NodeId> order = nl.topo_order();
  std::size_t commits = 0, checked_after_commit = 0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId g = *it;
    if (nl.is_dead(g) || !oracle::is_gate(nl, g)) continue;
    const std::vector<Cone> got = oracle::database_cones(nl, db, g);
    if (commits > 0) {
      const std::vector<Cone> want = oracle::grow_cones(nl, g, k);
      EXPECT_EQ(got.size(), want.size()) << what << " root " << g;
      if (got.size() != want.size()) return checked_after_commit;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].leaves, want[i].leaves) << what << " root " << g;
        EXPECT_EQ(got[i].interior, want[i].interior) << what << " root " << g;
      }
      ++checked_after_commit;
    }
    // Commit the widest cone that is a constant or a comparison function.
    for (auto c = got.rbegin(); c != got.rend(); ++c) {
      if (c->interior.size() < 2) break;
      std::vector<unsigned> kept;
      const TruthTable f = cone_function(nl, *c).support_reduced(&kept);
      if (f.num_vars() == 0) {
        nl.redefine(g, f.get(0) ? GateType::Const1 : GateType::Const0, {});
      } else {
        const auto& specs = identify_comparison(f);
        if (specs.empty()) continue;
        std::vector<NodeId> leaves;
        for (unsigned v : kept) leaves.push_back(c->leaves[v]);
        const UnitBuildResult unit = build_comparison_unit(nl, specs[0], leaves);
        nl.redefine(g, GateType::Buf, {unit.output});
      }
      nl.sweep();
      ++commits;
      break;
    }
  }
  EXPECT_GT(commits, 0u) << what;
  Rng rng(3);
  EXPECT_TRUE(check_equivalent(ref, nl, rng).equivalent) << what;
  return checked_after_commit;
}

TEST(Resynth, PassStartCutDatabaseStaysExactAfterCommits) {
  EXPECT_GT(expect_pass_start_database_exact(make_benchmark("syn150"), 6, "syn150"), 50u);
  EXPECT_GT(expect_pass_start_database_exact(make_benchmark("syn150"), 4, "syn150"), 50u);
  expect_pass_start_database_exact(make_comparator(4), 5, "cmp4");
  Rng rng(77);
  std::size_t checked = 0;
  for (int trial = 0; trial < 20; ++trial) {
    checked += expect_pass_start_database_exact(random_circuit(rng, 6, 40, 3), 5,
                                                "random " + std::to_string(trial));
  }
  EXPECT_GT(checked, 40u);
}

}  // namespace
}  // namespace compsyn
