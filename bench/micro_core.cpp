// google-benchmark microbenchmarks for the core kernels (not a paper table;
// useful for tracking the cost of the building blocks).
#include <benchmark/benchmark.h>

#include <bit>

#include "atpg/podem.hpp"
#include "core/comparison.hpp"
#include "core/comparison_unit.hpp"
#include "core/cones.hpp"
#include "core/resynth.hpp"
#include "core/sdc.hpp"
#include "core/signature.hpp"
#include "faults/fault_sim.hpp"
#include "gen/circuits.hpp"
#include "netlist/equivalence.hpp"
#include "paths/paths.hpp"
#include "util/rng.hpp"

namespace compsyn {
namespace {

void BM_CountPaths(benchmark::State& state) {
  Netlist nl = make_benchmark("syn600");
  for (auto _ : state) {
    benchmark::DoNotOptimize(count_paths(nl).total);
  }
}
BENCHMARK(BM_CountPaths);

void BM_Simulate64Patterns(benchmark::State& state) {
  Netlist nl = make_benchmark("syn600");
  Rng rng(1);
  std::vector<std::uint64_t> pi(nl.inputs().size());
  std::vector<std::uint64_t> values;
  for (auto _ : state) {
    for (auto& w : pi) w = rng.next();
    nl.simulate_into(pi, values);
    benchmark::DoNotOptimize(values.data());
  }
}
BENCHMARK(BM_Simulate64Patterns);

// The exhaustive equivalence check of a 16-input circuit against itself:
// 1,024 words of 64 patterns per netlist, which Netlist::simulate_words
// evaluates in 64 sweeps of kSimBlockWords words each.
void BM_SimulateExhaustive16(benchmark::State& state) {
  const Netlist nl = make_benchmark("mult8");
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_equivalent(nl, nl, rng).equivalent);
  }
}
BENCHMARK(BM_SimulateExhaustive16)->Unit(benchmark::kMillisecond);

// The exact satisfiability-don't-care sweep at resynthesis' default
// sdc_max_inputs: all 2^14 patterns of a 14-input synthetic circuit, 256
// pattern words per node.
void BM_ReachabilityTable(benchmark::State& state) {
  SyntheticOptions opt;
  opt.inputs = 14;
  opt.gates = 300;
  const Netlist nl = make_synthetic(opt);
  for (auto _ : state) {
    const ReachabilityTable table(nl, 14);
    benchmark::DoNotOptimize(table.tracked_nodes());
  }
}
BENCHMARK(BM_ReachabilityTable)->Unit(benchmark::kMicrosecond);

// Legacy-strategy PODEM on every collapsed fault of syn150 at the default
// backtrack limit (one iteration covers all faults).
void BM_PodemAllFaults(benchmark::State& state) {
  const Netlist nl = make_benchmark("syn150");
  const auto faults = enumerate_faults(nl, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_podem_all(nl, faults).detected);
  }
  state.counters["faults"] = static_cast<double>(faults.size());
}
BENCHMARK(BM_PodemAllFaults)->Unit(benchmark::kMillisecond);

void BM_IdentifyComparisonExact(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  Rng rng(42);
  std::vector<TruthTable> tables;
  for (int i = 0; i < 64; ++i) {
    tables.push_back(
        TruthTable::from_function(n, [&](std::uint32_t) { return rng.flip(); }));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(identify_comparison(tables[i++ & 63]));
  }
}
BENCHMARK(BM_IdentifyComparisonExact)->Arg(4)->Arg(5)->Arg(6);

void BM_IdentifyComparisonSampled(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  Rng rng(42);
  std::vector<TruthTable> tables;
  for (int i = 0; i < 64; ++i) {
    tables.push_back(
        TruthTable::from_function(n, [&](std::uint32_t) { return rng.flip(); }));
  }
  Rng prng(7);
  IdentifyOptions opt;
  opt.exact = false;
  opt.sample_tries = 200;
  opt.rng = &prng;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(identify_comparison(tables[i++ & 63], opt));
  }
}
BENCHMARK(BM_IdentifyComparisonSampled)->Arg(4)->Arg(5)->Arg(6);

/// 64 six-variable tables of one family: 0 = random, 1 = comparison
/// functions (a random interval under a random order), 2 = totally
/// symmetric thresholds (at least t of 6 inputs, t = 1..6).
std::vector<TruthTable> six_var_family(int family) {
  constexpr unsigned n = 6;
  Rng rng(0x5E7u + static_cast<std::uint64_t>(family));
  std::vector<TruthTable> tables;
  for (int i = 0; i < 64; ++i) {
    if (family == 0) {
      const std::uint64_t w = rng.next();
      tables.push_back(TruthTable::from_function(
          n, [&](std::uint32_t m) { return (w >> m) & 1u; }));
    } else if (family == 1) {
      std::uint32_t lo = static_cast<std::uint32_t>(rng.below(64));
      std::uint32_t hi = static_cast<std::uint32_t>(rng.below(64));
      if (lo > hi) std::swap(lo, hi);
      const auto p32 = rng.permutation(n);
      ComparisonSpec spec;
      spec.n = n;
      spec.perm.assign(p32.begin(), p32.end());
      spec.lower = lo;
      spec.upper = hi;
      tables.push_back(spec.to_truth_table());
    } else {
      const unsigned t = 1 + static_cast<unsigned>(i) % n;
      tables.push_back(TruthTable::from_function(n, [&](std::uint32_t m) {
        return static_cast<unsigned>(std::popcount(m)) >= t;
      }));
    }
  }
  return tables;
}

// One orbit-memo key: canonicalization under the memo's group.
void BM_NpnCanonicalize(benchmark::State& state) {
  const std::vector<TruthTable> tables = six_var_family(static_cast<int>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        npn_canonicalize(tables[i++ & 63], NpnGroup::kPermOutputReflect));
  }
}
BENCHMARK(BM_NpnCanonicalize)
    ->ArgName("family")  // 0 random, 1 comparison, 2 symmetric threshold
    ->Arg(0)
    ->Arg(1)
    ->Arg(2);

// A tier-1 memo hit on a comparison function (the warm-up call plants it),
// probed by word with its unit costs, as a resynthesis pass probes it.
void BM_IdentifyMemoHit(benchmark::State& state) {
  const std::vector<TruthTable> tables = six_var_family(1);
  std::size_t specs = 0;
  for (const TruthTable& t : tables) specs += identify_scored(t, {}, {}).specs.size();
  std::size_t i = 0;
  for (auto _ : state) {
    const TruthTable& t = tables[i++ & 63];
    benchmark::DoNotOptimize(identify_scored(6, t.word(0), {}, {}).costs.data());
  }
  state.counters["specs_per_query"] = static_cast<double>(specs) / 64.0;
}
BENCHMARK(BM_IdentifyMemoHit);

void BM_BuildComparisonUnit(benchmark::State& state) {
  ComparisonSpec spec;
  spec.n = 6;
  spec.perm = {0, 1, 2, 3, 4, 5};
  spec.lower = 11;
  spec.upper = 52;
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_unit_netlist(spec));
  }
}
BENCHMARK(BM_BuildComparisonUnit);

// The same spec costed analytically, as Procedures 2/3 score it.
void BM_UnitCost(benchmark::State& state) {
  ComparisonSpec spec;
  spec.n = 6;
  spec.perm = {0, 1, 2, 3, 4, 5};
  spec.lower = 11;
  spec.upper = 52;
  for (auto _ : state) {
    benchmark::DoNotOptimize(unit_cost(spec));
  }
}
BENCHMARK(BM_UnitCost);

// Cone enumeration at every live gate of syn300, K = 6, as a resynthesis
// pass does it: one cut database, then each root's cones listed in the
// canonical order (one iteration covers all roots).
void BM_EnumerateCones(benchmark::State& state) {
  const Netlist nl = make_benchmark("syn300");
  std::vector<NodeId> roots;
  for (NodeId n : nl.topo_order()) {
    const GateType t = nl.node(n).type;
    if (t != GateType::Input && t != GateType::Const0 && t != GateType::Const1) {
      roots.push_back(n);
    }
  }
  RootCones rc;
  std::size_t cones = 0;
  for (auto _ : state) {
    const CutDatabase db(nl, 6);
    for (NodeId r : roots) {
      rc.collect(nl, db, r);
      cones += rc.size();
    }
  }
  state.counters["cones"] =
      benchmark::Counter(static_cast<double>(cones), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_EnumerateCones)->Unit(benchmark::kMillisecond);

// Every cone of one syn300 pass at K = 6 scored as a resynthesis pass
// scores it (one iteration covers all roots): each root's cones listed from
// one cut database, each cut's function word support-reduced, a scored
// tier-1 probe, and every spec's gates and paths from its unit cost. The
// first iteration fills the memo; later ones only hit it.
void BM_ScoreCones(benchmark::State& state) {
  const Netlist nl = make_benchmark("syn300");
  const std::vector<std::uint64_t> np = count_paths_clamped(nl).np;
  const CutDatabase db(nl, 6);
  std::vector<NodeId> roots;
  for (NodeId n : nl.topo_order()) {
    const GateType t = nl.node(n).type;
    if (t != GateType::Input && t != GateType::Const0 && t != GateType::Const1) {
      roots.push_back(n);
    }
  }
  RootCones rc;
  std::vector<NodeId> removable;
  std::size_t cones = 0, specs = 0;
  for (auto _ : state) {
    std::int64_t score = 0;
    for (NodeId r : roots) {
      rc.collect(nl, db, r);
      cones += rc.size();
      for (std::size_t i = 0; i < rc.size(); ++i) {
        const Cut& cut = *rc[i].cut;
        std::uint64_t word = 0;
        unsigned kept[CutDatabase::kFunctionLeaves];
        const unsigned n = support_reduced_word(cut.num_leaves, cut.function, &word, kept);
        if (n == 0) continue;
        const ScoredSpecs scored = identify_scored(n, word, {}, {});
        if (scored.specs.empty()) continue;
        const auto freed = static_cast<std::int64_t>(
            removable_gate_count(nl, r, rc[i].interior, &removable));
        for (const UnitCost& cost : scored.costs) {
          std::uint64_t paths = 0;
          for (unsigned v = 0; v < n; ++v) paths += np[rc[i].leaves[kept[v]]] * cost.kp[v];
          score += freed - static_cast<std::int64_t>(cost.equiv_gates) +
                   static_cast<std::int64_t>(np[r] - paths);
          ++specs;
        }
      }
    }
    benchmark::DoNotOptimize(score);
  }
  state.counters["cones"] =
      benchmark::Counter(static_cast<double>(cones), benchmark::Counter::kAvgIterations);
  state.counters["specs"] =
      benchmark::Counter(static_cast<double>(specs), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ScoreCones)->Unit(benchmark::kMillisecond);

// One 64-pattern block per iteration on a simulator that lives across
// iterations: after its first few blocks nearly every fault is dropped, so
// this measures a drained simulator -- the fault-free pass plus the handful
// of hard faults left, i.e. the tail blocks of a random-pattern run.
void BM_FaultSimBlock(benchmark::State& state) {
  Netlist nl = make_benchmark("syn300");
  FaultSimulator sim(nl, enumerate_faults(nl, true));
  Rng rng(3);
  std::vector<std::uint64_t> pi(nl.inputs().size());
  std::uint64_t base = 0;
  for (auto _ : state) {
    for (auto& w : pi) w = rng.next();
    benchmark::DoNotOptimize(sim.simulate_block(pi, base));
    base += 64;
  }
}
BENCHMARK(BM_FaultSimBlock);

// A fresh simulator per iteration (construction included) and its first
// block, so every collapsed fault of syn300 is live: the block that
// dominates the redundancy-removal filter.
void BM_FaultSimFirstBlock(benchmark::State& state) {
  const Netlist nl = make_benchmark("syn300");
  const std::vector<StuckFault> faults = enumerate_faults(nl, true);
  Rng rng(3);
  std::vector<std::uint64_t> pi(nl.inputs().size());
  for (auto& w : pi) w = rng.next();
  for (auto _ : state) {
    FaultSimulator sim(nl, faults);
    benchmark::DoNotOptimize(sim.simulate_block(pi, 0));
  }
}
BENCHMARK(BM_FaultSimFirstBlock)->Unit(benchmark::kMicrosecond);

// Collapsed fault-list construction for syn300: one call per
// redundancy-removal round.
void BM_EnumerateFaults(benchmark::State& state) {
  const Netlist nl = make_benchmark("syn300");
  nl.fanouts();
  for (auto _ : state) {
    benchmark::DoNotOptimize(enumerate_faults(nl, true));
  }
}
BENCHMARK(BM_EnumerateFaults)->Unit(benchmark::kMicrosecond);

void BM_Procedure2(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Netlist nl = make_benchmark("syn150");
    state.ResumeTiming();
    benchmark::DoNotOptimize(procedure2(nl, 5));
  }
}
BENCHMARK(BM_Procedure2)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace compsyn

BENCHMARK_MAIN();
