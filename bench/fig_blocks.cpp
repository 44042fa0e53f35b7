// Figures 1-6: constructs every comparison block / comparison unit the paper
// draws, prints its gate-level structure, and verifies the implemented
// function exhaustively against the interval definition.
//
// Flags: --report=<file>.json   --trace
#include <iostream>
#include <numeric>

#include "bench/common.hpp"
#include "bench_io/bench_io.hpp"
#include "core/comparison_unit.hpp"
#include "paths/paths.hpp"

using namespace compsyn;
using namespace compsyn::bench;

namespace {

ComparisonSpec spec4(std::uint32_t lower, std::uint32_t upper) {
  ComparisonSpec s;
  s.n = 4;
  s.perm = {0, 1, 2, 3};
  s.lower = lower;
  s.upper = upper;
  return s;
}

void show(BenchRun& run, const char* title, const ComparisonSpec& spec) {
  UnitBuildResult r;
  Netlist unit = build_unit_netlist(spec, {}, &r);
  const TruthTable want = spec.to_truth_table();
  bool ok = true;
  for (std::uint32_t m = 0; m < (1u << spec.n); ++m) {
    std::vector<std::uint64_t> pi(spec.n);
    for (unsigned v = 0; v < spec.n; ++v) {
      pi[v] = ((m >> (spec.n - 1 - v)) & 1u) ? ~0ull : 0;
    }
    ok &= ((unit.simulate(pi)[unit.outputs()[0]] & 1ull) != 0) == want.get(m);
  }
  std::cout << "== " << title << " ==\n";
  std::cout << write_bench_string(unit);
  const auto pc = count_paths_clamped(unit);
  std::cout << "equivalent 2-input gates: " << r.equiv_gates
            << "   paths: " << pc.total << "   depth: " << r.depth
            << "   exhaustive check: " << (ok ? "PASS" : "FAIL") << "\n";
  std::cout << "paths per input:";
  for (unsigned v = 0; v < spec.n; ++v) std::cout << " x" << v + 1 << "=" << r.kp[v];
  std::cout << "\n\n";
  Json rec = Json::object();
  rec.set("figure", title);
  rec.set("lower", static_cast<std::uint64_t>(spec.lower));
  rec.set("upper", static_cast<std::uint64_t>(spec.upper));
  rec.set("gates", static_cast<std::uint64_t>(r.equiv_gates));
  rec.set("paths", pc.total);
  rec.set("depth", static_cast<std::uint64_t>(r.depth));
  rec.set("exhaustive_check", ok);
  run.report().add_record("figures", std::move(rec));
  if (!ok) std::exit(1);
}

}  // namespace

namespace {

int run_main(int argc, char** argv) {
  Cli cli(argc, argv);
  BenchRun run("fig_blocks", cli);
  std::cout << "Comparison blocks and units from Figures 1-6 "
               "(Pomeranz/Reddy DAC'95)\n\n";
  // Figure 1 / Section 3.1 example: L=5, U=10 over 4 inputs.
  show(run, "Figure 1: comparison unit, L=5, U=10", spec4(5, 10));
  // Figure 3(a): >=3 block (U = 15 makes the <=U block trivial).
  show(run, "Figure 3(a): >=3 block", spec4(3, 15));
  // Figure 3(b): >=12 block; trailing zeros drop x3, x4.
  show(run, "Figure 3(b): >=12 block", spec4(12, 15));
  // Figure 3(c): <=12 block (L = 0 makes the >=L block trivial).
  show(run, "Figure 3(c): <=12 block", spec4(0, 12));
  // Figure 3(d): <=3 block; trailing ones drop x3, x4.
  show(run, "Figure 3(d): <=3 block", spec4(0, 3));
  // Figure 4: >=7 unit with merged same-type chain gates.
  show(run, "Figure 4: >=7 unit (AND3 merge)", spec4(7, 15));
  // Figure 5/6: free-variable unit L=11, U=12 (x1 free, L_F=3, U_F=4).
  show(run, "Figure 6: free-variable unit, L=11, U=12", spec4(11, 12));
  std::cout << "All figures verified.\n";
  return run.finish();
}

}  // namespace

int main(int argc, char** argv) {
  return compsyn::robust::guard_main("fig_blocks", argc, argv,
                                     [&] { return run_main(argc, argv); });
}
