// Quickstart: build a small circuit with the public API, identify a
// comparison function in it, replace the subcircuit with a comparison unit,
// and verify the result.
//
//   $ ./quickstart
#include <iostream>

#include "bench_io/bench_io.hpp"
#include "core/comparison.hpp"
#include "core/comparison_unit.hpp"
#include "core/resynth.hpp"
#include "netlist/equivalence.hpp"
#include "paths/paths.hpp"
#include "robust/guard.hpp"
#include "util/rng.hpp"

using namespace compsyn;

namespace {

int run_main() {
  // 1. Build a circuit: f = the Section 3.1 example function f2, here
  //    implemented wastefully as a two-level SOP.
  Netlist nl("quickstart");
  std::vector<NodeId> y;
  for (int i = 1; i <= 4; ++i) y.push_back(nl.add_input("y" + std::to_string(i)));
  std::vector<NodeId> ny;
  for (NodeId v : y) ny.push_back(nl.add_gate(GateType::Not, {v}));
  // ON minterms {1, 5, 6, 9, 10, 14} of f2(y1..y4).
  std::vector<NodeId> terms;
  for (std::uint32_t m : {1u, 5u, 6u, 9u, 10u, 14u}) {
    std::vector<NodeId> lits;
    for (unsigned v = 0; v < 4; ++v) {
      lits.push_back(((m >> (3 - v)) & 1u) ? y[v] : ny[v]);
    }
    terms.push_back(nl.add_gate(GateType::And, lits));
  }
  NodeId f = nl.add_gate(GateType::Or, terms, "f2");
  nl.mark_output(f);
  std::cout << "original circuit: " << nl.equivalent_gate_count()
            << " equivalent 2-input gates, " << count_paths(nl).total
            << " paths\n";

  // 2. Is f2 a comparison function? (It is: under x1=y4, x2=y3, x3=y2,
  //    x4=y1 its ON-set is the interval [5, 10].)
  TruthTable table = TruthTable::from_function(4, [&](std::uint32_t m) {
    return m == 1 || m == 5 || m == 6 || m == 9 || m == 10 || m == 14;
  });
  auto specs = identify_comparison(table);
  std::cout << "identify_comparison found " << specs.size() << " realisations; "
            << "first: L=" << specs[0].lower << " U=" << specs[0].upper
            << (specs[0].complemented ? " (complemented)" : "") << "\n";

  // 3. Let Procedure 2 rewrite the circuit.
  Netlist before = nl.compacted();
  ResynthOptions opt;
  opt.k = 5;
  ResynthStats stats = resynthesize(nl, opt);
  std::cout << "Procedure 2: " << stats.replacements << " replacement(s), "
            << stats.gates_before << " -> " << stats.gates_after << " gates, "
            << stats.paths_before << " -> " << stats.paths_after << " paths\n";

  // 4. Verify equivalence exhaustively and print the result.
  Rng rng(1);
  auto eq = check_equivalent(before, nl, rng);
  std::cout << "equivalence check: " << (eq.equivalent ? "PASS" : "FAIL")
            << (eq.exhaustive ? " (exhaustive)" : "") << "\n\n";
  std::cout << "resynthesized netlist:\n" << write_bench_string(nl.compacted());
  return eq.equivalent ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return compsyn::robust::guard_main("quickstart", argc, argv,
                                     [&] { return run_main(); });
}
