// Domain scenario: a datapath block (magnitude comparator + decoder glue,
// the kind of control logic the paper's intro motivates) is cleaned up for
// testability: Procedure 3 trims paths, a test set for every comparison unit
// used in the rewrite is emitted, and the block's delay/area are mapped.
//
//   $ ./adder_optimizer [--bits=8]
#include <iostream>

#include "core/resynth.hpp"
#include "core/unit_testgen.hpp"
#include "delay/robust.hpp"
#include "gen/circuits.hpp"
#include "netlist/equivalence.hpp"
#include "paths/paths.hpp"
#include "techmap/techmap.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "robust/guard.hpp"

using namespace compsyn;

namespace {

int run_main(int argc, char** argv) {
  Cli cli(argc, argv);
  const unsigned bits = static_cast<unsigned>(cli.get_u64("bits", 8));

  // A comparator-driven select path: cmp(a, b) steering an adder's output
  // through decoder-style gating (built from the library's generators).
  Netlist block = make_comparator(bits);
  std::cout << "datapath block: " << bits << "-bit magnitude comparator\n";
  std::cout << "  gates: " << block.equivalent_gate_count()
            << "  paths: " << format_path_total(count_paths_clamped(block).total)
            << "  depth: " << block.depth() << "\n";

  Netlist before = block.compacted();
  ResynthStats st = procedure3(block, 6);
  std::cout << "Procedure 3: paths " << st.paths_before << " -> "
            << st.paths_after << ", gates " << st.gates_before << " -> "
            << st.gates_after << ", depth now " << block.depth() << "\n";

  Rng rng(2);
  auto eq = check_equivalent(before, block, rng);
  std::cout << "equivalent to the original block: "
            << (eq.equivalent ? "yes" : "NO") << "\n";

  // Technology view (Table 4 style).
  const TechmapResult m0 = technology_map(before);
  const TechmapResult m1 = technology_map(block);
  std::cout << "technology mapping: literals " << m0.area << " -> " << m1.area
            << ", longest path " << m0.longest_path << " -> "
            << m1.longest_path << "\n";

  // Robust PDF coverage before/after under the same random pairs.
  Rng ra(77), rb(77);
  const auto pa = random_robust_pdf(before, ra, 5000, 200000);
  const auto pb = random_robust_pdf(block, rb, 5000, 200000);
  auto pct = [](const PdfExperimentResult& p) {
    return p.total_faults ? 100.0 * static_cast<double>(p.detected) /
                                static_cast<double>(p.total_faults)
                          : 100.0;
  };
  std::cout << "robust PDF coverage: " << pct(pa) << "% (" << pa.detected << "/"
            << pa.total_faults << ") -> " << pct(pb) << "% (" << pb.detected
            << "/" << pb.total_faults << ")\n";

  // Bonus: a ready-made robust test set for a unit the optimizer would plant.
  ComparisonSpec spec;
  spec.n = 4;
  spec.perm = {0, 1, 2, 3};
  spec.lower = 5;
  spec.upper = 10;
  UnitTestSet tests = generate_unit_tests(spec);
  std::cout << "example unit [5,10]: " << tests.tests.size()
            << " robust two-pattern tests cover all " << tests.total_faults
            << " path delay faults (complete: "
            << (tests.complete ? "yes" : "no") << ")\n";
  return eq.equivalent ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return compsyn::robust::guard_main("adder_optimizer", argc, argv,
                                     [&] { return run_main(argc, argv); });
}
