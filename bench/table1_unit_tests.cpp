// Table 1: the robust two-pattern test set for the Figure 6 comparison unit
// (L=11, U=12). Prints one row per path delay fault in the paper's waveform
// notation (000 / 111 stable, 0x1 rising, 1x0 falling) and validates every
// test against the robust waveform algebra. Also re-checks the Section 3.3
// claim: every path delay fault of the unit is robustly testable.
//
// Flags: --report=<file>.json   --trace
#include <iostream>
#include <numeric>

#include "bench/common.hpp"
#include "core/unit_testgen.hpp"
#include "delay/robust.hpp"
#include "util/table.hpp"

using namespace compsyn;
using namespace compsyn::bench;

namespace {

std::string wave_str(bool v1, bool v2) {
  if (v1 == v2) return v1 ? "111" : "000";
  return v1 ? "1x0" : "0x1";
}

}  // namespace

namespace {

int run_main(int argc, char** argv) {
  Cli cli(argc, argv);
  BenchRun run("table1_unit_tests", cli);
  ComparisonSpec spec;
  spec.n = 4;
  spec.perm = {0, 1, 2, 3};
  spec.lower = 11;  // 1011: x1 free, L_F = 011 = 3
  spec.upper = 12;  // 1100: U_F = 100 = 4
  UnitTestSet set = generate_unit_tests(spec);

  std::cout << "Table 1: robust test set for the comparison unit with "
               "L=11, U=12 (Figure 6)\n\n";
  Table t({"fault (path, transition)", "x1", "x2", "x3", "x4", "robust?"});
  std::size_t validated = 0;
  for (const auto& test : set.tests) {
    std::string desc = "path";
    for (NodeId n : test.path.nodes) {
      const Node& nd = set.unit.node(n);
      desc += nd.type == GateType::Input ? (" " + nd.name) : "";
    }
    desc += test.rising ? " 0x1" : " 1x0";
    const bool ok =
        robustly_tests(set.unit, test.path, test.rising, test.v1, test.v2);
    validated += ok;
    t.row().add(desc);
    for (unsigned i = 0; i < 4; ++i) t.add(wave_str(test.v1[i], test.v2[i]));
    t.add(ok ? std::string("yes") : std::string("NO"));
  }
  t.print(std::cout);
  std::cout << "\npath delay faults: " << set.total_faults
            << "   tests generated: " << set.tests.size()
            << "   validated robust: " << validated
            << "   complete: " << (set.complete ? "yes" : "NO") << "\n";
  run.report().set_meta("total_faults", static_cast<std::uint64_t>(set.total_faults));
  run.report().set_meta("tests", static_cast<std::uint64_t>(set.tests.size()));
  run.report().set_meta("validated", static_cast<std::uint64_t>(validated));
  run.report().set_meta("complete", set.complete);
  run.report().add_table("table1", t);
  const int rc = run.finish();
  const bool ok = set.complete && validated == set.tests.size();
  return ok ? rc : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return compsyn::robust::guard_main("table1_unit_tests", argc, argv,
                                     [&] { return run_main(argc, argv); });
}
