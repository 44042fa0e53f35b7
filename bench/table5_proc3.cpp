// Table 5: Procedure 3 (path reduction). Columns as in the paper: circuit(K),
// inputs, outputs, equivalent 2-input gates (orig/modif), paths (orig/modif).
// Gate count may increase -- Procedure 3 has no gate objective.
//
// Flags: --circuits=a,b,c   --full   --k=5,6
//        --verify=sim|sat|both (equivalence-check backend, default sim)
//        --report=<file>.json   --trace
#include "bench/common.hpp"
#include "util/table.hpp"

using namespace compsyn;
using namespace compsyn::bench;

namespace {

int run_main(int argc, char** argv) {
  Cli cli(argc, argv);
  BenchRun run("table5_proc3", cli);
  const VerifyMode verify = bench_verify_mode(cli);
  const auto circuits = select_circuits(
      cli, {"c17", "s27", "add8", "cmp8", "dec5", "mux4", "alu4", "syn150",
            "syn300", "syn600", "syn1000"});
  std::vector<unsigned> ks;
  for (const std::string& s : split(cli.get("k", "5,6"), ',')) {
    if (!s.empty()) ks.push_back(static_cast<unsigned>(std::stoul(s)));
  }
  run.report().set_meta("k", cli.get("k", "5,6"));

  std::cout << "Table 5: Results of Procedure 3 (reduce paths)\n\n";
  Table t({"circuit(K)", "inp", "out", "2inp orig", "2inp modif", "paths orig",
           "paths modif"});
  for (const std::string& name : circuits) {
    Netlist orig = prepare_irredundant(name);
    run.add_circuit("original", orig);
    BestOfK best = best_of_k(orig, ResynthObjective::Paths, ks);
    verify_or_die(orig, best.netlist, name + " Procedure 3", verify);
    t.row()
        .add("irs_" + name + " (" + std::to_string(best.k) + ")")
        .add(static_cast<std::uint64_t>(orig.inputs().size()))
        .add(static_cast<std::uint64_t>(orig.outputs().size()))
        .add(orig.equivalent_gate_count())
        .add(best.netlist.equivalent_gate_count())
        .add_commas(count_paths_clamped(orig).total)
        .add_commas(count_paths_clamped(best.netlist).total);
  }
  t.print(std::cout);
  run.report().add_table("table5", t);
  return run.finish();
}

}  // namespace

int main(int argc, char** argv) {
  return compsyn::robust::guard_main("table5_proc3", argc, argv,
                                     [&] { return run_main(argc, argv); });
}
