// Table 3: comparison with RAMBO_C [1]. For each circuit: original gates and
// paths, the RAR baseline's gates and paths (typically fewer gates but MORE
// paths, as the paper reports for RAMBO_C), and Procedure 2 applied on top
// of the RAR result (recovering paths while trimming a few more gates).
//
// Flags: --circuits=a,b,c  --k=5,6  --adds=N (RAR addition budget)
//        --verify=sim|sat|both (equivalence-check backend, default sim)
//        --report=<file>.json   --trace
#include "bench/common.hpp"
#include "rar/rar.hpp"
#include "util/table.hpp"

using namespace compsyn;
using namespace compsyn::bench;

namespace {

int run_main(int argc, char** argv) {
  Cli cli(argc, argv);
  BenchRun run("table3_rambo", cli);
  const VerifyMode verify = bench_verify_mode(cli);
  const auto circuits =
      select_circuits(cli, {"cmp8", "alu4", "syn150", "syn300", "syn600"});
  std::vector<unsigned> ks;
  for (const std::string& s : split(cli.get("k", "5,6"), ',')) {
    if (!s.empty()) ks.push_back(static_cast<unsigned>(std::stoul(s)));
  }
  run.report().set_meta("k", cli.get("k", "5,6"));

  std::cout << "Table 3: Comparison with the RAMBO_C-style baseline [1]\n\n";
  Table t({"circuit", "2inp orig", "paths orig", "2inp RAR", "paths RAR", "K",
           "2inp RAR+P2", "paths RAR+P2"});
  for (const std::string& name : circuits) {
    Netlist orig = prepare_irredundant(name);
    run.add_circuit("original", orig);

    Netlist rar = orig;
    RarOptions ropt;
    ropt.max_adds = static_cast<unsigned>(cli.get_u64("adds", 20));
    ropt.seed = 7;
    rar_optimize(rar, ropt);
    verify_or_die(orig, rar, name + " RAR", verify);

    BestOfK best = best_of_k(rar, ResynthObjective::Gates, ks);
    verify_or_die(rar, best.netlist, name + " RAR+Proc2", verify);

    t.row()
        .add("irs_" + name)
        .add(orig.equivalent_gate_count())
        .add_commas(count_paths_clamped(orig).total)
        .add(rar.equivalent_gate_count())
        .add_commas(count_paths_clamped(rar).total)
        .add(static_cast<std::uint64_t>(best.k))
        .add(best.netlist.equivalent_gate_count())
        .add_commas(count_paths_clamped(best.netlist).total);
  }
  t.print(std::cout);
  run.report().add_table("table3", t);
  return run.finish();
}

}  // namespace

int main(int argc, char** argv) {
  return compsyn::robust::guard_main("table3_rambo", argc, argv,
                                     [&] { return run_main(argc, argv); });
}
