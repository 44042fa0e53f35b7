// Table 4: technology mapping. (a) original circuits vs Procedure 2;
// (b) RAR-baseline circuits vs RAR + Procedure 2. For each version we report
// mapped literals (total cell area) and gates on the longest path.
//
// Flags: --circuits=a,b,c  --k=5,6  --adds=N
//        --verify=sim|sat|both (equivalence-check backend, default sim)
//        --report=<file>.json   --trace
#include "bench/common.hpp"
#include "rar/rar.hpp"
#include "techmap/techmap.hpp"
#include "util/table.hpp"

using namespace compsyn;
using namespace compsyn::bench;

namespace {

int run_main(int argc, char** argv) {
  Cli cli(argc, argv);
  BenchRun run("table4_techmap", cli);
  const VerifyMode verify = bench_verify_mode(cli);
  const auto circuits =
      select_circuits(cli, {"cmp8", "alu4", "syn150", "syn300", "syn600"});
  std::vector<unsigned> ks;
  for (const std::string& s : split(cli.get("k", "5,6"), ',')) {
    if (!s.empty()) ks.push_back(static_cast<unsigned>(std::stoul(s)));
  }
  run.report().set_meta("k", cli.get("k", "5,6"));

  std::cout << "Table 4(a): technology mapping, original vs Procedure 2\n\n";
  Table ta({"circuit", "lits orig", "longest orig", "lits Proc2", "longest Proc2"});
  std::vector<Netlist> originals;
  for (const std::string& name : circuits) {
    Netlist orig = prepare_irredundant(name);
    run.add_circuit("original", orig);
    const TechmapResult m0 = technology_map(orig);
    BestOfK p2 = best_of_k(orig, ResynthObjective::Gates, ks);
    verify_or_die(orig, p2.netlist, name + " Procedure 2", verify);
    const TechmapResult m1 = technology_map(p2.netlist);
    ta.row()
        .add("irs_" + name)
        .add(m0.area)
        .add(static_cast<std::uint64_t>(m0.longest_path))
        .add(m1.area)
        .add(static_cast<std::uint64_t>(m1.longest_path));
    originals.push_back(std::move(orig));
  }
  ta.print(std::cout);

  std::cout << "\nTable 4(b): technology mapping, RAR baseline vs RAR + Procedure 2\n\n";
  Table tb({"circuit", "lits RAR", "longest RAR", "lits RAR+P2", "longest RAR+P2"});
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    Netlist rar = originals[i];
    RarOptions ropt;
    ropt.max_adds = static_cast<unsigned>(cli.get_u64("adds", 20));
    ropt.seed = 7;
    rar_optimize(rar, ropt);
    verify_or_die(originals[i], rar, circuits[i] + " RAR", verify);
    const TechmapResult m0 = technology_map(rar);
    BestOfK p2 = best_of_k(rar, ResynthObjective::Gates, ks);
    verify_or_die(rar, p2.netlist, circuits[i] + " RAR+Proc2", verify);
    const TechmapResult m1 = technology_map(p2.netlist);
    tb.row()
        .add("irs_" + circuits[i])
        .add(m0.area)
        .add(static_cast<std::uint64_t>(m0.longest_path))
        .add(m1.area)
        .add(static_cast<std::uint64_t>(m1.longest_path));
  }
  tb.print(std::cout);
  run.report().add_table("table4a", ta);
  run.report().add_table("table4b", tb);
  return run.finish();
}

}  // namespace

int main(int argc, char** argv) {
  return compsyn::robust::guard_main("table4_techmap", argc, argv,
                                     [&] { return run_main(argc, argv); });
}
