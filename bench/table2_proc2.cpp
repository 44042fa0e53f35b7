// Table 2: Procedure 2 (gate reduction) followed by redundancy removal.
// Columns as in the paper: circuit(K); equivalent 2-input gates for the
// original, modified, and redundancy-removed circuits; paths likewise.
//
// Flags: --circuits=a,b,c   --full   --k=5,6 (Ks to try)
//        --verify=sim|sat|both (equivalence-check backend, default sim)
//        --report=<file>.json   --trace   (see bench/common.hpp)
#include "bench/common.hpp"
#include "util/table.hpp"

using namespace compsyn;
using namespace compsyn::bench;

namespace {

int run_main(int argc, char** argv) {
  Cli cli(argc, argv);
  BenchRun run("table2_proc2", cli);
  const VerifyMode verify = bench_verify_mode(cli);
  const auto circuits = select_circuits(
      cli, {"c17", "s27", "add8", "cmp8", "dec5", "mux4", "alu4", "syn150",
            "syn300", "syn600", "syn1000"});
  std::vector<unsigned> ks;
  for (const std::string& s : split(cli.get("k", "5,6"), ',')) {
    if (!s.empty()) ks.push_back(static_cast<unsigned>(std::stoul(s)));
  }
  run.report().set_meta("k", cli.get("k", "5,6"));
  {
    Json names = Json::array();
    for (const std::string& c : circuits) names.push(c);
    run.report().set_meta("circuits", std::move(names));
  }

  std::cout << "Table 2: Results of Procedure 2 (reduce gates) + redundancy removal\n\n";
  Table t({"circuit(K)", "2inp orig", "2inp modif", "2inp red.rem", "paths orig",
           "paths modif", "paths red.rem"});
  for (const std::string& name : circuits) {
    Netlist orig = prepare_irredundant(name);
    run.add_circuit("original", orig);
    const std::uint64_t g0 = orig.equivalent_gate_count();
    const std::uint64_t p0 = count_paths_clamped(orig).total;

    BestOfK best = best_of_k(orig, ResynthObjective::Gates, ks);
    verify_or_die(orig, best.netlist, name + " Procedure 2", verify);
    const std::uint64_t g1 = best.netlist.equivalent_gate_count();
    const std::uint64_t p1 = count_paths_clamped(best.netlist).total;

    // Redundancy removal afterwards, as in Section 5 (only has an effect
    // when the modification created redundant faults).
    Netlist rr = best.netlist;
    const auto rr_stats = remove_redundancies(rr);
    verify_or_die(best.netlist, rr, name + " redundancy removal", verify);
    const std::uint64_t g2 = rr.equivalent_gate_count();
    const std::uint64_t p2 = count_paths_clamped(rr).total;

    t.row()
        .add("irs_" + name + " (" + std::to_string(best.k) + ")")
        .add(g0)
        .add(g1)
        .add(rr_stats.removed ? std::to_string(g2) : std::string("-"))
        .add_commas(p0)
        .add_commas(p1)
        .add(rr_stats.removed ? with_commas(p2) : std::string("-"));
  }
  t.print(std::cout);
  std::cout << "\n(\"-\" means no redundant stuck-at faults were found after "
               "Procedure 2, as in the paper's blank entries.)\n";
  run.report().add_table("table2", t);
  return run.finish();
}

}  // namespace

int main(int argc, char** argv) {
  return compsyn::robust::guard_main("table2_proc2", argc, argv,
                                     [&] { return run_main(argc, argv); });
}
