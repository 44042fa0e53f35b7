// Table 6: random-pattern testability for stuck-at faults, original vs
// modified (Procedure 2 + redundancy removal). Both circuits receive the
// SAME seeded pattern stream; the paper's observation to reproduce is that
// the number of remaining faults and the last effective pattern do not
// deteriorate after the modification.
//
// Flags: --circuits=a,b,c  --patterns=N (default 2^20; the paper used 3e7)
//        --k=5,6  --seed=S  --verify=sim|sat|both
//        --report=<file>.json  --trace
#include "bench/common.hpp"
#include "faults/fault_sim.hpp"
#include "util/table.hpp"

using namespace compsyn;
using namespace compsyn::bench;

namespace {

int run_main(int argc, char** argv) {
  Cli cli(argc, argv);
  BenchRun run("table6_saf_random", cli);
  const VerifyMode verify = bench_verify_mode(cli);
  const auto circuits = select_circuits(
      cli, {"c17", "s27", "add8", "cmp8", "alu4", "syn150", "syn300", "syn600"});
  const std::uint64_t max_patterns = cli.get_u64("patterns", 1ull << 20);
  const std::uint64_t seed = cli.get_u64("seed", 12345);
  std::vector<unsigned> ks;
  for (const std::string& s : split(cli.get("k", "5,6"), ',')) {
    if (!s.empty()) ks.push_back(static_cast<unsigned>(std::stoul(s)));
  }
  run.report().set_meta("k", cli.get("k", "5,6"));
  run.report().set_meta("patterns", max_patterns);
  run.report().set_meta("seed", seed);

  std::cout << "Table 6: random-pattern stuck-at testability (" << max_patterns
            << " patterns, seed " << seed << ")\n\n";
  Table t({"circuit", "faults", "remain", "eff.patt", "faults mod", "remain mod",
           "eff.patt mod"});
  for (const std::string& name : circuits) {
    Netlist orig = prepare_irredundant(name);
    run.add_circuit("original", orig);
    BestOfK p2 = best_of_k(orig, ResynthObjective::Gates, ks);
    Netlist modified = p2.netlist;
    remove_redundancies(modified);
    verify_or_die(orig, modified, name + " Proc2+red.rem", verify);
    run.add_circuit("modified", modified);

    Rng r1(seed), r2(seed);  // identical pattern streams
    const auto a = random_saf_experiment(orig, r1, max_patterns);
    const auto b = random_saf_experiment(modified, r2, max_patterns);
    t.row()
        .add("irs_" + name)
        .add(static_cast<std::uint64_t>(a.total_faults))
        .add(static_cast<std::uint64_t>(a.remaining))
        .add_commas(a.last_effective_pattern)
        .add(static_cast<std::uint64_t>(b.total_faults))
        .add(static_cast<std::uint64_t>(b.remaining))
        .add_commas(b.last_effective_pattern);
  }
  t.print(std::cout);
  std::cout << "\n(Collapsed fault universes; both columns use the same "
               "pattern stream.)\n";
  run.report().add_table("table6", t);
  return run.finish();
}

}  // namespace

int main(int argc, char** argv) {
  return compsyn::robust::guard_main("table6_saf_random", argc, argv,
                                     [&] { return run_main(argc, argv); });
}
