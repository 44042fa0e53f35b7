// Table 7: robust path-delay-fault detection by random vector pairs on four
// versions of one circuit: original, Procedure 2 (+red.rem), the RAR
// baseline, and RAR + Procedure 2. As in the paper, random pairs are applied
// until the coverage has not changed for a window of consecutive pairs; we
// report the last effective pair and detected/total fault counts.
//
// The paper's headline: the modification removes mostly UNTESTABLE path
// delay faults, so "detected" stays (or rises) while "total" drops -- the
// robust coverage ratio increases.
//
// Flags: --circuit=name (default syn300)  --window=N (default 20000)
//        --pairs=N (default 2e6)  --seed=S  --k=5,6  --adds=N
//        --verify=sim|sat|both  --report=<file>.json  --trace
#include "bench/common.hpp"
#include "delay/nonenum.hpp"
#include "delay/robust.hpp"
#include "rar/rar.hpp"
#include "util/table.hpp"

using namespace compsyn;
using namespace compsyn::bench;

namespace {

int run_main(int argc, char** argv) {
  Cli cli(argc, argv);
  BenchRun run("table7_pdf_random", cli);
  const VerifyMode verify = bench_verify_mode(cli);
  const std::string name = cli.get("circuit", "syn300");
  const std::uint64_t window = cli.get_u64("window", 20000);
  const std::uint64_t max_pairs = cli.get_u64("pairs", 2000000);
  const std::uint64_t seed = cli.get_u64("seed", 999);
  std::vector<unsigned> ks;
  for (const std::string& s : split(cli.get("k", "5,6"), ',')) {
    if (!s.empty()) ks.push_back(static_cast<unsigned>(std::stoul(s)));
  }
  run.report().set_meta("circuit", name);
  run.report().set_meta("window", window);
  run.report().set_meta("pairs", max_pairs);
  run.report().set_meta("seed", seed);
  run.report().set_meta("k", cli.get("k", "5,6"));

  Netlist orig = prepare_irredundant(name);
  run.add_circuit("original", orig);

  Netlist proc2 = best_of_k(orig, ResynthObjective::Gates, ks).netlist;
  remove_redundancies(proc2);
  verify_or_die(orig, proc2, "Proc2", verify);

  Netlist rar = orig;
  RarOptions ropt;
  ropt.max_adds = static_cast<unsigned>(cli.get_u64("adds", 20));
  ropt.seed = 7;
  rar_optimize(rar, ropt);
  verify_or_die(orig, rar, "RAR", verify);

  Netlist rar_p2 = best_of_k(rar, ResynthObjective::Gates, ks).netlist;
  remove_redundancies(rar_p2);
  verify_or_die(rar, rar_p2, "RAR+Proc2", verify);
  run.add_circuit("proc2", proc2);
  run.add_circuit("rar", rar);
  run.add_circuit("rar+proc2", rar_p2);

  std::cout << "Table 7: robust path-delay-fault detection by random pairs in irs_"
            << name << " (window " << window << ", seed " << seed << ")\n\n";
  Table t({"version", "eff", "det", "faults", "coverage%"});
  struct Row {
    const char* label;
    const Netlist* nl;
  } rows[] = {
      {"original", &orig},
      {"Proc2", &proc2},
      {"RAMBO-like", &rar},
      {"RAMBO-like+Proc2", &rar_p2},
  };
  for (const Row& row : rows) {
    Rng rng(seed);  // identical pair stream for every version
    const auto res = random_robust_pdf(*row.nl, rng, window, max_pairs);
    t.row()
        .add(row.label)
        .add_commas(res.last_effective_pair)
        .add_commas(res.detected)
        .add_commas(res.total_faults)
        .add(100.0 * static_cast<double>(res.detected) /
                 static_cast<double>(res.total_faults == 0 ? 1 : res.total_faults),
             2);
  }
  t.print(std::cout);

  // The [8]-style non-enumerative bounds (what the paper's tooling uses when
  // the path count forbids per-path bookkeeping), on a shorter pair budget.
  const std::uint64_t est_pairs = cli.get_u64("est-pairs", 20000);
  std::cout << "\nNon-enumerative coverage bounds ([8]-style, " << est_pairs
            << " pairs):\n\n";
  Table e({"version", "lower", "upper", "faults"});
  for (const Row& row : rows) {
    Rng rng(seed);
    const auto res = random_nonenum_pdf(*row.nl, rng, est_pairs);
    e.row()
        .add(row.label)
        .add_commas(res.lower)
        .add_commas(res.upper)
        .add_commas(res.total_faults);
  }
  e.print(std::cout);
  run.report().add_table("table7", t);
  run.report().add_table("nonenum", e);
  return run.finish();
}

}  // namespace

int main(int argc, char** argv) {
  return compsyn::robust::guard_main("table7_pdf_random", argc, argv,
                                     [&] { return run_main(argc, argv); });
}
