// Ablation study for the design choices DESIGN.md calls out (not a paper
// table): per circuit, Procedure 2 with
//   * exact vs sampled (paper-style, 200 permutations) identification,
//   * gate merging on vs off (Figure 4),
//   * single-unit (paper) vs multi-unit replacement (Section 6, issue 2).
//
// Flags: --circuits=a,b,c   --verify=sim|sat|both
//        --report=<file>.json   --trace
#include "bench/common.hpp"
#include "util/table.hpp"

using namespace compsyn;
using namespace compsyn::bench;

namespace {

struct Variant {
  const char* label;
  ResynthOptions opt;
};

}  // namespace

namespace {

int run_main(int argc, char** argv) {
  Cli cli(argc, argv);
  BenchRun run("ablation_units", cli);
  const VerifyMode verify = bench_verify_mode(cli);
  const auto circuits = select_circuits(cli, {"cmp8", "alu4", "syn150", "syn300"});

  std::vector<Variant> variants;
  {
    Variant v{"exact (default)", {}};
    v.opt.k = 6;
    variants.push_back(v);
  }
  {
    Variant v{"sampled-200", {}};
    v.opt.k = 6;
    v.opt.identify.exact = false;
    v.opt.identify.sample_tries = 200;
    variants.push_back(v);
  }
  {
    Variant v{"no-merge", {}};
    v.opt.k = 6;
    v.opt.unit.merge_gates = false;
    variants.push_back(v);
  }
  {
    Variant v{"multi-unit<=4", {}};
    v.opt.k = 6;
    v.opt.max_units = 4;
    variants.push_back(v);
  }

  std::cout << "Ablation: Procedure 2 variants (gate objective, K=6)\n\n";
  Table t({"circuit", "variant", "gates", "paths", "replacements"});
  for (const std::string& name : circuits) {
    Netlist base = prepare_irredundant(name);
    run.add_circuit("original", base);
    for (Variant& v : variants) {
      Netlist nl = base;
      Rng rng(42);
      if (!v.opt.identify.exact) v.opt.identify.rng = &rng;
      ResynthStats st = resynthesize(nl, v.opt);
      verify_or_die(base, nl, std::string(name) + " " + v.label, verify);
      t.row()
          .add("irs_" + name)
          .add(v.label)
          .add(st.gates_after)
          .add_commas(st.paths_after)
          .add(st.replacements);
    }
  }
  t.print(std::cout);
  run.report().add_table("ablation", t);
  return run.finish();
}

}  // namespace

int main(int argc, char** argv) {
  return compsyn::robust::guard_main("ablation_units", argc, argv,
                                     [&] { return run_main(argc, argv); });
}
