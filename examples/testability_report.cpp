// Testability report for a circuit before and after Procedure 2: stuck-at
// ATPG summary (testable / redundant), random-pattern stuck-at coverage, and
// robust path-delay-fault coverage under random vector pairs -- the
// measurements behind Tables 6 and 7, for one circuit, side by side.
//
//   $ ./testability_report syn150
//   $ ./testability_report --patterns=65536 --pairs=100000 cmp8
//
// --guided adds a guided-ATPG + static-compaction section (DESIGN.md §16):
//   $ ./testability_report --guided syn150
//   $ ./testability_report --guided --atpg-backtrace=scoap
//         --atpg-frontier=scoap --atpg-order=hard --rtpg=weighted syn150
//     (one command line)
#include <iostream>

#include "atpg/compact.hpp"
#include "atpg/guided.hpp"
#include "atpg/podem.hpp"
#include "atpg/redundancy.hpp"
#include "core/resynth.hpp"
#include "delay/robust.hpp"
#include "faults/fault_sim.hpp"
#include "gen/circuits.hpp"
#include "paths/paths.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "robust/guard.hpp"

using namespace compsyn;

namespace {

struct Report {
  std::uint64_t gates, paths;
  AtpgSummary atpg;
  SafExperimentResult saf;
  PdfExperimentResult pdf;
};

Report measure(const Netlist& nl, std::uint64_t patterns, std::uint64_t pairs,
               std::uint64_t seed) {
  Report r;
  r.gates = nl.equivalent_gate_count();
  r.paths = count_paths_clamped(nl).total;
  r.atpg = run_podem_all(nl, enumerate_faults(nl, true));
  Rng r1(seed);
  r.saf = random_saf_experiment(nl, r1, patterns);
  Rng r2(seed);
  r.pdf = random_robust_pdf(nl, r2, /*stop_window=*/pairs / 10 + 1, pairs);
  return r;
}

}  // namespace

namespace {

int run_main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::string name =
      cli.positional().empty() ? "syn150" : cli.positional()[0];
  const std::uint64_t patterns = cli.get_u64("patterns", 1 << 16);
  const std::uint64_t pairs = cli.get_u64("pairs", 200000);
  const std::uint64_t seed = cli.get_u64("seed", 31337);

  Netlist nl = make_benchmark(name);
  remove_redundancies(nl);
  Netlist modified = nl;
  procedure2(modified, 6);
  remove_redundancies(modified);

  std::cout << "testability report for irs_" << name << " (original vs Procedure 2)\n\n";
  const Report a = measure(nl, patterns, pairs, seed);
  const Report b = measure(modified, patterns, pairs, seed);

  Table t({"metric", "original", "modified"});
  t.row().add("equivalent 2-input gates").add(a.gates).add(b.gates);
  t.row().add("paths").add_commas(a.paths).add_commas(b.paths);
  t.row().add("collapsed stuck-at faults").add(static_cast<std::uint64_t>(a.atpg.total))
      .add(static_cast<std::uint64_t>(b.atpg.total));
  t.row().add("ATPG-testable").add(static_cast<std::uint64_t>(a.atpg.detected))
      .add(static_cast<std::uint64_t>(b.atpg.detected));
  t.row().add("ATPG-redundant").add(static_cast<std::uint64_t>(a.atpg.untestable))
      .add(static_cast<std::uint64_t>(b.atpg.untestable));
  t.row().add("random-pattern undetected").add(static_cast<std::uint64_t>(a.saf.remaining))
      .add(static_cast<std::uint64_t>(b.saf.remaining));
  t.row().add("last effective pattern").add_commas(a.saf.last_effective_pattern)
      .add_commas(b.saf.last_effective_pattern);
  t.row().add("path delay faults").add_commas(a.pdf.total_faults)
      .add_commas(b.pdf.total_faults);
  t.row().add("robustly detected (random)").add_commas(a.pdf.detected)
      .add_commas(b.pdf.detected);
  const auto pct = [](const PdfExperimentResult& p) {
    return p.total_faults == 0
               ? 100.0
               : 100.0 * static_cast<double>(p.detected) /
                     static_cast<double>(p.total_faults);
  };
  t.row().add("robust PDF coverage %").add(pct(a.pdf), 2).add(pct(b.pdf), 2);
  t.print(std::cout);

  std::cout << "\nThe headline effect (Section 5): modified circuits keep "
               "stuck-at testability\nwhile dropping untestable path delay "
               "faults, so PDF coverage rises.\n";

  // Opt-in guided-ATPG section; without --guided the output above stays
  // byte-identical to earlier releases.
  if (cli.has("guided")) {
    GuidedAtpgOptions gopt;
    if (cli.has("atpg-backtrace")) {
      const auto p = parse_backtrace_policy(cli.get("atpg-backtrace"));
      if (!p) {
        std::cerr << "error: --atpg-backtrace=" << cli.get("atpg-backtrace")
                  << " (expected legacy or scoap)\n";
        return robust::kExitUsage;
      }
      gopt.strategy.backtrace = *p;
    }
    if (cli.has("atpg-frontier")) {
      const auto p = parse_frontier_policy(cli.get("atpg-frontier"));
      if (!p) {
        std::cerr << "error: --atpg-frontier=" << cli.get("atpg-frontier")
                  << " (expected legacy or scoap)\n";
        return robust::kExitUsage;
      }
      gopt.strategy.frontier = *p;
    }
    if (cli.has("atpg-order")) {
      const auto p = parse_fault_order(cli.get("atpg-order"));
      if (!p) {
        std::cerr << "error: --atpg-order=" << cli.get("atpg-order")
                  << " (expected index, hard, or cone)\n";
        return robust::kExitUsage;
      }
      gopt.order = *p;
    }
    if (cli.has("rtpg")) {
      const auto v = parse_rtpg_variant(cli.get("rtpg"));
      if (!v) {
        std::cerr << "error: --rtpg=" << cli.get("rtpg")
                  << " (expected uniform, weighted, or toggle)\n";
        return robust::kExitUsage;
      }
      gopt.rtpg.variant = *v;
    }
    gopt.rtpg.max_patterns = cli.get_u64("rtpg-patterns", gopt.rtpg.max_patterns);
    gopt.rtpg.seed = cli.get_u64("rtpg-seed", gopt.rtpg.seed);
    gopt.backtrack_limit = cli.get_u64("backtracks", gopt.backtrack_limit);

    const auto guided_row = [&](const Netlist& c) {
      const GuidedAtpgResult g = guided_atpg(c, gopt);
      const CompactionResult comp =
          compact_patterns(c, g.faults, g.patterns, {gopt.fill_seed});
      return std::make_pair(g, comp);
    };
    const auto [ga, ca] = guided_row(nl);
    const auto [gb, cb] = guided_row(modified);

    std::cout << "\nguided ATPG (backtrace=" << to_string(gopt.strategy.backtrace)
              << ", frontier=" << to_string(gopt.strategy.frontier)
              << ", order=" << to_string(gopt.order)
              << ", rtpg=" << to_string(gopt.rtpg.variant) << ")\n\n";
    Table g({"metric", "original", "modified"});
    g.row().add("RTPG patterns kept").add(ga.rtpg.patterns_kept).add(gb.rtpg.patterns_kept);
    g.row().add("RTPG detected").add(static_cast<std::uint64_t>(ga.rtpg.detected))
        .add(static_cast<std::uint64_t>(gb.rtpg.detected));
    g.row().add("PODEM calls").add(ga.podem_calls).add(gb.podem_calls);
    g.row().add("PODEM backtracks").add(ga.backtracks).add(gb.backtracks);
    g.row().add("detected").add(static_cast<std::uint64_t>(ga.detected))
        .add(static_cast<std::uint64_t>(gb.detected));
    g.row().add("untestable").add(static_cast<std::uint64_t>(ga.untestable))
        .add(static_cast<std::uint64_t>(gb.untestable));
    g.row().add("aborted").add(static_cast<std::uint64_t>(ga.aborted))
        .add(static_cast<std::uint64_t>(gb.aborted));
    g.row().add("patterns before compaction")
        .add(static_cast<std::uint64_t>(ga.patterns.size()))
        .add(static_cast<std::uint64_t>(gb.patterns.size()));
    g.row().add("patterns after compaction")
        .add(static_cast<std::uint64_t>(ca.patterns.size()))
        .add(static_cast<std::uint64_t>(cb.patterns.size()));
    g.print(std::cout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return compsyn::robust::guard_main("testability_report", argc, argv,
                                     [&] { return run_main(argc, argv); });
}
