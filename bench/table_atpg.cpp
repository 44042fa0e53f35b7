// Guided-ATPG strategy comparison on the Table 6 suite: the same random-TPG
// front end feeds each strategy variant's PODEM, and the resulting pattern
// sets go through static compaction. Reported per circuit and variant:
// pattern counts, fault coverage, PODEM calls, and backtracks.
//
//   base  -- legacy backtrace/frontier, index fault order (the seed engine)
//   scoap -- SCOAP-guided backtrace/frontier, hard-first fault order
//
// Invariants asserted FATAL (DESIGN.md §16):
//   * replaying each compacted pattern set re-detects byte-exactly the
//     faults the uncompacted set detected (every run);
//   * under --backtracks=0 (unlimited budget), all variants produce the
//     identical per-fault Detected/Untestable verdict vector. The default
//     finite budget instead permits Aborted faults, where variants may
//     legitimately differ in which faults they resolve.
// Wall time lives in the report spans and per-run records only -- stdout and
// the bench.atpg.* counters are deterministic, so two
// runs gate cleanly under `bench_diff --strict-counters` (CI perf-smoke).
//
//   $ ./table_atpg
//   $ ./table_atpg --circuits=c17,s27,add8 --rtpg=weighted --report=r.json
#include <cstdio>
#include <map>

#include "atpg/compact.hpp"
#include "atpg/guided.hpp"
#include "bench/common.hpp"
#include "obs/obs.hpp"
#include "util/table.hpp"

using namespace compsyn;
using namespace compsyn::bench;

namespace {

struct VariantSpec {
  const char* name;
  AtpgStrategy strategy;
  FaultOrderPolicy order;
};

constexpr VariantSpec kVariants[] = {
    {"base", {BacktracePolicy::Legacy, FrontierPolicy::Legacy},
     FaultOrderPolicy::Index},
    {"scoap", {BacktracePolicy::Scoap, FrontierPolicy::Scoap},
     FaultOrderPolicy::HardFirst},
};

struct VariantTotals {
  std::uint64_t patterns = 0;
  std::uint64_t compacted = 0;
  std::uint64_t podem_calls = 0;
  std::uint64_t backtracks = 0;
  std::uint64_t detected = 0;
  std::uint64_t untestable = 0;
  std::uint64_t aborted = 0;
};

double coverage_pct(std::size_t detected, std::size_t total) {
  return total == 0 ? 100.0
                    : 100.0 * static_cast<double>(detected) /
                          static_cast<double>(total);
}

int run_main(int argc, char** argv) {
  Cli cli(argc, argv);
  BenchRun run("table_atpg", cli);
  // Accepted like every harness; no step of this table checks equivalence.
  (void)bench_verify_mode(cli);
  const auto circuits = select_circuits(
      cli, {"c17", "s27", "add8", "cmp8", "alu4", "syn150", "syn300", "syn600"});

  // Default abort budget: the per-fault limit is where search-order guidance
  // pays off (an exhaustive redundancy proof costs the same tree under any
  // order). --backtracks=0 switches to the unlimited verdict-complete mode,
  // which additionally FATALs if the strategy variants ever disagree on a
  // single per-fault verdict.
  GuidedAtpgOptions base_opt;
  base_opt.backtrack_limit = cli.get_u64("backtracks", 2500);
  base_opt.rtpg.seed = cli.get_u64("seed", base_opt.rtpg.seed);
  base_opt.rtpg.max_patterns = cli.get_u64("rtpg-patterns", 2048);
  const std::string rtpg_str = cli.get("rtpg", "uniform");
  const auto rtpg_variant = parse_rtpg_variant(rtpg_str);
  if (!rtpg_variant) {
    std::cerr << "error: --rtpg=" << rtpg_str
              << " (expected uniform, weighted, or toggle)\n";
    return 2;
  }
  base_opt.rtpg.variant = *rtpg_variant;

  run.report().set_meta("rtpg", rtpg_str);
  run.report().set_meta("rtpg_patterns", base_opt.rtpg.max_patterns);
  run.report().set_meta("backtracks", base_opt.backtrack_limit);
  {
    Json names = Json::array();
    for (const std::string& c : circuits) names.push(c);
    run.report().set_meta("circuits", std::move(names));
  }

  std::cout << "Guided ATPG on the Table 6 suite (rtpg=" << rtpg_str
            << ", backtrack budget="
            << (base_opt.backtrack_limit == 0
                    ? std::string("unlimited")
                    : std::to_string(base_opt.backtrack_limit))
            << ")\n\n";

  Table t({"circuit", "variant", "faults", "cov %", "red", "rtpg pat",
           "podem", "backtracks", "patterns", "compacted"});
  std::map<std::string, VariantTotals> totals;
  bool verdicts_identical = true;

  for (const std::string& name : circuits) {
    Netlist nl = prepare_irredundant(name);
    std::vector<AtpgStatus> reference_status;
    for (const VariantSpec& v : kVariants) {
      GuidedAtpgOptions opt = base_opt;
      opt.strategy = v.strategy;
      opt.order = v.order;
      const std::uint64_t t0 = now_ns();
      const GuidedAtpgResult g = guided_atpg(nl, opt);
      const CompactionResult comp =
          compact_patterns(nl, g.faults, g.patterns, {opt.fill_seed});
      const std::uint64_t wall_ns = now_ns() - t0;

      // Compaction invariant: the kept subset re-detects byte-exactly the
      // faults the full filled set detected.
      if (replay_detect(nl, g.faults, comp.patterns) != comp.detected) {
        std::cerr << "FATAL: " << name << "/" << v.name
                  << ": compacted patterns lost coverage\n";
        return 1;
      }
      // Verdict invariant: at an unlimited backtrack budget the per-fault
      // Detected/Untestable vector is strategy-invariant.
      if (base_opt.backtrack_limit == 0) {
        if (reference_status.empty()) {
          reference_status = g.status;
        } else if (g.status != reference_status) {
          std::cerr << "FATAL: " << name << "/" << v.name
                    << ": verdict set differs from base strategy\n";
          verdicts_identical = false;
          return 1;
        }
      }

      t.row()
          .add(name)
          .add(v.name)
          .add(static_cast<std::uint64_t>(g.faults.size()))
          .add(coverage_pct(g.detected, g.faults.size()), 2)
          .add(static_cast<std::uint64_t>(g.untestable))
          .add(g.rtpg.patterns_kept)
          .add(g.podem_calls)
          .add(g.backtracks)
          .add(static_cast<std::uint64_t>(g.patterns.size()))
          .add(static_cast<std::uint64_t>(comp.patterns.size()));

      VariantTotals& tot = totals[v.name];
      tot.patterns += g.patterns.size();
      tot.compacted += comp.patterns.size();
      tot.podem_calls += g.podem_calls;
      tot.backtracks += g.backtracks;
      tot.detected += g.detected;
      tot.untestable += g.untestable;
      tot.aborted += g.aborted;

      Json rec = Json::object();
      rec.set("circuit", name);
      rec.set("variant", std::string(v.name));
      rec.set("faults", static_cast<std::uint64_t>(g.faults.size()));
      rec.set("detected", static_cast<std::uint64_t>(g.detected));
      rec.set("untestable", static_cast<std::uint64_t>(g.untestable));
      rec.set("aborted", static_cast<std::uint64_t>(g.aborted));
      rec.set("rtpg_patterns", g.rtpg.patterns_kept);
      rec.set("podem_calls", g.podem_calls);
      rec.set("backtracks", g.backtracks);
      rec.set("patterns", static_cast<std::uint64_t>(g.patterns.size()));
      rec.set("compacted", static_cast<std::uint64_t>(comp.patterns.size()));
      // A *_ns field: report masking hides it like every other wall time.
      rec.set("wall_ns", wall_ns);
      run.report().add_record("runs", std::move(rec));
    }
  }
  t.print(std::cout);

  if (base_opt.backtrack_limit == 0 && verdicts_identical) {
    std::cout << "\nverdict sets identical across variants: yes\n";
  }

  Table s({"variant", "patterns", "compacted", "podem calls", "backtracks",
           "detected", "red", "abort"});
  for (const VariantSpec& v : kVariants) {
    const VariantTotals& tot = totals[v.name];
    s.row()
        .add(v.name)
        .add(tot.patterns)
        .add(tot.compacted)
        .add(tot.podem_calls)
        .add(tot.backtracks)
        .add(tot.detected)
        .add(tot.untestable)
        .add(tot.aborted);
    const std::string prefix = std::string("bench.atpg.") + v.name + ".";
    Counters::incr(prefix + "patterns", tot.patterns);
    Counters::incr(prefix + "compacted", tot.compacted);
    Counters::incr(prefix + "podem_calls", tot.podem_calls);
    Counters::incr(prefix + "backtracks", tot.backtracks);
    Counters::incr(prefix + "detected", tot.detected);
    Counters::incr(prefix + "untestable", tot.untestable);
  }
  std::cout << "\n";
  s.print(std::cout);

  const VariantTotals& base = totals["base"];
  const VariantTotals& scoap = totals["scoap"];
  char buf[64];
  if (scoap.backtracks > 0) {
    std::snprintf(buf, sizeof buf, "%.2f",
                  static_cast<double>(base.backtracks) /
                      static_cast<double>(scoap.backtracks));
    std::cout << "\nbacktrack reduction (base/scoap): " << buf << "x\n";
    run.report().set_meta("backtrack_reduction", std::string(buf));
  } else {
    std::cout << "\nbacktrack reduction (base/scoap): " << base.backtracks
              << " -> 0\n";
    run.report().set_meta("backtrack_reduction",
                          std::string("inf"));
  }
  if (scoap.compacted > 0) {
    std::snprintf(buf, sizeof buf, "%.2f",
                  static_cast<double>(scoap.patterns) /
                      static_cast<double>(scoap.compacted));
    std::cout << "compaction ratio (scoap patterns/compacted): " << buf
              << "x\n";
    run.report().set_meta("compaction_ratio", std::string(buf));
  }
  return run.finish();
}

}  // namespace

int main(int argc, char** argv) {
  return compsyn::robust::guard_main("table_atpg", argc, argv,
                                     [&] { return run_main(argc, argv); });
}
