// NPN-orbit identification memo ablation on the Table 2 suite: the same
// Procedure 2 runs with the orbit tier off and on, netlists asserted
// byte-identical, and the npn_identify_stats() deltas reported per mode.
// The headline metric is the exact-search reduction factor: exact_searches
// counts full exact-engine searches regardless of the toggle, so
// off/on is exactly "searches the orbit tier removed". The same ablation in
// time: each arm's resynthesis runs inside a span, `npn.off.resynth` and
// `npn.on.resynth` (report spans, not counters, so the counters stay a
// deterministic function of the flags). The arms build byte-identical
// netlists and differ only in how identification answers, so the gap
// between the two spans is the identification time the orbit tier saves.
//
// Flags: --npn=off|on|both (default both)   --circuits=a,b,c   --k=5,6
//        --verify=sim|sat|both   --report=<file>.json   --trace
// The stats tallies are process-global relaxed atomics; the flow runs on
// one thread, so the per-mode deltas are a deterministic function of the
// flags.
#include <map>

#include "bench/common.hpp"
#include "bench_io/bench_io.hpp"
#include "core/comparison.hpp"
#include "util/table.hpp"

using namespace compsyn;
using namespace compsyn::bench;

namespace {

struct ModeTotals {
  NpnIdentifyStats stats;              // per-mode delta of the global tallies
  std::uint64_t gates = 0;             // summed over the suite (post best-of-K)
  std::uint64_t paths = 0;
  std::map<std::string, std::string> benches;  // circuit -> .bench text
};

NpnIdentifyStats stats_delta(const NpnIdentifyStats& a, const NpnIdentifyStats& b) {
  NpnIdentifyStats d;
  d.canonicalizations = b.canonicalizations - a.canonicalizations;
  d.orbit_hits = b.orbit_hits - a.orbit_hits;
  d.negative_reuses = b.negative_reuses - a.negative_reuses;
  d.transform_reuses = b.transform_reuses - a.transform_reuses;
  d.positive_fallbacks = b.positive_fallbacks - a.positive_fallbacks;
  d.confirm_rejects = b.confirm_rejects - a.confirm_rejects;
  d.exact_searches = b.exact_searches - a.exact_searches;
  return d;
}

/// best_of_k with the orbit memo forced to one mode (common.hpp's helper
/// keeps the engine defaults; the ablation needs both arms).
BestOfK best_of_k_npn(const Netlist& base, const std::vector<unsigned>& ks,
                      bool npn_memo) {
  BestOfK best;
  bool first = true;
  for (unsigned k : ks) {
    Netlist nl = base;
    ResynthOptions opt;
    opt.objective = ResynthObjective::Gates;
    opt.k = k;
    opt.identify.npn_memo = npn_memo;
    ResynthStats st = resynthesize(nl, opt);
    const bool better = st.gates_after < best.stats.gates_after ||
                        (st.gates_after == best.stats.gates_after &&
                         st.paths_after < best.stats.paths_after);
    if (first || better) {
      best.netlist = std::move(nl);
      best.k = k;
      best.stats = st;
      first = false;
    }
  }
  return best;
}

ModeTotals run_mode(const std::vector<std::string>& circuits,
                    const std::vector<unsigned>& ks, bool npn_memo,
                    VerifyMode verify) {
  // Fresh memo state so each mode starts from the same cold caches and the
  // tier-1 (exact-table) hit stream is identical between the arms.
  clear_exact_identification_memo();
  const NpnIdentifyStats before = npn_identify_stats();
  ModeTotals out;
  for (const std::string& name : circuits) {
    Netlist orig = prepare_irredundant(name);
    BestOfK best;
    {
      const Span sp(npn_memo ? "npn.on.resynth" : "npn.off.resynth");
      best = best_of_k_npn(orig, ks, npn_memo);
    }
    verify_or_die(orig, best.netlist, name + " Procedure 2", verify);
    out.gates += best.netlist.equivalent_gate_count();
    out.paths += count_paths_clamped(best.netlist).total;
    out.benches[name] = write_bench_string(best.netlist.compacted());
  }
  out.stats = stats_delta(before, npn_identify_stats());
  return out;
}

void add_stats_row(Table& t, const std::string& mode, const ModeTotals& m) {
  t.row()
      .add(mode)
      .add(m.stats.exact_searches)
      .add(m.stats.canonicalizations)
      .add(m.stats.orbit_hits)
      .add(m.stats.negative_reuses)
      .add(m.stats.transform_reuses)
      .add(m.stats.positive_fallbacks)
      .add(m.stats.confirm_rejects);
}

Json stats_json(const ModeTotals& m) {
  Json rec = Json::object();
  rec.set("exact_searches", m.stats.exact_searches);
  rec.set("canonicalizations", m.stats.canonicalizations);
  rec.set("orbit_hits", m.stats.orbit_hits);
  rec.set("negative_reuses", m.stats.negative_reuses);
  rec.set("transform_reuses", m.stats.transform_reuses);
  rec.set("positive_fallbacks", m.stats.positive_fallbacks);
  rec.set("confirm_rejects", m.stats.confirm_rejects);
  rec.set("suite_gates", m.gates);
  rec.set("suite_paths", m.paths);
  return rec;
}

int run_main(int argc, char** argv) {
  Cli cli(argc, argv);
  BenchRun run("table2_npn", cli);
  const VerifyMode verify = bench_verify_mode(cli);
  const std::string npn_arg = cli.get("npn", "both");
  if (npn_arg != "off" && npn_arg != "on" && npn_arg != "both") {
    std::cerr << "error: --npn=" << npn_arg << " (expected off, on, or both)\n";
    return 2;
  }
  const auto circuits = select_circuits(
      cli, {"c17", "s27", "add8", "cmp8", "dec5", "mux4", "alu4", "syn150",
            "syn300", "syn600", "syn1000"});
  std::vector<unsigned> ks;
  for (const std::string& s : split(cli.get("k", "5,6"), ',')) {
    if (!s.empty()) ks.push_back(static_cast<unsigned>(std::stoul(s)));
  }
  run.report().set_meta("k", cli.get("k", "5,6"));
  run.report().set_meta("npn", npn_arg);
  {
    Json names = Json::array();
    for (const std::string& c : circuits) names.push(c);
    run.report().set_meta("circuits", std::move(names));
  }

  std::cout << "Table 2 suite: exact identification with the NPN-orbit memo "
            << (npn_arg == "both" ? "off vs on" : npn_arg) << "\n\n";

  std::map<std::string, ModeTotals> modes;
  if (npn_arg != "on") modes["off"] = run_mode(circuits, ks, false, verify);
  if (npn_arg != "off") modes["on"] = run_mode(circuits, ks, true, verify);

  // The memo must be invisible in results: with both arms present, every
  // per-circuit netlist (and therefore the suite gate/path totals) must be
  // byte-identical between them.
  if (modes.count("off") && modes.count("on")) {
    for (const std::string& name : circuits) {
      if (modes["off"].benches[name] != modes["on"].benches[name]) {
        std::cerr << "FATAL: " << name
                  << ": netlist differs between --npn=off and --npn=on\n";
        return 1;
      }
    }
    std::cout << "netlists byte-identical between modes: yes\n\n";
  }

  Table t({"npn memo", "exact searches", "canonicalize", "orbit hits",
           "neg reuse", "xform reuse", "pos fallback", "confirm rej"});
  for (const auto& [mode, totals] : modes) add_stats_row(t, mode, totals);
  t.print(std::cout);

  if (modes.count("off") && modes.count("on")) {
    const double off = static_cast<double>(modes["off"].stats.exact_searches);
    const double on = static_cast<double>(modes["on"].stats.exact_searches);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.2f", on > 0 ? off / on : 0.0);
    std::cout << "\nexact-search reduction factor (off/on): " << buf << "x\n";
    run.report().set_meta("exact_search_reduction", std::string(buf));
  }

  for (const auto& [mode, totals] : modes) {
    Json rec = stats_json(totals);
    rec.set("mode", mode);
    run.report().add_record("npn_modes", std::move(rec));
    // Mode-tagged registry counters so bench_diff --strict-counters gates
    // the ablation in CI: any drift in how much search the orbit tier
    // removes shows up as a counter mismatch between two runs.
    const std::string prefix = "bench.npn." + mode + ".";
    Counters::incr(prefix + "exact_searches", totals.stats.exact_searches);
    Counters::incr(prefix + "orbit_hits", totals.stats.orbit_hits);
    Counters::incr(prefix + "canonicalizations",
                   totals.stats.canonicalizations);
  }
  return run.finish();
}

}  // namespace

int main(int argc, char** argv) {
  return compsyn::robust::guard_main("table2_npn", argc, argv,
                                     [&] { return run_main(argc, argv); });
}
