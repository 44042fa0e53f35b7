// Shared plumbing for the table harnesses: suite selection, the
// "irredundant starting point" preparation step (the paper's circuits are
// irredundant, hence the irs prefix), and best-of-K resynthesis runs.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "atpg/redundancy.hpp"
#include "core/resynth.hpp"
#include "gen/circuits.hpp"
#include "netlist/equivalence.hpp"
#include "netlist/netlist.hpp"
#include "obs/counters.hpp"
#include "sat/cec.hpp"
#include "sat/session.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "paths/paths.hpp"
#include "robust/guard.hpp"
#include "robust/robust.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace compsyn::bench {

/// Shared observability + robustness wiring for every table harness:
///   --report=<file>     write a machine-readable JSON run report
///   --trace             print the span/counter summary after the tables
///   --trace-out=<file>  write a Chrome trace-event profile (chrome://tracing
///                       or https://ui.perfetto.dev; DESIGN.md §12)
///   --events=<file>     stream a compsyn-events-v1 JSONL event log
///   --progress[=SECS]   stderr heartbeat, at most one line per SECS (bare
///                       flag: every second); stdout untouched
///   --budget=TICKS      deterministic anytime budget (DESIGN.md §10)
///   --deadline=SECS     wall-clock watchdog (non-deterministic)
///   --inject=SPEC       scripted fault injection for chaos testing
/// The observability flags set the recording level (obs_cli_start, obs.hpp),
/// so without them the binaries' stdout is byte-identical to an
/// uninstrumented build; the profile-grade flags (--trace-out/--events/
/// --progress) select the extended level, which adds the histograms/phases/
/// hot_cones report sections -- plain --report output stays byte-identical
/// either way. The flow runs on one thread (DESIGN.md §9). The stop flags
/// are the run's robust::RunControls; a budget trip winds the tables down
/// to their verified best-so-far state and finish() returns exit code 20.
class BenchRun {
 public:
  BenchRun(std::string name, const Cli& cli)
      : cli_(cli),
        report_(std::move(name)),
        controls_(robust::RunControls::from_cli(cli)) {
    if (!obs_cli_start(cli_, report_.name())) std::exit(2);
    Json flags = Json::object();
    for (const auto& [flag, value] : cli_.flags()) flags.set(flag, value);
    report_.set_meta("flags", std::move(flags));
  }

  RunReport& report() { return report_; }

  /// Records the standard per-circuit stats line under the "circuits" section.
  void add_circuit(const std::string& role, const Netlist& nl) {
    Json rec = Json::object();
    rec.set("role", role);
    rec.set("name", nl.name());
    rec.set("inputs", static_cast<std::uint64_t>(nl.inputs().size()));
    rec.set("outputs", static_cast<std::uint64_t>(nl.outputs().size()));
    rec.set("gates", nl.equivalent_gate_count());
    const std::uint64_t paths = count_paths_clamped(nl).total;
    rec.set("paths", paths >= kPathCountSaturated ? Json(format_path_total(paths))
                                                  : Json(paths));
    rec.set("depth", static_cast<std::uint64_t>(nl.depth()));
    report_.add_record("circuits", std::move(rec));
  }

  /// Flag-gated artifacts + unknown-flag warnings; returns the process exit
  /// code of the run's status (1 when a requested report could not be
  /// written, 20 when the tick budget stopped the tables early).
  int finish() {
    const robust::StopReason reason = robust::stop_reason();
    robust::RunStatus status = robust::run_status_for(reason);
    controls_.write_meta(report_, status, reason, /*with_budget=*/false);
    if (!obs_cli_finish(cli_, report_, robust::to_string(status), std::cout)) {
      status = robust::RunStatus::Error;
    }
    cli_.warn_unrecognized(std::cerr);
    return robust::exit_code(status, reason, robust::cancel_signal());
  }

 private:
  const Cli& cli_;
  RunReport report_;
  const robust::RunControls controls_;
};

/// Suite selection: --circuits=a,b,c overrides; --full includes the largest
/// entries; the default keeps the whole binary in the tens-of-seconds range.
inline std::vector<std::string> select_circuits(const Cli& cli,
                                                std::vector<std::string> defaults) {
  if (cli.has("circuits")) {
    std::vector<std::string> out;
    for (const std::string& s : split(cli.get("circuits"), ',')) {
      if (!s.empty()) out.push_back(s);
    }
    return out;
  }
  if (cli.has("full")) {
    std::vector<std::string> out;
    for (const auto& e : benchmark_suite()) out.push_back(e.name);
    return out;
  }
  return defaults;
}

/// The paper starts from irredundant circuits ("irs" prefix): build the
/// named benchmark and remove redundancies.
inline Netlist prepare_irredundant(const std::string& name) {
  Netlist nl = make_benchmark(name);
  remove_redundancies(nl);
  nl.set_name("irs_" + name);
  return nl;
}

struct BestOfK {
  Netlist netlist;
  unsigned k = 0;
  ResynthStats stats;
};

/// Runs the procedure at each K and keeps the best result (Procedure 2:
/// fewest gates, then fewest paths; Procedure 3: fewest paths), mirroring
/// the per-circuit K choice reported in Tables 2 and 5.
inline BestOfK best_of_k(const Netlist& base, ResynthObjective objective,
                         const std::vector<unsigned>& ks) {
  BestOfK best;
  bool first = true;
  for (unsigned k : ks) {
    Netlist nl = base;
    ResynthOptions opt;
    opt.objective = objective;
    opt.k = k;
    ResynthStats st = resynthesize(nl, opt);
    const bool better =
        objective == ResynthObjective::Gates
            ? (st.gates_after < best.stats.gates_after ||
               (st.gates_after == best.stats.gates_after &&
                st.paths_after < best.stats.paths_after))
            : (st.paths_after < best.stats.paths_after);
    if (first || better) {
      best.netlist = std::move(nl);
      best.k = k;
      best.stats = st;
      first = false;
    }
  }
  return best;
}

/// Reads --verify=sim|sat|both (default sim, the historical behaviour);
/// exits with code 2 on an unrecognised value.
inline VerifyMode bench_verify_mode(const Cli& cli) {
  const std::string v = cli.get("verify", "sim");
  const auto mode = parse_verify_mode(v);
  if (!mode) {
    std::cerr << "error: --verify=" << v << " (expected sim, sat, or both)\n";
    std::exit(2);
  }
  return *mode;
}

/// Sanity net: every harness verifies the transformation preserved the
/// function before reporting numbers. Sim (the default) keeps the historical
/// random/exhaustive check; Sat/Both additionally require a real proof --
/// anything short of one (including a SAT budget blow-out) is fatal.
inline void verify_or_die(const Netlist& a, const Netlist& b, const std::string& what,
                          VerifyMode mode = VerifyMode::Sim) {
  Rng rng(0xC0FFEE);
  // All verification proofs share one session: circuits that reappear
  // across checks (the resynthesized "best" is verified against the
  // original AND against its redundancy-removed form) keep their encodings,
  // and an unchanged circuit pair closes structurally for free.
  static SatSession session;
  const auto res = mode == VerifyMode::Sim
                       ? check_equivalent(a, b, rng, /*random_words=*/64)
                       : check_equivalent_mode(a, b, rng, mode,
                                               /*random_words=*/64,
                                               kDefaultExhaustiveLimit,
                                               {kDefaultCecConflicts, 0},
                                               &session);
  if (!res.equivalent) {
    std::cerr << "FATAL: " << what << " changed the circuit function ("
              << res.message << ")\n";
    std::exit(1);
  }
  if (mode != VerifyMode::Sim && !res.proven) {
    std::cerr << "FATAL: " << what << " could not be proven equivalent ("
              << res.message << ")\n";
    std::exit(1);
  }
}

}  // namespace compsyn::bench
