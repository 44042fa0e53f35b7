#include "atpg/redundancy.hpp"

#include <algorithm>
#include <iostream>
#include <optional>

#include "atpg/scoap.hpp"
#include "exec/exec.hpp"
#include "faults/fault.hpp"
#include "faults/fault_sim.hpp"
#include "obs/counters.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sat/session.hpp"
#include "util/rng.hpp"

namespace compsyn {
namespace {

/// Substitutes the constant `value` for the faulty line. Returns false when
/// the site cannot be substituted (primary-input stems that are also
/// outputs; see below).
bool substitute_constant(Netlist& nl, const StuckFault& f) {
  if (!f.is_stem()) {
    // Branch: only this connection is replaced by the constant.
    NodeId k = nl.add_const(f.value);
    const NodeId src = nl.node(f.node).fanins[static_cast<std::size_t>(f.pin)];
    // replace_fanin rewires every connection from src; for a faithful
    // single-branch substitution rewrite the fanin list positionally.
    std::vector<NodeId> fi = nl.node(f.node).fanins;
    fi[static_cast<std::size_t>(f.pin)] = k;
    nl.redefine(f.node, nl.node(f.node).type, std::move(fi));
    (void)src;
    return true;
  }
  const Node& nd = nl.node(f.node);
  if (nd.type == GateType::Input) {
    // A redundant PI stem: rewire its consumers to a constant. If the PI is
    // itself a primary output we would have to re-home the output marker;
    // this does not occur in practice, so we skip it conservatively.
    if (nd.is_output) return false;
    NodeId k = nl.add_const(f.value);
    const auto fanouts = nl.fanouts()[f.node];  // copy: we mutate below
    for (NodeId y : fanouts) nl.replace_fanin(y, f.node, k);
    return true;
  }
  nl.redefine(f.node, f.value ? GateType::Const1 : GateType::Const0, {});
  return true;
}

}  // namespace

namespace {

/// A fault enumerated before earlier substitutions may reference logic that
/// has since changed; skip sites that no longer exist in the live netlist.
bool fault_site_stale(const Netlist& nl, const StuckFault& f) {
  if (nl.is_dead(f.node)) return true;
  const Node& nd = nl.node(f.node);
  if (f.is_stem()) {
    return nd.type == GateType::Const0 || nd.type == GateType::Const1;
  }
  if (static_cast<std::size_t>(f.pin) >= nd.fanins.size()) return true;
  const GateType src = nl.node(nd.fanins[static_cast<std::size_t>(f.pin)]).type;
  return src == GateType::Const0 || src == GateType::Const1;
}

}  // namespace

namespace {

/// Maximum speculation window: how many faults are decided against one
/// netlist snapshot before the verdicts are committed in fault order. Larger
/// windows expose more parallelism; every substitution discards the
/// not-yet-committed remainder of its window (those faults are re-decided),
/// so the window adapts: it resets to 1 after a substitution (a
/// redundancy-rich stretch proceeds serially) and doubles after every window
/// that commits at least one PODEM verdict without a substitution, up to
/// this cap. Stale fault sites are skipped while a window is formed, so they
/// take no slot and cannot make a window look clean. The evolution depends
/// only on the committed verdicts, never on the job count.
constexpr std::size_t kMaxCommitWindow = 32;

/// Worker-side fault evaluation: PODEM only, against a read-only snapshot.
/// An aborted fault is decided afterwards by SAT at the serial commit point
/// (a session is single-threaded), in fault order, so the verdict stream is
/// identical at any job count.
AtpgStatus evaluate_fault(const Netlist& nl, const StuckFault& f,
                          const AtpgOptions& atpg) {
  const Span sp("atpg.fault", SpanKind::Sample);
  return run_podem(nl, f, atpg).status;
}

/// SAT decisions for one netlist state: the session encodes the circuit once
/// and shares learned clauses across the state's aborted faults. It opens on
/// the state's first abort, so a run in which PODEM decides every fault
/// executes no SAT code; the owner resets it after every mutation.
class StateSession {
 public:
  SatFaultStatus decide(const Netlist& nl, const StuckFault& f,
                        const SolverBudget& budget) {
    if (!session_) {
      session_.emplace();
      cid_ = session_->add_circuit(nl);
    }
    return session_->prove_fault(cid_, f, budget).status;
  }
  void reset() { session_.reset(); }

 private:
  std::optional<SatSession> session_;
  SatSession::CircuitId cid_ = 0;
};

/// Flushes the tallies into the obs counters (no-ops while recording is
/// off); batched once per remove_redundancies call.
void publish_stats(const RedundancyRemovalStats& stats) {
  Counters::incr("redundancy.faults_checked", stats.faults_checked);
  Counters::incr("redundancy.removed", stats.removed);
  Counters::incr("redundancy.speculative_discarded", stats.speculative_discarded);
  Counters::incr("redundancy.aborted", stats.aborted);
  Counters::incr("redundancy.aborted_unresolved", stats.aborted_unresolved);
  Counters::incr("redundancy.sat_fallback.proofs", stats.sat_proved_untestable);
  Counters::incr("redundancy.sat_fallback.tests", stats.sat_found_tests);
  Counters::incr("redundancy.sat_fallback.unknown", stats.sat_unknown);
}

}  // namespace

RedundancyRemovalStats remove_redundancies(Netlist& nl,
                                           const RedundancyRemovalOptions& opt) {
  RedundancyRemovalStats stats;
  // Multiple substitutions are applied within one sweep, but each
  // untestability proof runs against the netlist as already modified, which
  // keeps every individual substitution sound. (Batching proofs against a
  // single snapshot would not be: removing one redundancy can make another
  // previously redundant fault testable.) A final clean sweep certifies the
  // fixpoint.
  std::uint64_t round_unresolved = 0;
  bool fixpoint = false;
  bool stopped = false;
  // One SAT session per netlist state: any mutation (simplify,
  // substitution) resets it, because proofs must run against the netlist as
  // already modified. Non-legacy search strategies read NodeId-indexed
  // SCOAP/level tables, which go stale at exactly the same points, so both
  // are invalidated together and rebuilt lazily when next needed.
  StateSession sat;
  AtpgOptions atpg_opt = opt.atpg;
  const bool guided_search = !atpg_opt.strategy.is_legacy();
  std::optional<AtpgGuidance> guidance;
  const auto reset_state = [&] {
    guidance.reset();
    sat.reset();
  };
  for (unsigned round = 0; round < opt.max_rounds && !stopped; ++round) {
    // Round boundary: a budget trip (or pending cancel) stops before any
    // new fault is examined; undecided faults stay in the circuit.
    if (robust::should_stop()) {
      stopped = true;
      break;
    }
    nl.simplify();
    reset_state();
    bool removed_this_round = false;
    round_unresolved = 0;
    const auto all_faults = enumerate_faults(nl, /*collapse=*/true);
    // Random-pattern filter: anything detected is testable, no proof needed.
    std::vector<StuckFault> faults;
    try {
      const Span sp("rr.filter");
      if (opt.random_filter_blocks > 0 && !nl.inputs().empty()) {
        FaultSimulator sim(nl, all_faults);
        Rng rng(opt.random_filter_seed);
        std::vector<std::uint64_t> pi(nl.inputs().size());
        for (unsigned b = 0; b < opt.random_filter_blocks && sim.remaining(); ++b) {
          for (auto& w : pi) w = rng.next();
          sim.simulate_block(pi, 64ull * b);
        }
        for (std::size_t i = 0; i < all_faults.size(); ++i) {
          if (!sim.is_detected(i)) faults.push_back(all_faults[i]);
        }
      } else {
        faults = all_faults;
      }
    } catch (const robust::CancelledError&) {
      stopped = true;
      break;
    }
    // Speculative windowed commit (exec/exec.hpp): the window is formed
    // serially -- stale sites are skipped against the current netlist, as
    // the serial sweep would skip them at their turn -- and up to `window`
    // live faults are decided in parallel against that netlist, then the
    // verdicts are committed serially in fault order. The first
    // substitution mutates the netlist, which invalidates the verdicts
    // behind it -- those faults are re-decided in the next window. Every
    // committed verdict was therefore computed against exactly the netlist
    // state the serial sweep would have used, so verdicts and stats match
    // the serial order at any job count. The same windowed path runs at
    // --jobs=1 so the exec.* counters are jobs-invariant too.
    std::size_t idx = 0;
    std::size_t window = 1;
    std::vector<std::size_t> slots;  // fault indices decided in this window
    while (idx < faults.size()) {
      // Window boundary: the serial commit point. Ticks charged by PODEM
      // and SAT land here in a jobs-invariant total (the set of faults
      // decided per window never depends on the job count), so a budget
      // stop falls between the same two windows on every run.
      if (robust::should_stop()) {
        stopped = true;
        break;
      }
      slots.clear();
      std::size_t end = idx;
      for (; end < faults.size() && slots.size() < window; ++end) {
        if (!fault_site_stale(nl, faults[end])) slots.push_back(end);
      }
      std::vector<AtpgStatus> verdicts;
      if (!slots.empty()) {
        nl.topo_order();
        nl.fanouts();  // warm the lazy caches before the parallel region
        if (guided_search && !guidance) {
          guidance.emplace(AtpgGuidance::build(nl));
        }
        atpg_opt.guidance = guidance ? &*guidance : nullptr;
        try {
          verdicts = parallel_map<AtpgStatus>(
              slots.size(), /*grain=*/1,
              [&](std::size_t k) {
                return evaluate_fault(nl, faults[slots[k]], atpg_opt);
              });
        } catch (const robust::CancelledError&) {
          stopped = true;
          break;
        }
      }
      bool mutated = false;
      std::size_t used = 0;  // verdicts taken up by the commit loop
      while (idx < end && !mutated) {
        const StuckFault& f = faults[idx];
        const bool decided = used < slots.size() && slots[used] == idx;
        ++idx;
        // Serial commit point: idx's evolution is jobs-invariant, so the
        // progress record stream is too.
        telemetry_progress("redundancy.faults", idx, faults.size());
        if (!decided) continue;  // stale site
        const AtpgStatus podem = verdicts[used++];
        ++stats.faults_checked;
        bool untestable = podem == AtpgStatus::Untestable;
        if (podem == AtpgStatus::Aborted) {
          // PODEM gave up: SAT decides, here at the serial commit point and
          // in fault order, so the verdict stream is identical at any job
          // count.
          ++stats.aborted;
          SatFaultStatus st;
          try {
            st = sat.decide(nl, f, opt.sat_budget);
          } catch (const robust::CancelledError&) {
            stopped = true;
            break;
          }
          switch (st) {
            case SatFaultStatus::Untestable:
              ++stats.sat_proved_untestable;
              untestable = true;
              break;
            case SatFaultStatus::Testable:
              ++stats.sat_found_tests;
              break;
            case SatFaultStatus::Unknown:
              ++stats.sat_unknown;
              ++round_unresolved;
              break;
          }
        }
        if (!untestable) continue;
        if (substitute_constant(nl, f)) {
          ++stats.removed;
          removed_this_round = true;
          nl.simplify();
          reset_state();
          mutated = true;  // verdicts past this fault are stale: re-decide
        }
      }
      // Verdicts behind a substitution (or a stop) are dropped unused.
      stats.speculative_discarded += slots.size() - used;
      if (stopped) break;
      if (mutated) {
        window = 1;
      } else if (used > 0) {
        window = std::min(window * 2, kMaxCommitWindow);
      }
    }
    if (stopped) break;
    if (!removed_this_round) {
      fixpoint = true;
      break;
    }
  }
  nl.simplify();
  // Only the final round's unresolved faults matter: earlier rounds were
  // re-examined after the netlist changed.
  stats.aborted_unresolved = round_unresolved;
  stats.irredundant = !stopped && fixpoint && round_unresolved == 0;
  if (stopped) {
    stats.stop_reason = robust::stop_reason();
    stats.status = robust::run_status_for(stats.stop_reason);
  }
  publish_stats(stats);
  if (stats.aborted_unresolved > 0) {
    std::cerr << "warning: redundancy removal finished with "
              << stats.aborted_unresolved
              << " aborted fault(s) left unresolved (neither proven "
                 "untestable nor given a test)\n";
  }
  return stats;
}

bool is_irredundant(const Netlist& nl, const AtpgOptions& opt) {
  // The netlist is const here, so one SAT session serves every aborted
  // fault and one guidance build every strategy-driven PODEM call.
  AtpgOptions eff = opt;
  std::optional<AtpgGuidance> guidance;
  if (!eff.strategy.is_legacy() && eff.guidance == nullptr) {
    guidance.emplace(AtpgGuidance::build(nl));
    eff.guidance = &*guidance;
  }
  StateSession sat;
  for (const StuckFault& f : enumerate_faults(nl, /*collapse=*/true)) {
    const AtpgStatus st = run_podem(nl, f, eff).status;
    if (st == AtpgStatus::Detected) continue;
    // Same completion step as remove_redundancies: let SAT decide.
    if (st == AtpgStatus::Aborted &&
        sat.decide(nl, f, {kDefaultFaultConflicts, 0}) ==
            SatFaultStatus::Testable) {
      continue;
    }
    return false;
  }
  return true;
}

}  // namespace compsyn
