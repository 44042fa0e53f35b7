#include "atpg/redundancy.hpp"

#include <cassert>
#include <iostream>
#include <optional>

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
  Counters::incr("redundancy.aborted", stats.aborted);
  Counters::incr("redundancy.aborted_unresolved", stats.aborted_unresolved);
  Counters::incr("redundancy.sat_fallback.proofs", stats.sat_proved_untestable);
  Counters::incr("redundancy.sat_fallback.tests", stats.sat_found_tests);
  Counters::incr("redundancy.sat_fallback.unknown", stats.sat_unknown);
}

}  // namespace

RedundancyRemovalStats remove_redundancies(Netlist& nl,
                                           const RedundancyRemovalOptions& opt) {
  assert(opt.atpg.strategy.is_legacy());
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
  // already modified.
  StateSession sat;
  for (unsigned round = 0; round < opt.max_rounds && !stopped; ++round) {
    // Round boundary: a budget trip (or pending cancel) stops before any
    // new fault is examined; undecided faults stay in the circuit.
    if (robust::should_stop()) {
      stopped = true;
      break;
    }
    nl.simplify();
    sat.reset();
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
    // Each fault is decided against the live netlist, in fault order: skip a
    // stale site, PODEM, SAT on a PODEM abort, substitute an untestable one.
    for (std::size_t idx = 0; idx < faults.size(); ++idx) {
      // Decision point: the ticks PODEM and SAT charged so far are a pure
      // function of the input, so a budget stop falls before the same fault
      // on every run.
      if (robust::should_stop()) {
        stopped = true;
        break;
      }
      const StuckFault& f = faults[idx];
      telemetry_progress("redundancy.faults", idx + 1, faults.size());
      if (fault_site_stale(nl, f)) continue;
      ++stats.faults_checked;
      bool untestable = false;
      try {
        AtpgStatus podem;
        {
          const Span sp("atpg.fault", SpanKind::Sample);
          podem = run_podem(nl, f, opt.atpg).status;
        }
        untestable = podem == AtpgStatus::Untestable;
        if (podem == AtpgStatus::Aborted) {
          // PODEM gave up: SAT decides.
          ++stats.aborted;
          switch (sat.decide(nl, f, opt.sat_budget)) {
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
      } catch (const robust::CancelledError&) {
        stopped = true;
        break;
      }
      if (untestable && substitute_constant(nl, f)) {
        ++stats.removed;
        removed_this_round = true;
        nl.simplify();
        sat.reset();
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
  assert(opt.strategy.is_legacy());
  // The netlist is const here, so one SAT session serves every aborted
  // fault.
  StateSession sat;
  for (const StuckFault& f : enumerate_faults(nl, /*collapse=*/true)) {
    const AtpgStatus st = run_podem(nl, f, opt).status;
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
