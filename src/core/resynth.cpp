#include "core/resynth.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <memory>
#include <optional>

#include "core/multi_unit.hpp"
#include "core/sdc.hpp"
#include "robust/inject.hpp"
#include "robust/robust.hpp"
#include "obs/counters.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "paths/paths.hpp"

namespace compsyn {
namespace {

bool is_gate(const Netlist& nl, NodeId n) {
  const GateType t = nl.node(n).type;
  return t != GateType::Input && t != GateType::Const0 && t != GateType::Const1;
}

struct Candidate {
  bool valid = false;
  Cone cone;
  ComparisonSpec spec;
  std::optional<MultiUnitSpec> multi;  // set for Section 6 multi-unit rewrites
  std::vector<unsigned> kept;      // cone-leaf indices the function depends on
  std::vector<NodeId> removable;   // interiors freed by the replacement
  bool is_constant = false;        // cone computes a constant
  bool constant_value = false;
  std::int64_t delta_gates = 0;    // equivalent 2-input gates saved
  std::int64_t delta_paths = 0;    // paths on g saved
};

/// Lexicographic comparison under the configured objective: true if a
/// valid candidate scoring (gates, paths) on a cone of `interior` gates is
/// strictly better than b.
bool beats(std::int64_t gates, std::int64_t paths, std::size_t interior,
           const Candidate& b, const ResynthOptions& opt) {
  if (!b.valid) return true;
  switch (opt.objective) {
    case ResynthObjective::Gates:
      if (gates != b.delta_gates) return gates > b.delta_gates;
      return paths > b.delta_paths;
    case ResynthObjective::Paths:
      if (paths != b.delta_paths) return paths > b.delta_paths;
      // Tie-breaks only; Procedure 3 has no gate objective. Of two equal
      // candidates the larger cone wins: over the complete cone set that
      // ends Table 5 with 4% fewer gates than taking the first-listed cone,
      // at no cost in paths (EXPERIMENTS.md, Table 5).
      if (gates != b.delta_gates) return gates > b.delta_gates;
      return interior > b.cone.interior.size();
    case ResynthObjective::Combined: {
      const double sa = opt.weight_gates * static_cast<double>(gates) +
                        opt.weight_paths * static_cast<double>(paths);
      const double sb = opt.weight_gates * static_cast<double>(b.delta_gates) +
                        opt.weight_paths * static_cast<double>(b.delta_paths);
      if (sa != sb) return sa > sb;
      return gates > b.delta_gates;
    }
  }
  return false;
}

/// True if applying the candidate is a strict improvement (avoids churn and
/// guarantees termination).
bool improves(const Candidate& c, const ResynthOptions& opt) {
  if (!c.valid) return false;
  switch (opt.objective) {
    case ResynthObjective::Gates:
      return c.delta_gates > 0 || (c.delta_gates == 0 && c.delta_paths > 0);
    case ResynthObjective::Paths:
      return c.delta_paths > 0;
    case ResynthObjective::Combined:
      return opt.weight_gates * static_cast<double>(c.delta_gates) +
                 opt.weight_paths * static_cast<double>(c.delta_paths) >
             0.0;
  }
  return false;
}

/// What every spec of one cone shares: the cone, the support-reduced
/// function and, once a spec is scored, the gates a replacement would free.
/// A spec's candidate copies it only when the spec wins.
struct ConeProto {
  const Netlist* nl = nullptr;
  const RootCones* cones = nullptr;
  std::size_t index = 0;          // the cone is (*cones)[index]
  unsigned n = 0;                 // variables the function depends on
  std::array<unsigned, CutDatabase::kMaxLeaves> kept{};  // their cone-leaf indices
  std::uint64_t word = 0;         // the reduced function at K <= 6
  std::optional<TruthTable> table;  // ... as a table: above K = 6, or once asked for
  bool have_removable = false;
  std::vector<NodeId> removable;  // interiors freed by the replacement
  std::int64_t n_old = 0;         // equivalent gates freed

  const RootCones::Entry& cone() const { return (*cones)[index]; }
  NodeId leaf(unsigned v) const { return cone().leaves[kept[v]]; }

  /// The reduced function as a table, built on first use at K <= 6: only
  /// don't-care and multi-unit identification need it.
  const TruthTable& reduced() {
    if (!table) table = TruthTable::from_word(n, word);
    return *table;
  }

  /// Equivalent gates freed, counted on first use: most cones yield no
  /// candidate and never need it.
  std::int64_t freed() {
    if (!have_removable) {
      n_old = static_cast<std::int64_t>(removable_gate_count(
          *nl, cones->root(), cone().interior, &removable));
      have_removable = true;
    }
    return n_old;
  }

  /// A candidate replacing this cone, with the fields every kind shares.
  Candidate candidate(std::int64_t delta_gates, std::int64_t delta_paths) const {
    Candidate c;
    c.valid = true;
    c.cone = cones->cone(index);
    c.kept.assign(kept.begin(), kept.begin() + n);
    c.removable = removable;
    c.delta_gates = delta_gates;
    c.delta_paths = delta_paths;
    return c;
  }
};

/// Scores one spec (or multi-unit spec) of a cone from its unit's `cost` and
/// makes it `best` when it is strictly better. Procedure 2 drops a spec that
/// would increase gates. The candidate is built only for a winner.
void consider_spec(ConeProto& proto, std::uint64_t np_g,
                   const std::vector<std::uint64_t>& np,
                   const ComparisonSpec* spec, const MultiUnitSpec* multi,
                   const UnitCost& cost, const ResynthOptions& opt,
                   Candidate& best) {
  const std::int64_t delta_gates =
      proto.freed() - static_cast<std::int64_t>(cost.equiv_gates);
  if (opt.objective == ResynthObjective::Gates && delta_gates < 0) return;
  std::uint64_t paths_new = 0;
  for (unsigned v = 0; v < proto.n; ++v) paths_new += np[proto.leaf(v)] * cost.kp[v];
  const std::int64_t delta_paths = static_cast<std::int64_t>(np_g) -
                                   static_cast<std::int64_t>(paths_new);
  if (!beats(delta_gates, delta_paths, proto.cone().interior.size(), best, opt)) {
    return;
  }
  best = proto.candidate(delta_gates, delta_paths);
  if (multi) best.multi = *multi;
  else best.spec = *spec;
}

/// The don't-care identification step for one cone (Section 6 (1)): folds
/// every qualifying DC spec into `best`.
void consider_dc_specs(ConeProto& proto, const ReachabilityOracle& reach,
                       std::uint64_t np_g, const std::vector<std::uint64_t>& np,
                       const ResynthOptions& opt, Candidate& best) {
  // Chaos hook (oracle:N): a timed-out oracle query degrades to the safe
  // over-approximation "every combination reachable" — no don't-cares, so
  // the base candidates stand unmodified.
  if (robust::inject_oracle_timeout()) return;
  std::vector<NodeId> kept_nodes;
  for (unsigned v = 0; v < proto.n; ++v) kept_nodes.push_back(proto.leaf(v));
  const TruthTable care = reach.reachable_combos(kept_nodes);
  if (care.is_const_one()) return;
  for (const ComparisonSpec& spec :
       identify_comparison_dc(proto.reduced(), care, opt.identify)) {
    consider_spec(proto, np_g, np, &spec, nullptr, unit_cost(spec, opt.unit), opt,
                  best);
  }
}

/// Scores every candidate of one cone into `best`, in the order base specs,
/// don't-care specs (when `reach` is non-null), multi-unit rewrite. Every
/// fold replaces only on "strictly better", so the earliest candidate wins
/// ties that beats() leaves.
///
/// At K <= 6 the cone is scored from its cut's function word: a word-level
/// support reduction, then a tier-1 memo probe that returns the specs with
/// their unit costs, so a function met before costs no table, search or
/// unit_cost call.
void consider_cone(const Netlist& nl, const RootCones& cones, std::size_t index,
                   const std::vector<std::uint64_t>& np,
                   const ReachabilityOracle* reach, const ResynthOptions& opt,
                   Candidate& best, ResynthStats& stats) {
  // Per-cone sample: `resynth.cone.ns` histogram plus a trace slice.
  const Span sp("resynth.cone", SpanKind::Sample);
  ConeProto proto;
  proto.nl = &nl;
  proto.cones = &cones;
  proto.index = index;
  if (cones.has_functions()) {
    const Cut& cut = *cones[index].cut;
    proto.n = support_reduced_word(cut.num_leaves, cut.function, &proto.word,
                                   proto.kept.data());
  } else {
    std::vector<unsigned> kept;
    proto.table = cones.function(index).support_reduced(&kept);
    proto.n = static_cast<unsigned>(kept.size());
    std::copy(kept.begin(), kept.end(), proto.kept.begin());
  }
  const std::uint64_t np_g = np[cones.root()];

  if (proto.n == 0) {
    // The cone computes a constant: everything removable goes away.
    ++stats.comparison_cones;
    const auto delta_paths = static_cast<std::int64_t>(np_g);
    if (!beats(proto.freed(), delta_paths, cones[index].interior.size(), best, opt)) {
      return;
    }
    best = proto.candidate(proto.n_old, delta_paths);
    best.is_constant = true;
    best.constant_value = proto.reduced().get(0);
    return;
  }

  const ScoredSpecs scored =
      proto.table ? identify_scored(*proto.table, opt.identify, opt.unit)
                  : identify_scored(proto.n, proto.word, opt.identify, opt.unit);
  const bool comparison = !scored.specs.empty();
  if (comparison) ++stats.comparison_cones;
  for (std::size_t i = 0; i < scored.specs.size(); ++i) {
    consider_spec(proto, np_g, np, &scored.specs[i], nullptr, scored.costs[i], opt,
                  best);
  }
  if (reach != nullptr) consider_dc_specs(proto, *reach, np_g, np, opt, best);
  if (!comparison && opt.max_units > 1) {
    MultiIdentifyOptions mopt;
    mopt.max_units = opt.max_units;
    if (const auto multi = identify_multi_comparison(proto.reduced(), mopt)) {
      consider_spec(proto, np_g, np, nullptr, &*multi,
                    multi_unit_cost(*multi, opt.unit), opt, best);
    }
  }
}

/// Evaluates every cone at root g, in the canonical order (interior size,
/// then leaf list), and returns the best candidate. `reach` is non-null
/// when SDC-aware identification is enabled. Sampled identification
/// (opt.identify.exact == false) draws from the caller-owned Rng in this
/// same cone order.
Candidate best_candidate(const Netlist& nl, const CutDatabase& db,
                         RootCones& cones, NodeId g,
                         const std::vector<std::uint64_t>& np,
                         const ReachabilityOracle* reach,
                         const ResynthOptions& opt, ResynthStats& stats) {
  cones.collect(nl, db, g);
  stats.cones_considered += cones.size();
  // One tick per root plus one per cone evaluated.
  robust::charge(1 + cones.size());
  Candidate best;
  for (std::size_t i = 0; i < cones.size(); ++i) {
    robust::poll_cancellation();
    consider_cone(nl, cones, i, np, reach, opt, best, stats);
  }
  return best;
}

/// One full sweep; returns the number of replacements applied. Sets
/// *stopped when the sweep wound down early (budget or cancellation); the
/// netlist is then valid and function-equivalent — it holds exactly the
/// replacements committed before the stop, each applied atomically between
/// two root visits.
std::uint64_t run_pass(Netlist& nl, const ResynthOptions& opt,
                       ResynthStats& stats, bool* stopped) {
  const std::vector<NodeId> order = nl.topo_order();  // snapshot
  const PathCounts pc = count_paths_clamped(nl);
  std::vector<char> marked(nl.size(), 0);
  std::vector<char> skip(nl.size(), 0);
  for (NodeId o : nl.outputs()) marked[o] = 1;

  // Node functions never change during a pass (replacements are
  // function-preserving), so one reachability oracle serves the whole pass;
  // nodes created mid-pass simply fall back to "everything reachable".
  // Small circuits sweep the whole input space exactly; wider ones decide
  // each combination by incremental SAT.
  std::unique_ptr<ReachabilityOracle> reach;
  if (opt.use_sdc) {
    if (nl.inputs().size() <= opt.sdc_max_inputs) {
      reach = std::make_unique<ReachabilityTable>(nl, opt.sdc_max_inputs);
    } else if (opt.sdc_sat) {
      reach = std::make_unique<SatReachability>(nl);
    }
  }

  // One cut database serves the whole pass. Roots are visited in reverse
  // topological order, and a commit at g' changes only g', nodes that die
  // (they reached the outputs only through g') and new unit gates feeding
  // g': none of them is in the fanin cone of a root visited later, so those
  // roots' cuts are still exact. A cancellation during the build ends the
  // pass before its first root.
  std::optional<CutDatabase> db;
  try {
    const Span sp("resynth.cuts");
    db.emplace(nl, opt.k);
  } catch (const robust::CancelledError&) {
    *stopped = true;
    return 0;
  }
  RootCones cones;

  std::uint64_t replacements = 0;
  std::uint64_t roots_done = 0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId g = *it;
    if (nl.is_dead(g) || !is_gate(nl, g)) continue;
    if (!marked[g] || skip[g]) continue;

    // Decision point: the tick total here is a pure function of the input,
    // so a budget trip stops every run at the same root. Cancellation
    // observed here (or thrown from a per-cone poll below) abandons only the
    // current root — nothing of it has been committed yet.
    if (robust::should_stop()) {
      *stopped = true;
      break;
    }
    Candidate cand;
    {
      // Hot-cone attribution: whole-root candidate search time, keyed by
      // the root gate's name (synthesized gates without one key as
      // "n<id>").
      Span root_span(nl.node(g).name, SpanKind::Root, g);
      const std::uint64_t cones_before = stats.cones_considered;
      try {
        cand = best_candidate(nl, *db, cones, g, pc.np, reach.get(), opt, stats);
      } catch (const robust::CancelledError&) {
        *stopped = true;
        break;
      }
      root_span.set_count(stats.cones_considered - cones_before);
    }
    // Progress over visited roots; `total` is the topo-order upper bound
    // (the sweep skips dead/unmarked nodes), so a completed sweep closes
    // with its own done == total record below.
    telemetry_progress("resynth.roots", ++roots_done, order.size());

    if (cand.valid && improves(cand, opt)) {
      if (cand.is_constant) {
        nl.redefine(g, cand.constant_value ? GateType::Const1 : GateType::Const0, {});
      } else {
        std::vector<NodeId> leaves;
        leaves.reserve(cand.kept.size());
        for (unsigned v : cand.kept) leaves.push_back(cand.cone.leaves[v]);
        const UnitBuildResult built =
            cand.multi ? build_multi_unit(nl, *cand.multi, leaves, opt.unit)
                       : build_comparison_unit(nl, cand.spec, leaves, opt.unit);
        nl.redefine(g, GateType::Buf, {built.output});
      }
      ++replacements;
      // Gates freed by the replacement become dead immediately so that later
      // shared-gate analyses see accurate fanouts.
      nl.sweep();
      for (NodeId r : cand.removable) {
        if (r != g) skip[r] = 1;
      }
      for (NodeId leaf : cand.cone.leaves) {
        if (is_gate(nl, leaf) && !nl.is_dead(leaf)) marked[leaf] = 1;
      }
    } else {
      // Keep the existing gate; continue the sweep through its fanins.
      for (NodeId f : nl.node(g).fanins) {
        if (is_gate(nl, f)) marked[f] = 1;
      }
    }
  }
  if (!*stopped) telemetry_progress("resynth.roots", roots_done, roots_done);
  return replacements;
}

}  // namespace

ResynthStats resynthesize(Netlist& nl, const ResynthOptions& opt,
                          const PassBoundary& on_boundary,
                          const ResynthStats* resume_from) {
  const Span whole("resynth");
  ResynthStats stats;
  if (resume_from != nullptr) {
    stats = *resume_from;
  } else {
    stats.gates_before = nl.equivalent_gate_count();
    stats.paths_before = count_paths_clamped(nl).total;
    if (on_boundary) on_boundary(nl, stats);
  }
  // Passes repeat until one replaces nothing (the fixpoint) or max_passes.
  while (stats.passes < opt.max_passes &&
         (stats.history.empty() || stats.history.back().replacements != 0)) {
    // Pass-boundary decision point: a budget that tripped during an
    // earlier stage (or the previous pass) stops here before any work.
    if (robust::should_stop()) {
      stats.stop_reason = robust::stop_reason();
      stats.status = robust::run_status_for(stats.stop_reason);
      break;
    }
    ++stats.passes;
    std::uint64_t replaced = 0;
    bool stopped = false;
    {
      const Span sp("resynth.pass");
      replaced = run_pass(nl, opt, stats, &stopped);
      stats.replacements += replaced;
      nl.simplify();
    }
    ResynthPassRecord rec;
    rec.pass = stats.passes;
    rec.replacements = replaced;
    rec.gates = nl.equivalent_gate_count();
    rec.paths = count_paths_clamped(nl).total;
    stats.history.push_back(rec);
    if (stopped) {
      stats.stop_reason = robust::stop_reason();
      stats.status = robust::run_status_for(stats.stop_reason);
      break;
    }
    if (on_boundary) on_boundary(nl, stats);
  }
  stats.gates_after = nl.equivalent_gate_count();
  stats.paths_after = count_paths_clamped(nl).total;
  // Counters mirror the struct so cross-run aggregates line up with the
  // per-run stats; batched here to keep the sweep itself untouched.
  Counters::incr("resynth.runs");
  Counters::incr("resynth.passes", stats.passes);
  Counters::incr("resynth.replacements", stats.replacements);
  Counters::incr("resynth.cones_considered", stats.cones_considered);
  Counters::incr("resynth.comparison_cones", stats.comparison_cones);
  if (stats.gates_before >= stats.gates_after) {
    Counters::incr("resynth.gates_saved", stats.gates_before - stats.gates_after);
  }
  if (stats.paths_before >= stats.paths_after) {
    Counters::incr("resynth.paths_saved", stats.paths_before - stats.paths_after);
  }
  return stats;
}

ResynthStats procedure2(Netlist& nl, unsigned k) {
  ResynthOptions opt;
  opt.objective = ResynthObjective::Gates;
  opt.k = k;
  return resynthesize(nl, opt);
}

ResynthStats procedure3(Netlist& nl, unsigned k) {
  ResynthOptions opt;
  opt.objective = ResynthObjective::Paths;
  opt.k = k;
  return resynthesize(nl, opt);
}

}  // namespace compsyn
