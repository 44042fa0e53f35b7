#include "sat/solver.hpp"

#include <algorithm>
#include <cassert>

#include "obs/counters.hpp"
#include "robust/inject.hpp"
#include "robust/robust.hpp"

namespace compsyn {

const char* to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::Sat: return "SAT";
    case SolveStatus::Unsat: return "UNSAT";
    case SolveStatus::Unknown: return "UNKNOWN";
  }
  return "?";
}

std::uint64_t luby(std::uint64_t i) {
  // Position i (1-based) either ends a subsequence (i == 2^k - 1, value
  // 2^(k-1)) or lies in the tail, which repeats the sequence from the start.
  for (;;) {
    std::uint64_t pow = 2;  // 2^k, smallest with 2^k - 1 >= i
    while (pow - 1 < i) pow <<= 1;
    if (pow - 1 == i) return pow >> 1;
    i -= (pow >> 1) - 1;
  }
}

Solver::Solver() = default;

SatVar Solver::new_var() {
  const SatVar v = static_cast<SatVar>(assign_.size());
  assign_.push_back(kUndef);
  model_.push_back(kUndef);
  phase_.push_back(kFalse);
  level_.push_back(0);
  reason_.push_back(kNoReason);
  activity_.push_back(0.0);
  seen_.push_back(0);
  heap_pos_.push_back(kNoSatVar);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_insert(v);
  return v;
}

bool Solver::add_clause(std::vector<SatLit> lits) {
  assert(decision_level() == 0 && "clauses may only be added at level 0");
  if (!ok_) return false;
  std::sort(lits.begin(), lits.end());
  std::vector<SatLit> out;
  out.reserve(lits.size());
  for (std::size_t i = 0; i < lits.size(); ++i) {
    const SatLit l = lits[i];
    if (i + 1 < lits.size() && lits[i + 1] == ~l) return true;  // tautology
    if (!out.empty() && out.back() == l) continue;              // duplicate
    const std::uint8_t v = value(l);
    if (v == kTrue) return true;  // already satisfied at level 0
    if (v == kFalse) continue;    // falsified at level 0: drop the literal
    out.push_back(l);
  }
  if (out.empty()) {
    ok_ = false;
    return false;
  }
  if (out.size() == 1) {
    enqueue(out[0], kNoReason);
    if (propagate() != kNoReason) ok_ = false;
    return ok_;
  }
  const std::uint32_t ci = static_cast<std::uint32_t>(clauses_.size());
  clauses_.push_back(std::move(out));
  ++num_problem_clauses_;
  attach_clause(ci);
  return true;
}

void Solver::attach_clause(std::uint32_t ci) {
  const auto& c = clauses_[ci];
  watches_[(~c[0]).x].push_back({ci, c[1]});
  watches_[(~c[1]).x].push_back({ci, c[0]});
}

void Solver::enqueue(SatLit l, std::uint32_t reason) {
  assert(value(l) == kUndef);
  assign_[l.var()] = l.negated() ? kFalse : kTrue;
  level_[l.var()] = decision_level();
  reason_[l.var()] = reason;
  trail_.push_back(l);
}

std::uint32_t Solver::propagate() {
  std::uint32_t confl = kNoReason;
  while (qhead_ < trail_.size()) {
    const SatLit p = trail_[qhead_++];  // p is true; visit watchers of ~p
    ++stats_.propagations;
    auto& ws = watches_[p.x];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < ws.size(); ++i) {
      const Watcher w = ws[i];
      if (value(w.blocker) == kTrue) {
        ws[keep++] = w;
        continue;
      }
      auto& c = clauses_[w.clause];
      // Normalise: the false watched literal goes to slot 1.
      const SatLit false_lit = ~p;
      if (c[0] == false_lit) std::swap(c[0], c[1]);
      if (value(c[0]) == kTrue) {
        ws[keep++] = {w.clause, c[0]};
        continue;
      }
      // Look for a new literal to watch.
      bool moved = false;
      for (std::size_t k = 2; k < c.size(); ++k) {
        if (value(c[k]) != kFalse) {
          std::swap(c[1], c[k]);
          watches_[(~c[1]).x].push_back({w.clause, c[0]});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit or conflicting.
      ws[keep++] = {w.clause, c[0]};
      if (value(c[0]) == kFalse) {
        confl = w.clause;
        qhead_ = trail_.size();
        for (std::size_t j = i + 1; j < ws.size(); ++j) ws[keep++] = ws[j];
        break;
      }
      enqueue(c[0], w.clause);
    }
    ws.resize(keep);
    if (confl != kNoReason) break;
  }
  return confl;
}

void Solver::bump_var(SatVar v) {
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_pos_[v] != kNoSatVar) heap_sift_up(heap_pos_[v]);
}

void Solver::decay_activities() { var_inc_ /= kVarDecay; }

/// Basic (reason-local) minimisation: a learnt literal is redundant when its
/// reason clause exists and every other literal of that reason is already in
/// the learnt clause or assigned at level 0.
bool Solver::lit_redundant(SatLit l) const {
  const std::uint32_t r = reason_[l.var()];
  if (r == kNoReason) return false;
  for (const SatLit q : clauses_[r]) {
    if (q.var() == l.var()) continue;
    if (!seen_[q.var()] && level(q.var()) > 0) return false;
  }
  return true;
}

void Solver::analyze(std::uint32_t confl, std::vector<SatLit>& learnt,
                     unsigned& bt_level) {
  learnt.clear();
  learnt.push_back(kNoSatLit);  // slot for the asserting (first-UIP) literal
  unsigned counter = 0;         // current-level literals still to resolve
  SatLit p = kNoSatLit;
  std::size_t index = trail_.size();

  for (;;) {
    const auto& c = clauses_[confl];
    for (const SatLit q : c) {
      if (p != kNoSatLit && q == p) continue;  // skip the resolved pivot
      const SatVar v = q.var();
      if (seen_[v] || level(v) == 0) continue;
      seen_[v] = 1;
      bump_var(v);
      if (level(v) == decision_level()) {
        ++counter;
      } else {
        learnt.push_back(q);
      }
    }
    // Walk the trail backwards to the next marked current-level literal.
    while (!seen_[trail_[index - 1].var()]) --index;
    p = trail_[--index];
    seen_[p.var()] = 0;
    --counter;
    if (counter == 0) break;
    confl = reason_[p.var()];
    assert(confl != kNoReason);
  }
  learnt[0] = ~p;

  // Minimise: drop redundant non-asserting literals. seen_ stays set for the
  // whole pass (a dropped literal may justify dropping a later one); the
  // pre-minimisation copy lets us clear EVERY marked variable afterwards --
  // stale seen_ flags would silently corrupt the next conflict analysis.
  minimize_buf_.assign(learnt.begin() + 1, learnt.end());
  std::size_t keep = 1;
  for (const SatLit l : minimize_buf_) {
    if (!lit_redundant(l)) learnt[keep++] = l;
  }
  learnt.resize(keep);

  // Backtrack level: highest level among the non-asserting literals.
  bt_level = 0;
  std::size_t max_i = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    if (level(learnt[i].var()) > bt_level) {
      bt_level = level(learnt[i].var());
      max_i = i;
    }
  }
  if (learnt.size() > 1) std::swap(learnt[1], learnt[max_i]);
  for (const SatLit l : minimize_buf_) seen_[l.var()] = 0;
}

void Solver::backtrack_to(unsigned lvl) {
  if (decision_level() <= lvl) return;
  for (std::size_t i = trail_.size(); i > trail_lim_[lvl];) {
    --i;
    const SatVar v = trail_[i].var();
    phase_[v] = assign_[v];  // phase saving
    assign_[v] = kUndef;
    reason_[v] = kNoReason;
    if (heap_pos_[v] == kNoSatVar) heap_insert(v);
  }
  trail_.resize(trail_lim_[lvl]);
  trail_lim_.resize(lvl);
  qhead_ = trail_.size();
}

bool Solver::heap_better(SatVar a, SatVar b) const {
  return activity_[a] > activity_[b] || (activity_[a] == activity_[b] && a < b);
}

void Solver::heap_insert(SatVar v) {
  heap_pos_[v] = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(v);
  heap_sift_up(heap_.size() - 1);
}

void Solver::heap_sift_up(std::size_t i) {
  const SatVar v = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!heap_better(v, heap_[parent])) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = static_cast<std::uint32_t>(i);
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<std::uint32_t>(i);
}

void Solver::heap_sift_down(std::size_t i) {
  const SatVar v = heap_[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= heap_.size()) break;
    if (child + 1 < heap_.size() && heap_better(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!heap_better(heap_[child], v)) break;
    heap_[i] = heap_[child];
    heap_pos_[heap_[i]] = static_cast<std::uint32_t>(i);
    i = child;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<std::uint32_t>(i);
}

SatVar Solver::pick_branch_var() {
  while (!heap_.empty()) {
    const SatVar v = heap_[0];
    heap_[0] = heap_.back();
    heap_pos_[heap_[0]] = 0;
    heap_.pop_back();
    heap_pos_[v] = kNoSatVar;
    if (!heap_.empty()) heap_sift_down(0);
    if (assign_[v] == kUndef) return v;
  }
  return kNoSatVar;
}

SolveStatus Solver::solve(const std::vector<SatLit>& assumptions,
                          const SolverBudget& budget) {
  ++stats_.solves;
  // Chaos hook: a scripted sat:N failure makes this call give up without
  // searching, exactly like an exhausted per-call budget.
  if (robust::inject_sat_failure()) {
    publish_counters();
    return SolveStatus::Unknown;
  }
  if (!ok_) {
    publish_counters();
    return SolveStatus::Unsat;
  }
  const std::uint64_t conflict_start = stats_.conflicts;
  const std::uint64_t prop_start = stats_.propagations;
  std::uint64_t restart_number = 0;
  std::uint64_t conflicts_until_restart = 100 * luby(1);
  std::uint64_t conflicts_this_restart = 0;
  std::vector<SatLit> learnt;
  SolveStatus result = SolveStatus::Unknown;

  for (;;) {
    // Cooperative cancellation: wind down with Unknown at the next
    // iteration. Checked like a budget (never throws) so callers deep in
    // ATPG loops always receive a three-valued answer.
    if (robust::cancel_requested()) break;
    const std::uint32_t confl = propagate();
    if (confl != kNoReason) {
      ++stats_.conflicts;
      ++conflicts_this_restart;
      if (decision_level() == 0) {
        ok_ = false;
        result = SolveStatus::Unsat;
        break;
      }
      unsigned bt_level = 0;
      analyze(confl, learnt, bt_level);
      backtrack_to(bt_level);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kNoReason);
      } else {
        const std::uint32_t ci = static_cast<std::uint32_t>(clauses_.size());
        clauses_.push_back(learnt);
        attach_clause(ci);
        enqueue(learnt[0], ci);
        ++stats_.learned;
      }
      decay_activities();
      if (budget.max_conflicts != 0 &&
          stats_.conflicts - conflict_start >= budget.max_conflicts) {
        break;
      }
      if (budget.max_propagations != 0 &&
          stats_.propagations - prop_start >= budget.max_propagations) {
        break;
      }
      continue;
    }
    if (budget.max_propagations != 0 &&
        stats_.propagations - prop_start >= budget.max_propagations) {
      break;
    }
    if (conflicts_this_restart >= conflicts_until_restart) {
      ++stats_.restarts;
      ++restart_number;
      conflicts_until_restart = 100 * luby(restart_number + 1);
      conflicts_this_restart = 0;
      backtrack_to(0);
      continue;
    }
    // Re-establish the assumption prefix (levels 1..assumptions.size()).
    if (decision_level() < assumptions.size()) {
      const SatLit a = assumptions[decision_level()];
      const std::uint8_t v = value(a);
      if (v == kFalse) {
        // The assumption contradicts level-0 facts or earlier assumptions.
        backtrack_to(0);
        result = SolveStatus::Unsat;
        break;
      }
      trail_lim_.push_back(trail_.size());
      if (v == kUndef) enqueue(a, kNoReason);
      continue;
    }
    const SatVar next = pick_branch_var();
    if (next == kNoSatVar) {
      model_ = assign_;
      backtrack_to(0);
      result = SolveStatus::Sat;
      break;
    }
    ++stats_.decisions;
    trail_lim_.push_back(trail_.size());
    enqueue(mk_lit(next, phase_[next] == kFalse), kNoReason);
  }
  backtrack_to(0);
  // One tick per call plus one per conflict resolved: the work unit the
  // per-call SolverBudget already bounds deterministically.
  robust::charge(1 + (stats_.conflicts - conflict_start));
  publish_counters();
  return result;
}

void Solver::publish_counters() {
  if (obs_level() == ObsLevel::off) {
    published_ = stats_;
    return;
  }
  Counters::incr("sat.solves", stats_.solves - published_.solves);
  Counters::incr("sat.decisions", stats_.decisions - published_.decisions);
  Counters::incr("sat.conflicts", stats_.conflicts - published_.conflicts);
  Counters::incr("sat.propagations", stats_.propagations - published_.propagations);
  Counters::incr("sat.learned", stats_.learned - published_.learned);
  Counters::incr("sat.restarts", stats_.restarts - published_.restarts);
  published_ = stats_;
}

}  // namespace compsyn
