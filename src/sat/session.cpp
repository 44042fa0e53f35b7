#include "sat/session.hpp"

#include <sstream>

#include "obs/chrome_trace.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "robust/robust.hpp"

namespace compsyn {

namespace {

/// One solver query: a `sat.query.ns` sample, then a `sat.session.vars`
/// counter-track point (the incremental session's size, which sawtooths as
/// circuits accumulate and compactions reset it).
SolveStatus timed_solve(Solver& solver, SatLit act,
                        const SolverBudget& budget) {
  SolveStatus st;
  {
    const Span sp("sat.query", SpanKind::Sample);
    st = solver.solve({act}, budget);
  }
  ChromeTrace::counter("sat.session.vars",
                       static_cast<double>(solver.num_vars()));
  return st;
}

/// Exact structural serialisation of a netlist: node count, interface, and
/// every live node's (id, type, fanins) in topological order. Two netlists
/// with equal keys have identical live structure over identical node ids, so
/// one Tseitin encoding serves both.
std::string structural_key(const Netlist& nl) {
  std::string key;
  key.reserve(nl.size() * 16);
  const auto put = [&key](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      key.push_back(static_cast<char>(v & 0xff));
      v >>= 8;
    }
  };
  put(nl.size());
  put(nl.inputs().size());
  for (const NodeId n : nl.inputs()) put(n);
  put(nl.outputs().size());
  for (const NodeId n : nl.outputs()) put(n);
  for (const NodeId n : nl.topo_order()) {
    const Node& nd = nl.node(n);
    put(n);
    put(static_cast<std::uint64_t>(nd.type));
    put(nd.fanins.size());
    for (const NodeId f : nd.fanins) put(f);
  }
  return key;
}

}  // namespace

SatSession::CircuitId SatSession::add_circuit(const Netlist& nl) {
  std::string key = structural_key(nl);
  const std::uint64_t fp = robust::fnv1a64(key);
  for (CircuitId id = 0; id < circuits_.size(); ++id) {
    if (circuits_[id].fingerprint == fp && circuits_[id].key == key) {
      Counters::incr("sat.session.reuse_hits");
      return id;
    }
  }
  Entry e;
  e.fingerprint = fp;
  e.key = std::move(key);
  e.netlist = nl;
  e.enc = encode_circuit(e.netlist, solver_);
  circuits_.push_back(std::move(e));
  Counters::incr("sat.session.encoded");
  return circuits_.size() - 1;
}

void SatSession::retire(SatLit act) {
  solver_.add_clause(~act);
  Counters::incr("sat.session.retired");
  if (++retired_ >= max_retired_) compact();
}

void SatSession::compact() {
  solver_ = Solver();
  for (Entry& e : circuits_) e.enc = encode_circuit(e.netlist, solver_);
  retired_ = 0;
  Counters::incr("sat.session.compactions");
}

SatFaultResult SatSession::prove_fault(CircuitId id, const StuckFault& fault,
                                       const SolverBudget& budget) {
  const Span sp("sat.atpg");
  Entry& e = circuits_[id];
  SatFaultResult res;
  const SatLit act = new_activation();
  const FaultMiterEncoding miter =
      encode_fault_miter_gated(e.netlist, fault, solver_, e.enc, act);
  const std::uint64_t conflicts_before = solver_.stats().conflicts;
  const SolveStatus st = timed_solve(solver_, act, budget);
  res.conflicts = solver_.stats().conflicts - conflicts_before;
  Counters::incr("sat.atpg.calls");
  Counters::incr("sat.session.queries");
  switch (st) {
    case SolveStatus::Sat:
      res.status = SatFaultStatus::Testable;
      res.test = miter.test(solver_);
      Counters::incr("sat.atpg.tests");
      break;
    case SolveStatus::Unsat:
      res.status = SatFaultStatus::Untestable;
      Counters::incr("sat.atpg.redundancy_proofs");
      break;
    case SolveStatus::Unknown:
      res.status = SatFaultStatus::Unknown;
      Counters::incr("sat.atpg.unknown");
      break;
  }
  retire(act);
  return res;
}

EquivalenceResult SatSession::check_equivalent(CircuitId a, CircuitId b,
                                               const SolverBudget& budget) {
  const Span sp("sat.cec");
  EquivalenceResult res;
  const Entry& ea = circuits_[a];
  const Entry& eb = circuits_[b];
  if (ea.netlist.inputs().size() != eb.netlist.inputs().size() ||
      ea.netlist.outputs().size() != eb.netlist.outputs().size()) {
    res.message = "interface mismatch";
    return res;
  }
  Counters::incr("sat.cec.calls");
  Counters::incr("sat.session.queries");
  if (a == b) {
    // Same encoding: the two netlists are structurally identical (exact key
    // compare in add_circuit), which is a proof with zero solver work. This
    // fast path pays for the session on flows that re-verify an unchanged
    // circuit (e.g. redundancy removal that removed nothing).
    res.equivalent = true;
    res.proven = true;
    res.message = "proved equivalent by SAT session (identical structure)";
    Counters::incr("sat.cec.proofs");
    Counters::incr("sat.session.structural_proofs");
    return res;
  }
  const SatLit act = new_activation();
  encode_miter_gated(ea.netlist, ea.enc, eb.netlist, eb.enc, solver_, act);
  const std::uint64_t conflicts_before = solver_.stats().conflicts;
  const SolveStatus st = timed_solve(solver_, act, budget);
  const std::uint64_t conflicts = solver_.stats().conflicts - conflicts_before;
  std::ostringstream ss;
  switch (st) {
    case SolveStatus::Unsat:
      res.equivalent = true;
      res.proven = true;
      ss << "proved equivalent by SAT (" << conflicts << " conflicts)";
      Counters::incr("sat.cec.proofs");
      break;
    case SolveStatus::Sat: {
      res.proven = true;  // a concrete refutation is a proof of inequivalence
      res.counterexample.reserve(ea.netlist.inputs().size());
      for (const NodeId in : ea.netlist.inputs()) {
        res.counterexample.push_back(solver_.model_value(ea.enc.node_var[in]));
      }
      ss << "SAT counterexample found (" << conflicts << " conflicts)";
      Counters::incr("sat.cec.refutations");
      break;
    }
    case SolveStatus::Unknown:
      ss << "SAT budget exhausted after " << conflicts
         << " conflicts (verdict open)";
      Counters::incr("sat.cec.unknown");
      break;
  }
  res.message = ss.str();
  retire(act);
  return res;
}

EquivalenceResult SatSession::check_equivalent(const Netlist& a, const Netlist& b,
                                               const SolverBudget& budget) {
  if (a.inputs().size() != b.inputs().size() ||
      a.outputs().size() != b.outputs().size()) {
    EquivalenceResult res;
    res.message = "interface mismatch";
    return res;
  }
  const CircuitId ia = add_circuit(a);
  const CircuitId ib = add_circuit(b);
  return check_equivalent(ia, ib, budget);
}

}  // namespace compsyn
