#include "core/sdc.hpp"

#include <numeric>
#include <stdexcept>
#include <utility>

#include "core/signature.hpp"
#include "netlist/equivalence.hpp"
#include "obs/counters.hpp"
#include "util/rng.hpp"

namespace compsyn {

ReachabilityTable::ReachabilityTable(const Netlist& nl, unsigned max_inputs) {
  const unsigned n = static_cast<unsigned>(nl.inputs().size());
  if (n > max_inputs) {
    throw std::invalid_argument("ReachabilityTable: too many inputs for an exact sweep");
  }
  const std::uint64_t patterns = 1ull << n;
  words_ = static_cast<std::size_t>(std::max<std::uint64_t>(1, patterns / 64));
  nodes_ = nl.size();
  // Node-major pattern words: the input rows enumerate every pattern, then
  // one block sweep fills every gate's row in place.
  bits_.assign(nodes_ * words_, 0);
  for (unsigned i = 0; i < n; ++i) {
    std::uint64_t* row = bits_.data() + nl.inputs()[i] * words_;
    for (std::size_t w = 0; w < words_; ++w) {
      row[w] = i < 6 ? exhaustive_mask(i) : (((w >> (i - 6)) & 1u) ? ~0ull : 0ull);
    }
  }
  nl.simulate_words(bits_.data(), words_, words_);
}

TruthTable ReachabilityTable::reachable_combos(const std::vector<NodeId>& nodes) const {
  const unsigned k = static_cast<unsigned>(nodes.size());
  TruthTable reach(k);
  for (NodeId n : nodes) {
    if (n >= nodes_) {
      // Unknown node: be conservative, declare everything reachable.
      return reach.complemented();  // all-ones
    }
  }
  const std::uint64_t patterns = words_ * 64;
  for (std::uint64_t p = 0; p < patterns; ++p) {
    std::uint32_t combo = 0;
    for (unsigned i = 0; i < k; ++i) {
      const std::uint64_t bit = (bits_[nodes[i] * words_ + (p >> 6)] >> (p & 63)) & 1ull;
      combo |= static_cast<std::uint32_t>(bit) << (k - 1 - i);
    }
    reach.set(combo, true);
  }
  return reach;
}

SatReachability::SatReachability(const Netlist& nl, const SolverBudget& per_query)
    : per_query_(per_query) {
  enc_ = encode_circuit(nl, solver_);
  sigs_ = node_signatures(nl);
}

bool SatReachability::nodes_equal(NodeId a, NodeId b) const {
  if (a == b) return true;
  if (a > b) std::swap(a, b);
  if (a < sigs_.size() && b < sigs_.size() && sigs_[a] != sigs_[b]) return false;
  const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
  if (auto it = eq_memo_.find(key); it != eq_memo_.end()) return it->second;
  // a != b is Sat iff (a & !b) or (!a & b) is: two assumption-only queries,
  // no clauses added. Equality holds only when both directions are Unsat.
  const bool equal =
      solver_.solve({enc_.lit(a, false), enc_.lit(b, true)}, per_query_) ==
          SolveStatus::Unsat &&
      solver_.solve({enc_.lit(a, true), enc_.lit(b, false)}, per_query_) ==
          SolveStatus::Unsat;
  if (eq_memo_.size() >= 4096) eq_memo_.clear();
  eq_memo_.emplace(key, equal);
  return equal;
}

TruthTable SatReachability::solve_combos(const std::vector<NodeId>& nodes) const {
  const unsigned k = static_cast<unsigned>(nodes.size());
  TruthTable reach(k);
  std::vector<SatLit> assumptions(k);
  for (std::uint32_t combo = 0; combo < reach.num_minterms(); ++combo) {
    for (unsigned i = 0; i < k; ++i) {
      const bool bit = ((combo >> (k - 1 - i)) & 1u) != 0;
      assumptions[i] = enc_.lit(nodes[i], /*negated=*/!bit);
    }
    // Sat: some input pattern produces the combination. Unknown: give up on
    // this combination only; assuming reachable is always sound.
    if (solver_.solve(assumptions, per_query_) != SolveStatus::Unsat) {
      reach.set(combo, true);
    }
  }
  return reach;
}

TruthTable SatReachability::reachable_combos(const std::vector<NodeId>& nodes) const {
  const unsigned k = static_cast<unsigned>(nodes.size());
  for (NodeId n : nodes) {
    if (!enc_.has(n)) {
      // Unknown node: be conservative, declare everything reachable.
      return TruthTable(k).complemented();  // all-ones
    }
  }
  // Exact repeat of an earlier query: the memoized table is the answer.
  for (const auto& [prev, table] : memo_) {
    if (prev == nodes) {
      Counters::incr("sat.sdc.cache_hits");
      return table;
    }
  }
  // Signature-aligned reuse: a cached node set whose per-position signatures
  // match is a candidate; reuse its table only once SAT proves every paired
  // node functionally equal (equal functions of the primary inputs have the
  // same joint value distribution, hence the same reachable set).
  for (const auto& [prev, table] : memo_) {
    if (prev.size() != nodes.size()) continue;
    bool aligned = true;
    for (unsigned i = 0; aligned && i < k; ++i) {
      aligned = nodes[i] < sigs_.size() && prev[i] < sigs_.size() &&
                sigs_[nodes[i]] == sigs_[prev[i]];
    }
    if (!aligned) continue;
    bool proven = true;
    for (unsigned i = 0; proven && i < k; ++i) {
      proven = nodes_equal(nodes[i], prev[i]);
    }
    if (!proven) continue;
    Counters::incr("sat.sdc.sig_hits");
    TruthTable copy = table;  // copy before emplace_back may reallocate memo_
    memo_.emplace_back(nodes, copy);
    return copy;
  }

  TruthTable reach = solve_combos(nodes);
  if (memo_.size() >= 1024) memo_.clear();
  memo_.emplace_back(nodes, reach);
  return reach;
}

namespace {

struct DcWindow {
  std::uint32_t lower = 0;
  std::uint32_t upper = 0;
  bool extend_lo = false;  // every value below lower is a don't-care
  bool extend_hi = false;  // every value above upper is a don't-care
};

/// Window check under a permutation: valid iff the care ON values are
/// nonempty and no care OFF value falls inside [min_on, max_on]. Also
/// reports whether the window may be extended to 0 / to the maximum through
/// don't-cares (extensions often buy trivial bounds, Section 3.2.2).
bool window_for_order(const TruthTable& f, const TruthTable& care,
                      const std::vector<unsigned>& perm, DcWindow& win) {
  const unsigned n = f.num_vars();
  std::vector<unsigned> pos(n);
  for (unsigned j = 0; j < n; ++j) pos[perm[j]] = j;
  std::uint32_t lo = ~0u, hi = 0;
  bool any_on = false;
  // First pass: bounds of the care ON-set.
  for (std::uint32_t m = 0; m < f.num_minterms(); ++m) {
    if (!care.get(m) || !f.get(m)) continue;
    std::uint32_t value = 0;
    for (unsigned v = 0; v < n; ++v) {
      value |= ((m >> (n - 1 - v)) & 1u) << (n - 1 - pos[v]);
    }
    lo = std::min(lo, value);
    hi = std::max(hi, value);
    any_on = true;
  }
  if (!any_on) return false;
  // Second pass: no care OFF value inside the window; track whether any
  // care OFF value exists outside it on either side.
  bool off_below = false, off_above = false;
  for (std::uint32_t m = 0; m < f.num_minterms(); ++m) {
    if (!care.get(m) || f.get(m)) continue;
    std::uint32_t value = 0;
    for (unsigned v = 0; v < n; ++v) {
      value |= ((m >> (n - 1 - v)) & 1u) << (n - 1 - pos[v]);
    }
    if (value >= lo && value <= hi) return false;
    off_below |= value < lo;
    off_above |= value > hi;
  }
  win.lower = lo;
  win.upper = hi;
  win.extend_lo = !off_below && lo > 0;
  win.extend_hi = !off_above && hi < f.num_minterms() - 1;
  return true;
}

}  // namespace

std::vector<ComparisonSpec> identify_comparison_dc(const TruthTable& f,
                                                   const TruthTable& care,
                                                   const IdentifyOptions& opt) {
  std::vector<ComparisonSpec> out;
  const unsigned n = f.num_vars();
  if (n == 0 || care.num_vars() != n) return out;

  std::vector<unsigned> identity(n);
  std::iota(identity.begin(), identity.end(), 0u);
  Rng fallback_rng(0x15Full);
  Rng* rng = opt.rng ? opt.rng : &fallback_rng;

  std::vector<std::vector<unsigned>> orders{identity,
                                            {identity.rbegin(), identity.rend()}};
  for (unsigned t = 2; t < std::max(2u, opt.sample_tries); ++t) {
    auto p32 = rng->permutation(n);
    orders.emplace_back(p32.begin(), p32.end());
  }

  const TruthTable fc = f.complemented();
  for (const auto& order : orders) {
    for (bool comp : {false, true}) {
      if (comp && !opt.try_complement) continue;
      DcWindow win;
      if (!window_for_order(comp ? fc : f, care, order, win)) continue;
      auto emit = [&](std::uint32_t lo, std::uint32_t hi) {
        ComparisonSpec spec;
        spec.n = n;
        spec.perm = order;
        spec.complemented = comp;
        spec.lower = lo;
        spec.upper = hi;
        out.push_back(std::move(spec));
      };
      emit(win.lower, win.upper);
      // Extending a bound through don't-cares makes it trivial (the whole
      // block disappears, Section 3.2.2) -- often the cheaper realisation.
      if (win.extend_lo) emit(0, win.upper);
      if (win.extend_hi) emit(win.lower, f.num_minterms() - 1);
      if (win.extend_lo && win.extend_hi) emit(0, f.num_minterms() - 1);
      if (out.size() >= 4 * opt.max_results) return out;
    }
  }
  return out;
}

}  // namespace compsyn
