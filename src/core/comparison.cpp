#include "core/comparison.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <numeric>
#include <unordered_map>

#include "core/comparison_unit.hpp"
#include "core/signature.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/counters.hpp"

namespace compsyn {

TruthTable ComparisonSpec::to_truth_table() const {
  // inverse_perm[var] = position of var.
  std::vector<unsigned> pos(n);
  for (unsigned j = 0; j < n; ++j) pos[perm[j]] = j;
  return TruthTable::from_function(n, [&](std::uint32_t m) {
    std::uint32_t value = 0;
    for (unsigned v = 0; v < n; ++v) {
      const std::uint32_t bit = (m >> (n - 1 - v)) & 1u;
      value |= bit << (n - 1 - pos[v]);
    }
    const bool in = value >= lower && value <= upper;
    return in != complemented;
  });
}

bool spec_matches(const ComparisonSpec& spec, const TruthTable& f) {
  if (spec.n != f.num_vars()) return false;
  return spec.to_truth_table() == f;
}

namespace {

/// Derives L and U for a known-valid ordering and verifies contiguity.
/// Returns false if the ON-set values under `perm` are not contiguous.
///
/// The decimal value of a minterm under `perm` is exactly its index in the
/// permuted table, so this is the word-level interval kernel applied to
/// f.permuted(perm) -- no per-minterm gather loop.
bool bounds_for_order(const TruthTable& f, const std::vector<unsigned>& perm,
                      std::uint32_t& lower, std::uint32_t& upper) {
  return f.permuted(perm).interval_bounds(&lower, &upper);
}

/// Exact search. Maintains the chosen prefix of the order (original variable
/// indices, MSB first) and a constraint on the rest.
class ExactSearch {
 public:
  ExactSearch(const TruthTable& f, unsigned max_results)
      : original_(f), max_results_(max_results) {}

  std::vector<std::vector<unsigned>> run() {
    std::vector<unsigned> vars(original_.num_vars());
    std::iota(vars.begin(), vars.end(), 0u);
    prefix_.clear();
    results_.clear();
    prefix_lens_.clear();
    interval(original_, vars);
    truncated_ = results_.size() >= max_results_;
    return std::move(results_);
  }

  /// Per emitted order: how many leading entries the DFS chose explicitly.
  /// The tail past that boundary is a don't-care completion, emitted in
  /// ascending variable order -- the orbit memo's permutation mapping
  /// (derive_orbit_specs) needs the boundary to re-sort the tail for a
  /// relabeled query. Parallel to run()'s result; read after run().
  const std::vector<unsigned>& prefix_lens() const { return prefix_lens_; }

  /// True when the search stopped at the result cap, i.e. the emitted set
  /// may be a strict lex-prefix of all valid orders. Valid after run().
  bool truncated() const { return truncated_; }

 private:
  bool full() const { return results_.size() >= max_results_; }

  void emit(const std::vector<unsigned>& rest) {
    if (full()) return;
    std::vector<unsigned> order = prefix_;
    order.insert(order.end(), rest.begin(), rest.end());
    prefix_lens_.push_back(static_cast<unsigned>(prefix_.size()));
    results_.push_back(std::move(order));
  }

  static std::vector<unsigned> without(const std::vector<unsigned>& vars, unsigned i) {
    std::vector<unsigned> r;
    r.reserve(vars.size() - 1);
    for (unsigned j = 0; j < vars.size(); ++j) {
      if (j != i) r.push_back(vars[j]);
    }
    return r;
  }

  // ON(f) must be an interval under some completion. Precondition: f != 0.
  void interval(const TruthTable& f, const std::vector<unsigned>& vars) {
    if (full()) return;
    if (f.is_const_one()) {
      emit(vars);
      return;
    }
    assert(!vars.empty());
    for (unsigned i = 0; i < vars.size() && !full(); ++i) {
      const TruthTable f0 = f.cofactor(i, false);
      const TruthTable f1 = f.cofactor(i, true);
      prefix_.push_back(vars[i]);
      const auto rest = without(vars, i);
      if (f1.is_const_zero()) {
        interval(f0, rest);
      } else if (f0.is_const_zero()) {
        interval(f1, rest);
      } else {
        suffix_prefix(f0, f1, rest);
      }
      prefix_.pop_back();
    }
  }

  // ON(f) must be [l, max] (nonempty) under some completion.
  void suffix(const TruthTable& f, const std::vector<unsigned>& vars) {
    if (full() || f.is_const_zero()) return;
    if (f.is_const_one()) {
      emit(vars);
      return;
    }
    for (unsigned i = 0; i < vars.size() && !full(); ++i) {
      const TruthTable f0 = f.cofactor(i, false);
      const TruthTable f1 = f.cofactor(i, true);
      prefix_.push_back(vars[i]);
      const auto rest = without(vars, i);
      if (f0.is_const_zero()) suffix(f1, rest);        // l >= 2^(m-1)
      else if (f1.is_const_one()) suffix(f0, rest);    // l <  2^(m-1)
      prefix_.pop_back();
    }
  }

  // ON(f) must be [0, u] (nonempty) under some completion.
  void prefix_interval(const TruthTable& f, const std::vector<unsigned>& vars) {
    if (full() || f.is_const_zero()) return;
    if (f.is_const_one()) {
      emit(vars);
      return;
    }
    for (unsigned i = 0; i < vars.size() && !full(); ++i) {
      const TruthTable f0 = f.cofactor(i, false);
      const TruthTable f1 = f.cofactor(i, true);
      prefix_.push_back(vars[i]);
      const auto rest = without(vars, i);
      if (f1.is_const_zero()) prefix_interval(f0, rest);      // u <  2^(m-1)
      else if (f0.is_const_one()) prefix_interval(f1, rest);  // u >= 2^(m-1)
      prefix_.pop_back();
    }
  }

  // ON(g) = [l, max] and ON(h) = [0, u] must hold under one COMMON order.
  void suffix_prefix(const TruthTable& g, const TruthTable& h,
                     const std::vector<unsigned>& vars) {
    if (full() || g.is_const_zero() || h.is_const_zero()) return;
    if (g.is_const_one() && h.is_const_one()) {
      emit(vars);
      return;
    }
    if (g.is_const_one()) {
      prefix_interval(h, vars);
      return;
    }
    if (h.is_const_one()) {
      suffix(g, vars);
      return;
    }
    for (unsigned i = 0; i < vars.size() && !full(); ++i) {
      const TruthTable g0 = g.cofactor(i, false);
      const TruthTable g1 = g.cofactor(i, true);
      const TruthTable h0 = h.cofactor(i, false);
      const TruthTable h1 = h.cofactor(i, true);
      // Possible continuations for the suffix side.
      const TruthTable* gnexts[2];
      int gn = 0;
      if (g0.is_const_zero()) gnexts[gn++] = &g1;
      if (g1.is_const_one()) gnexts[gn++] = &g0;
      // ... and for the prefix side.
      const TruthTable* hnexts[2];
      int hn = 0;
      if (h1.is_const_zero()) hnexts[hn++] = &h0;
      if (h0.is_const_one()) hnexts[hn++] = &h1;
      if (gn != 0 && hn != 0) {
        prefix_.push_back(vars[i]);
        const auto rest = without(vars, i);
        for (int a = 0; a < gn && !full(); ++a) {
          for (int b = 0; b < hn && !full(); ++b) {
            suffix_prefix(*gnexts[a], *hnexts[b], rest);
          }
        }
        prefix_.pop_back();
      }
    }
  }

  const TruthTable& original_;
  unsigned max_results_;
  std::vector<unsigned> prefix_;
  std::vector<std::vector<unsigned>> results_;
  std::vector<unsigned> prefix_lens_;
  bool truncated_ = false;
};

/// prefix_lens / truncated are optional side channels for the orbit memo
/// (exact engine only): the DFS boundary of each emitted order and whether
/// the result cap cut the emission short.
void collect_specs(const TruthTable& f, bool complemented, const IdentifyOptions& opt,
                   std::vector<ComparisonSpec>& out,
                   std::vector<unsigned>* prefix_lens = nullptr,
                   bool* truncated = nullptr) {
  const unsigned n = f.num_vars();
  if (f.is_const_zero()) return;  // handled by the caller via the complement

  std::vector<std::vector<unsigned>> orders;
  if (opt.exact) {
    ExactSearch search(f, opt.max_results);
    orders = search.run();
    if (prefix_lens) {
      prefix_lens->insert(prefix_lens->end(), search.prefix_lens().begin(),
                          search.prefix_lens().end());
    }
    if (truncated) *truncated = search.truncated();
  } else {
    assert(opt.rng != nullptr && "sampled identification needs an Rng");
    // Identity and reversal first, then random permutations, as in Sec. 5.
    std::vector<unsigned> id(n);
    std::iota(id.begin(), id.end(), 0u);
    std::vector<unsigned> rev(id.rbegin(), id.rend());
    std::vector<std::vector<unsigned>> tries{id, rev};
    for (unsigned t = 2; t < opt.sample_tries; ++t) {
      auto p32 = opt.rng->permutation(n);
      tries.emplace_back(p32.begin(), p32.end());
    }
    for (auto& p : tries) {
      std::uint32_t lo, hi;
      if (bounds_for_order(f, p, lo, hi)) {
        orders.push_back(p);
        if (orders.size() >= opt.max_results) break;
      }
    }
  }

  for (const auto& order : orders) {
    ComparisonSpec spec;
    spec.n = n;
    spec.perm = order;
    spec.complemented = complemented;
    const bool ok = bounds_for_order(f, order, spec.lower, spec.upper);
    assert(ok && "exact search must produce valid orders");
    if (!ok) continue;
    out.push_back(std::move(spec));
  }
}

}  // namespace

namespace {

/// Memo for the exact engine. identify_comparison with opt.exact is a pure
/// function of (f, max_results, try_complement), and resynthesis sweeps ask
/// about the same reduced cone functions over and over; caching the answer is
/// behaviour-preserving (identical spec vectors) and removes the dominant
/// repeated work. Thread-local (the procedures are single-threaded per
/// netlist) and bounded: the table is dropped wholesale at kExactMemoCap
/// entries.
///
/// One flat open-addressed table keyed by the whole query -- arity, table
/// words and flags. A slot holds the top half of the key's hash and the
/// entry's index, so a probe touches an entry only on a tag match and
/// confirms it there by an exact key compare. The slot array starts at
/// kMemoInitialSlots and doubles at half load, so a short run never pays
/// for a large table.
///
/// An entry also carries every spec's unit_cost, computed on the first
/// scored lookup under each UnitOptions setting, so a pass that meets a
/// function again re-costs nothing.
struct MemoEntry {
  std::uint64_t hash = 0;  // of the key, for regrowing the slot array
  // The key.
  unsigned max_results = 0;
  bool try_complement = false;
  TruthTable table;
  std::vector<ComparisonSpec> specs;
  // Indexed by UnitOptions::merge_gates: costs made under one setting never
  // serve the other.
  std::array<bool, 2> costed{};
  std::array<std::vector<UnitCost>, 2> costs;
};
static_assert(sizeof(UnitOptions) == sizeof(bool),
              "MemoEntry::costs is indexed by UnitOptions' only field");

constexpr std::size_t kMemoInitialSlots = 1u << 8;

class ExactMemo {
 public:
  ExactMemo() { reset(); }

  /// The entry whose key `matches`, given the key's hash.
  template <class Matches>
  MemoEntry* find(std::uint64_t hash, const Matches& matches) {
    const std::size_t mask = slots_.size() - 1;
    const std::uint64_t tag = hash >> 32;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const std::uint64_t slot = slots_[i];
      if (slot == 0) return nullptr;
      if (slot >> 32 == tag) {
        MemoEntry& e = entries_[(slot & 0xffffffffu) - 1];
        if (matches(e)) return &e;
      }
    }
  }

  /// Adds an entry not in the table, first dropping every entry when the
  /// table is at its cap.
  MemoEntry& insert(MemoEntry&& e) {
    if (entries_.size() >= kExactMemoCap) reset();
    if (2 * (entries_.size() + 1) > slots_.size()) {
      slots_.assign(2 * slots_.size(), 0);
      for (std::size_t i = 0; i < entries_.size(); ++i) place(entries_[i].hash, i);
    }
    place(e.hash, entries_.size());
    entries_.push_back(std::move(e));
    return entries_.back();
  }

  /// Drops every entry and gives the memory back.
  void reset() {
    entries_ = {};
    slots_.assign(kMemoInitialSlots, 0);
    slots_.shrink_to_fit();
  }

  // Per-thread query/hit tallies feeding the profile's memo hit-rate
  // counter track (timing-only data, never part of the report).
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;

 private:
  void place(std::uint64_t hash, std::size_t index) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = (hash >> 32 << 32) | (index + 1);
  }

  std::vector<MemoEntry> entries_;
  std::vector<std::uint64_t> slots_;  // 0 = empty
};

/// Samples the memo hit rate onto the Chrome trace counter track every 256
/// queries (cheap enough to leave unconditional: one add and a mask check,
/// then a relaxed load inside counter() when tracing is off).
void note_memo_query(ExactMemo& memo, bool hit) {
  ++memo.queries;
  if (hit) ++memo.hits;
  if ((memo.queries & 0xffu) == 0) {
    ChromeTrace::counter("identify.memo.hit_rate",
                         static_cast<double>(memo.hits) /
                             static_cast<double>(memo.queries));
  }
}

ExactMemo& exact_memo() {
  thread_local ExactMemo memo;
  return memo;
}

/// A query's hash starts from its arity and flags; each table word is then
/// mixed in with signature_mix.
std::uint64_t hash_start(unsigned n, const IdentifyOptions& opt) {
  return signature_mix(n | (opt.try_complement ? 0x100u : 0u), opt.max_results);
}

/// A tier-1 query given as a table.
struct TableKey {
  const TruthTable& f;
  std::uint64_t hash(const IdentifyOptions& opt) const {
    std::uint64_t h = hash_start(f.num_vars(), opt);
    for (std::size_t i = 0; i < f.num_words(); ++i) h = signature_mix(h, f.word(i));
    return h;
  }
  bool matches(const TruthTable& t) const { return t == f; }
  TruthTable table() const { return f; }
};

/// A tier-1 query given as one word (n <= 6): hashes and compares equal to
/// the TableKey of TruthTable::from_word(n, word).
struct WordKey {
  unsigned n;
  std::uint64_t word;
  std::uint64_t hash(const IdentifyOptions& opt) const {
    return signature_mix(hash_start(n, opt), word);
  }
  bool matches(const TruthTable& t) const {
    return t.num_vars() == n && t.word(0) == word;
  }
  TruthTable table() const { return TruthTable::from_word(n, word); }
};

// --- NPN-orbit memo tier ----------------------------------------------------
//
// Tier 1 above memoises per exact table; this tier collapses whole orbits
// under input permutations x output polarity x whole-input reflection onto
// one entry, keyed by the signature of the orbit's canonical table
// (core/signature.hpp, NpnGroup::kPermOutputReflect). Reuse only happens
// where the returned spec vector is provably byte-identical to a fresh
// search:
//
//  * Negative results (f's orbit is not a comparison orbit) are shared
//    across the whole orbit. Sound because the comparison-function class is
//    closed under input permutations, output complement, and negating ALL
//    inputs at once (the reflection v -> 2^n-1-v maps intervals to
//    intervals) -- but NOT under arbitrary input negations, which is why
//    the orbit group is kPermOutputReflect and not full NPN (3-variable
//    counterexample in DESIGN.md sect. 14).
//  * Positive results are derived through the group element relating the
//    query to the stored representative (derive_orbit_specs below). Output
//    complement swaps the two polarity halves of the search verbatim;
//    the reflection preserves the emitted order sequence (the DFS mirrors
//    suffix <-> prefix_interval node for node); an input permutation maps
//    the DFS tree isomorphically, so the fresh emission set is the mapped
//    set re-sorted lexicographically (emissions are always in lex order) --
//    but only when the stored search was NOT truncated by the result cap,
//    since truncation keeps a lex-prefix whose image need not be the
//    mapped query's lex-prefix. Non-derivable cases fall back to a fresh
//    search (counted as positive_fallbacks).
//
// Every hit is confirmed by an exact canonical-table compare, the relating
// transform is verified by applying it to the representative, and every
// derived spec's bounds are recomputed against the query, so a collision or
// a derivation gap costs one fresh search but can never return a wrong or
// differently-ordered cached answer.
struct NpnOrbitEntry {
  TruthTable canonical;       // exact-confirm key for the orbit
  TruthTable representative;  // first member queried (tier-1-missed)
  NpnTransform to_canonical;  // representative -> canonical
  unsigned max_results = 0;   // flags rep_specs were computed under
  bool has_specs = false;     // orbit-level: is this a comparison orbit?
  bool plain_truncated = false;  // ExactSearch(rep) hit the result cap
  bool comp_truncated = false;   // ExactSearch(~rep) hit the result cap
  std::vector<ComparisonSpec> rep_specs;
  std::vector<unsigned> prefix_lens;  // parallel to rep_specs (DFS boundary)
};

struct NpnMemo {
  std::unordered_map<std::uint64_t, std::vector<NpnOrbitEntry>> buckets;
  std::size_t entries = 0;
};

NpnMemo& npn_memo() {
  thread_local NpnMemo memo;
  return memo;
}

/// Largest cone arity the orbit tier canonicalizes. Canonicalization is one
/// key sort per group element (4 at kPermOutputReflect) plus the
/// arrangements of tied, non-symmetric variables -- up to 4*n! sift steps
/// only when every key ties -- so it stays well under one exact search at
/// n <= 7 (K <= 8 cones).
constexpr unsigned kNpnMemoMaxVars = 7;
constexpr std::size_t kNpnMemoCap = 1u << 14;

/// Process-global relaxed tallies (comparison.hpp: npn_identify_stats).
struct NpnStatsAtomics {
  std::atomic<std::uint64_t> canonicalizations{0};
  std::atomic<std::uint64_t> orbit_hits{0};
  std::atomic<std::uint64_t> negative_reuses{0};
  std::atomic<std::uint64_t> transform_reuses{0};
  std::atomic<std::uint64_t> positive_fallbacks{0};
  std::atomic<std::uint64_t> confirm_rejects{0};
  std::atomic<std::uint64_t> exact_searches{0};
};

NpnStatsAtomics& npn_atomics() {
  static NpnStatsAtomics stats;
  return stats;
}

void npn_count(std::atomic<std::uint64_t>& counter, const char* name) {
  counter.fetch_add(1, std::memory_order_relaxed);
  Counters::incr(name);
}

/// One polarity half of a stored search, in emission order.
struct SpecHalf {
  std::vector<const ComparisonSpec*> specs;
  std::vector<unsigned> lens;  // parallel DFS boundaries
  bool truncated = false;
};

/// Reconstructs the query f's fresh-search spec vector from the stored
/// representative search, given the group element relating them:
///   f == (relate applied to rep)  with  relate = f_to_canonical^-1 o
///   e.to_canonical  (verified by the caller).
/// Returns false (leaving *out unspecified) when the derivation is not
/// provably byte-exact: a non-identity permutation over a truncated half,
/// or a recomputed bound that fails to confirm.
///
/// Why each group generator is byte-exact (DESIGN.md sect. 14):
///  * output complement swaps the polarity halves verbatim (ExactSearch(~g)
///    IS the DFS the complement half of g's query ran);
///  * whole-input reflection leaves the emitted order sequence unchanged
///    (cofactor branches swap 0<->1, turning every suffix node into the
///    mirror prefix_interval node and vice versa, over the same variable
///    choice loop -- same prefixes, same emission points);
///  * an input relabeling maps the DFS tree isomorphically: the fresh
///    emission set is { mapped prefix + ascending mapped tail } and the
///    fresh emission sequence is that set in lex order (children are
///    visited in ascending-label order, so emission order is always lex).
///    Needs the stored half complete -- a truncated half is a lex-prefix
///    whose image need not be the lex-prefix of the mapped set.
bool derive_orbit_specs(const NpnOrbitEntry& e, const TruthTable& f,
                        const NpnTransform& f_to_canonical,
                        std::vector<ComparisonSpec>* out) {
  const unsigned n = f.num_vars();
  // Relating element, rep -> f: compose e.to_canonical with the inverse of
  // f's transform. Both are kPermOutputReflect elements, so the composition
  // is (perm, whole-input reflection, output complement) -- the reflection
  // commutes with permutations and the output bit with everything.
  const bool rel_out = f_to_canonical.output_neg != e.to_canonical.output_neg;
  const bool rel_reflect =
      (f_to_canonical.input_neg != 0) != (e.to_canonical.input_neg != 0);
  // Variable map, rep labels -> f labels: canonical position j holds rep
  // var e.to_canonical.perm[j] and f var f_to_canonical.perm[j], so
  // matching positions gives the label bijection.
  std::vector<unsigned> map(n);
  for (unsigned j = 0; j < n; ++j) {
    map[e.to_canonical.perm[j]] = f_to_canonical.perm[j];
  }
  bool identity = true;
  for (unsigned v = 0; v < n; ++v) identity = identity && map[v] == v;

  // Confirm the composed relation really maps the representative onto the
  // query before trusting any of it (a handful of kernel calls; collisions
  // or composition gaps then cost a fresh search, never a wrong answer).
  {
    NpnTransform relate;
    relate.perm.resize(n);
    for (unsigned v = 0; v < n; ++v) relate.perm[map[v]] = v;
    relate.input_neg = rel_reflect && n != 0 ? ((1u << n) - 1u) : 0u;
    relate.output_neg = rel_out;
    if (!(relate.apply(e.representative) == f)) return false;
  }

  // Split the stored vector into its polarity halves (emission order kept),
  // then pick which stored half feeds which half of the derived query:
  // rel_out swaps them.
  SpecHalf halves[2];  // [0] plain, [1] complemented
  halves[0].truncated = e.plain_truncated;
  halves[1].truncated = e.comp_truncated;
  for (std::size_t i = 0; i < e.rep_specs.size(); ++i) {
    SpecHalf& h = halves[e.rep_specs[i].complemented ? 1 : 0];
    h.specs.push_back(&e.rep_specs[i]);
    h.lens.push_back(e.prefix_lens[i]);
  }

  out->clear();
  for (int target = 0; target < 2; ++target) {
    const SpecHalf& src = halves[rel_out ? 1 - target : target];
    if (src.specs.empty()) continue;
    if (!identity && src.truncated) return false;
    const TruthTable target_table = target ? f.complemented() : f;
    std::vector<std::vector<unsigned>> orders;
    orders.reserve(src.specs.size());
    for (std::size_t i = 0; i < src.specs.size(); ++i) {
      const std::vector<unsigned>& o = src.specs[i]->perm;
      std::vector<unsigned> m(n);
      for (unsigned k = 0; k < n; ++k) m[k] = map[o[k]];
      // The DFS tail is a don't-care completion emitted in ascending
      // order; re-sort the mapped tail the way the fresh search would.
      std::sort(m.begin() + src.lens[i], m.end());
      orders.push_back(std::move(m));
    }
    // Fresh emissions arrive in lex order of the full order vectors.
    if (!identity) std::sort(orders.begin(), orders.end());
    for (auto& order : orders) {
      ComparisonSpec spec;
      spec.n = n;
      spec.complemented = target != 0;
      spec.perm = std::move(order);
      // Recompute (confirming) the interval bounds against the query; a
      // failure here means the derivation reasoning did not hold for this
      // member, so reject the whole reuse and let the caller search.
      if (!bounds_for_order(target_table, spec.perm, spec.lower, spec.upper)) {
        return false;
      }
      out->push_back(std::move(spec));
    }
  }
  return true;
}

/// The answer for a constant function (or one of zero variables), in a
/// per-thread buffer; nullptr for any other function.
const std::vector<ComparisonSpec>* constant_specs(const TruthTable& f) {
  thread_local std::vector<ComparisonSpec> out;
  const unsigned n = f.num_vars();
  ComparisonSpec spec;
  spec.n = n;
  if (n == 0) {
    // Constant function of zero variables: the empty-product interval.
    spec.lower = 0;
    spec.upper = 0;
    spec.complemented = !f.get(0);
  } else if (f.is_const_one() || f.is_const_zero()) {
    spec.perm.resize(n);
    std::iota(spec.perm.begin(), spec.perm.end(), 0u);
    spec.lower = 0;
    spec.upper = f.num_minterms() - 1;
    spec.complemented = f.is_const_zero();
  } else {
    return nullptr;
  }
  out.assign(1, std::move(spec));
  return &out;
}

/// The exact engine's search for a non-constant f, tier 2 first: appends
/// the spec vector a fresh search returns to `out` (empty on entry).
void search_exact(const TruthTable& f, const IdentifyOptions& opt,
                  std::vector<ComparisonSpec>& out) {
  const unsigned n = f.num_vars();
  // Tier 2: the NPN-orbit memo. Only for the flag shape the resynthesis
  // hot path uses (try_complement, bounded results) and small arities;
  // everything else takes the plain search below.
  const bool use_npn = opt.npn_memo && opt.try_complement &&
                       opt.max_results > 0 && n <= kNpnMemoMaxVars;
  NpnMemo& nmemo = npn_memo();
  NpnStatsAtomics& stats = npn_atomics();
  std::uint64_t nsig = 0;
  NpnCanonical canon;
  NpnOrbitEntry* orbit = nullptr;
  if (use_npn) {
    canon = npn_canonicalize(f, NpnGroup::kPermOutputReflect);
    npn_count(stats.canonicalizations, "identify.npn.canonicalizations");
    nsig = signature_mix(table_signature(canon.table), opt.max_results);
    auto nit = nmemo.buckets.find(nsig);
    if (nit != nmemo.buckets.end()) {
      for (NpnOrbitEntry& e : nit->second) {
        if (e.max_results == opt.max_results && e.canonical == canon.table) {
          orbit = &e;
          break;
        }
      }
      if (!orbit) {
        npn_count(stats.confirm_rejects, "identify.npn.confirm_rejects");
      }
    }
    if (orbit) {
      npn_count(stats.orbit_hits, "identify.npn.orbit_hits");
      if (!orbit->has_specs) {
        // The orbit has no comparison member under any permutation,
        // output polarity, or reflection: empty result, no search.
        npn_count(stats.negative_reuses, "identify.npn.negative_reuses");
        return;
      }
      if (derive_orbit_specs(*orbit, f, canon.transform, &out)) {
        npn_count(stats.transform_reuses, "identify.npn.transform_reuses");
        return;
      }
      // Not derivable byte-exactly (truncated stored search under a real
      // relabeling, or a confirm failed): fresh search below.
      out.clear();
      npn_count(stats.positive_fallbacks, "identify.npn.positive_fallbacks");
    }
  }
  npn_count(stats.exact_searches, "identify.npn.exact_searches");
  std::vector<unsigned> lens;
  bool plain_trunc = false;
  bool comp_trunc = false;
  collect_specs(f, /*complemented=*/false, opt, out,
                use_npn ? &lens : nullptr, use_npn ? &plain_trunc : nullptr);
  if (opt.try_complement) {
    collect_specs(f.complemented(), /*complemented=*/true, opt, out,
                  use_npn ? &lens : nullptr, use_npn ? &comp_trunc : nullptr);
  }
  if (use_npn && !orbit) {
    if (nmemo.entries >= kNpnMemoCap) {
      nmemo.buckets.clear();
      nmemo.entries = 0;
    }
    nmemo.buckets[nsig].push_back(NpnOrbitEntry{
        std::move(canon.table), f, std::move(canon.transform),
        opt.max_results, !out.empty(), plain_trunc, comp_trunc, out,
        std::move(lens)});
    ++nmemo.entries;
  }
}

/// The tier-1 entry for a non-constant exact-engine query: the stored one,
/// or a fresh search's answer stored as a new entry.
template <class Key>
MemoEntry& exact_entry(const Key& key, const IdentifyOptions& opt) {
  Counters::incr("identify.exact.attempts");
  ExactMemo& memo = exact_memo();
  const std::uint64_t hash = key.hash(opt);
  MemoEntry* hit = memo.find(hash, [&](const MemoEntry& e) {
    return e.max_results == opt.max_results &&
           e.try_complement == opt.try_complement && key.matches(e.table);
  });
  if (hit != nullptr) {
    Counters::incr("identify.memo.hits");
    note_memo_query(memo, /*hit=*/true);
    if (!hit->specs.empty()) Counters::incr("identify.exact.hits");
    return *hit;
  }
  Counters::incr("identify.memo.misses");
  note_memo_query(memo, /*hit=*/false);
  MemoEntry e;
  e.hash = hash;
  e.table = key.table();
  e.max_results = opt.max_results;
  e.try_complement = opt.try_complement;
  search_exact(e.table, opt, e.specs);
  if (!e.specs.empty()) Counters::incr("identify.exact.hits");
  return memo.insert(std::move(e));
}

ScoredSpecs entry_scored(MemoEntry& e, const UnitOptions& unit) {
  const std::size_t m = unit.merge_gates ? 1 : 0;
  if (!e.costed[m]) {
    e.costs[m].reserve(e.specs.size());
    for (const ComparisonSpec& spec : e.specs) e.costs[m].push_back(unit_cost(spec, unit));
    e.costed[m] = true;
  }
  return {e.specs, e.costs[m]};
}

/// Costs an answer the memo does not hold into a per-thread buffer.
ScoredSpecs buffer_scored(const std::vector<ComparisonSpec>& specs,
                          const UnitOptions& unit) {
  thread_local std::vector<UnitCost> costs;
  costs.clear();
  for (const ComparisonSpec& spec : specs) costs.push_back(unit_cost(spec, unit));
  return {specs, costs};
}

}  // namespace

const std::vector<ComparisonSpec>& identify_comparison(const TruthTable& f,
                                                       const IdentifyOptions& opt) {
  if (const std::vector<ComparisonSpec>* c = constant_specs(f)) return *c;
  if (opt.exact) return exact_entry(TableKey{f}, opt).specs;

  // The sampled engine's answer is not memoised: it depends on the Rng.
  thread_local std::vector<ComparisonSpec> out;
  out.clear();
  Counters::incr("identify.sampled.attempts");
  collect_specs(f, /*complemented=*/false, opt, out);
  if (opt.try_complement) {
    collect_specs(f.complemented(), /*complemented=*/true, opt, out);
  }
  if (!out.empty()) Counters::incr("identify.sampled.hits");
  return out;
}

ScoredSpecs identify_scored(const TruthTable& f, const IdentifyOptions& opt,
                            const UnitOptions& unit) {
  if (!opt.exact || constant_specs(f) != nullptr) {
    return buffer_scored(identify_comparison(f, opt), unit);
  }
  return entry_scored(exact_entry(TableKey{f}, opt), unit);
}

ScoredSpecs identify_scored(unsigned n, std::uint64_t word,
                            const IdentifyOptions& opt, const UnitOptions& unit) {
  assert(n <= 6);
  const std::uint64_t full = n == 6 ? ~0ull : (1ull << (1u << n)) - 1ull;
  assert((word & ~full) == 0);
  if (!opt.exact || word == 0 || word == full) {
    return identify_scored(TruthTable::from_word(n, word), opt, unit);
  }
  return entry_scored(exact_entry(WordKey{n, word}, opt), unit);
}

void clear_exact_identification_memo() {
  ExactMemo& memo = exact_memo();
  memo.reset();
  memo.queries = 0;
  memo.hits = 0;
  NpnMemo& nmemo = npn_memo();
  nmemo.buckets.clear();
  nmemo.entries = 0;
}

NpnIdentifyStats npn_identify_stats() {
  const NpnStatsAtomics& a = npn_atomics();
  NpnIdentifyStats s;
  s.canonicalizations = a.canonicalizations.load(std::memory_order_relaxed);
  s.orbit_hits = a.orbit_hits.load(std::memory_order_relaxed);
  s.negative_reuses = a.negative_reuses.load(std::memory_order_relaxed);
  s.transform_reuses = a.transform_reuses.load(std::memory_order_relaxed);
  s.positive_fallbacks = a.positive_fallbacks.load(std::memory_order_relaxed);
  s.confirm_rejects = a.confirm_rejects.load(std::memory_order_relaxed);
  s.exact_searches = a.exact_searches.load(std::memory_order_relaxed);
  return s;
}

bool is_comparison_function(const TruthTable& f) {
  IdentifyOptions opt;
  opt.max_results = 1;
  opt.try_complement = false;
  if (f.num_vars() == 0 || f.is_const_zero() || f.is_const_one()) return true;
  return !identify_comparison(f, opt).empty();
}

}  // namespace compsyn
