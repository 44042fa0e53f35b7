#include "core/comparison.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <numeric>
#include <unordered_map>

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
/// netlist) and bounded: the map is dropped wholesale past kMemoCap entries.
///
/// Keys are 64-bit functional signatures (core/signature.hpp) of the table
/// plus the query flags; every bucket hit is confirmed by an exact table and
/// flag compare, so a signature collision costs one extra compare but can
/// never return a wrong cached answer -- hit/miss behaviour is identical to
/// the full-string-key cache this replaces, at a fraction of the key cost.
struct ExactMemoEntry {
  TruthTable table;
  bool try_complement = false;
  unsigned max_results = 0;
  std::vector<ComparisonSpec> specs;
};

struct ExactMemo {
  std::unordered_map<std::uint64_t, std::vector<ExactMemoEntry>> buckets;
  std::size_t entries = 0;
  // Per-thread query/hit tallies feeding the profile's memo hit-rate
  // counter track (timing-only data, never part of the report).
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;
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

constexpr std::size_t kMemoCap = 1u << 16;

ExactMemo& exact_memo() {
  thread_local ExactMemo memo;
  return memo;
}

std::uint64_t memo_signature(const TruthTable& f, const IdentifyOptions& opt) {
  std::uint64_t sig = table_signature(f);
  const std::uint64_t flags =
      (static_cast<std::uint64_t>(opt.max_results) << 1) |
      (opt.try_complement ? 1u : 0u);
  return signature_mix(sig, flags);
}

bool memo_entry_matches(const ExactMemoEntry& e, const TruthTable& f,
                        const IdentifyOptions& opt) {
  return e.try_complement == opt.try_complement &&
         e.max_results == opt.max_results && e.table == f;
}

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

}  // namespace

const std::vector<ComparisonSpec>& identify_comparison(const TruthTable& f,
                                                       const IdentifyOptions& opt) {
  // Answers the memo does not own (constants, the sampled engine) are
  // returned from this per-thread buffer; a search's answer is built here
  // and then moved into its tier-1 entry.
  thread_local std::vector<ComparisonSpec> out;
  out.clear();
  const unsigned n = f.num_vars();
  if (n == 0) {
    // Constant function of zero variables: the empty-product interval.
    ComparisonSpec spec;
    spec.n = 0;
    spec.lower = 0;
    spec.upper = 0;
    spec.complemented = !f.get(0);
    out.push_back(spec);
    return out;
  }
  if (f.is_const_one() || f.is_const_zero()) {
    ComparisonSpec spec;
    spec.n = n;
    spec.perm.resize(n);
    std::iota(spec.perm.begin(), spec.perm.end(), 0u);
    spec.lower = 0;
    spec.upper = f.num_minterms() - 1;
    spec.complemented = f.is_const_zero();
    out.push_back(spec);
    return out;
  }
  if (opt.exact) {
    Counters::incr("identify.exact.attempts");
    ExactMemo& memo = exact_memo();
    const std::uint64_t sig = memo_signature(f, opt);
    auto it = memo.buckets.find(sig);
    if (it != memo.buckets.end()) {
      for (const ExactMemoEntry& e : it->second) {
        if (memo_entry_matches(e, f, opt)) {
          Counters::incr("identify.memo.hits");
          note_memo_query(memo, /*hit=*/true);
          if (!e.specs.empty()) Counters::incr("identify.exact.hits");
          return e.specs;
        }
      }
      // Same signature, different query: a genuine 64-bit collision. The
      // exact confirm above keeps it harmless; count it so reports surface
      // how (in)frequent collisions are in practice.
      Counters::incr("identify.memo.collisions");
    }
    Counters::incr("identify.memo.misses");
    note_memo_query(memo, /*hit=*/false);

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
    bool reused = false;
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
          reused = true;
        } else if (derive_orbit_specs(*orbit, f, canon.transform, &out)) {
          npn_count(stats.transform_reuses, "identify.npn.transform_reuses");
          reused = true;
        } else {
          // Not derivable byte-exactly (truncated stored search under a
          // real relabeling, or a confirm failed): fresh search below.
          out.clear();
          npn_count(stats.positive_fallbacks, "identify.npn.positive_fallbacks");
        }
      }
    }
    if (!reused) {
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
    if (memo.entries >= kMemoCap) {
      memo.buckets.clear();
      memo.entries = 0;
    }
    if (!out.empty()) Counters::incr("identify.exact.hits");
    std::vector<ExactMemoEntry>& bucket = memo.buckets[sig];
    bucket.push_back(
        ExactMemoEntry{f, opt.try_complement, opt.max_results, std::move(out)});
    ++memo.entries;
    return bucket.back().specs;
  }

  Counters::incr("identify.sampled.attempts");
  collect_specs(f, /*complemented=*/false, opt, out);
  if (opt.try_complement) {
    collect_specs(f.complemented(), /*complemented=*/true, opt, out);
  }
  if (!out.empty()) Counters::incr("identify.sampled.hits");
  return out;
}

void clear_exact_identification_memo() {
  ExactMemo& memo = exact_memo();
  memo.buckets.clear();
  memo.entries = 0;
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
