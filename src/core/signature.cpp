#include "core/signature.hpp"

#include <array>
#include <bit>
#include <cassert>
#include <numeric>

#include "util/rng.hpp"

namespace compsyn {

std::uint64_t signature_mix(std::uint64_t h, std::uint64_t value) {
  // splitmix64 finalisation over the running hash xor the new value.
  std::uint64_t z = (h ^ value) + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t table_signature(const TruthTable& f) {
  // hash() already folds every table word; mixing in num_vars separates the
  // (say) 1-variable "01" table from the 2-variable "0101" one.
  return signature_mix(f.hash(), f.num_vars());
}

std::vector<std::uint64_t> node_signatures(const Netlist& nl, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> pi(nl.inputs().size());
  for (auto& w : pi) w = rng.next();
  std::vector<std::uint64_t> sig;
  nl.simulate_into(pi, sig);
  return sig;
}

namespace {

std::uint64_t factorial(unsigned n) {
  std::uint64_t f = 1;
  for (unsigned i = 2; i <= n; ++i) f *= i;
  return f;
}

/// Plain-changes generator: weaves element n-1 through every permutation of
/// the first n-1 elements, alternating sweep direction, with one sub-swap
/// between sweeps (offset by 1 while the woven element sits at the front).
std::vector<unsigned> gen_plain_changes(unsigned n) {
  if (n < 2) return {};
  const std::vector<unsigned> sub = gen_plain_changes(n - 1);
  const std::uint64_t blocks = factorial(n - 1);
  std::vector<unsigned> out;
  out.reserve(static_cast<std::size_t>(factorial(n)) - 1);
  bool down = true;
  std::size_t si = 0;
  for (std::uint64_t block = 0; block < blocks; ++block) {
    if (down) {
      for (unsigned p = n - 1; p-- > 0;) out.push_back(p);
    } else {
      for (unsigned p = 0; p < n - 1; ++p) out.push_back(p);
    }
    if (block + 1 < blocks) {
      out.push_back(down ? sub[si] + 1 : sub[si]);
      ++si;
      down = !down;
    }
  }
  return out;
}

}  // namespace

const std::vector<unsigned>& plain_changes_schedule(unsigned n) {
  // 8! - 1 = 40319 swaps is the largest schedule we materialise; the
  // canonicalizer walks one schedule per tied key run (at most n <= 7
  // variables for the memo's cones).
  assert(n <= 8 && "n! adjacent swaps: keep the schedule small");
  static const std::array<std::vector<unsigned>, 9> schedules = [] {
    std::array<std::vector<unsigned>, 9> s;
    for (unsigned i = 0; i <= 8; ++i) s[i] = gen_plain_changes(i);
    return s;
  }();
  return schedules[n];
}

TruthTable NpnTransform::apply(const TruthTable& f) const {
  TruthTable h = output_neg ? f.complemented() : f;
  for (unsigned v = 0; v < f.num_vars(); ++v) {
    if ((input_neg >> v) & 1u) h.flip_input_inplace(v);
  }
  return h.permuted(perm);
}

namespace {

/// One stretch of equal-key positions whose arrangements the canonicalizer
/// must try (a run of pairwise-symmetric variables is never listed).
struct TieRun {
  unsigned begin = 0;
  unsigned len = 0;
};

/// Visits every arrangement of the listed runs, each one adjacent swap away
/// from the last: run r's plain-changes schedule is replayed, from wherever
/// the previous replay left it, between consecutive arrangements of runs
/// r+1... (replaying a schedule from any start visits all len! orders).
template <class Visit>
void walk_tie_runs(const TieRun* runs, std::size_t count, TruthTable& t,
                   unsigned* perm, const Visit& visit) {
  if (count == 0) {
    visit();
    return;
  }
  walk_tie_runs(runs + 1, count - 1, t, perm, visit);
  for (unsigned p : plain_changes_schedule(runs->len)) {
    const unsigned pos = runs->begin + p;
    t.swap_adjacent_inplace(pos);
    std::swap(perm[pos], perm[pos + 1]);
    walk_tie_runs(runs + 1, count - 1, t, perm, visit);
  }
}

}  // namespace

NpnCanonical npn_canonicalize(const TruthTable& f, NpnGroup group) {
  const unsigned n = f.num_vars();
  NpnCanonical best;
  bool have = false;
  std::array<unsigned, 16> perm;
  std::array<std::uint32_t, 16> key;
  std::array<TieRun, 8> runs;

  const std::uint32_t all = n == 0 ? 0u : ((1u << n) - 1u);
  const std::uint32_t nmasks = group == NpnGroup::kFull ? (1u << n)
                               : group == NpnGroup::kPermOutputReflect ? 2u
                                                                       : 1u;
  for (int o = 0; o < 2; ++o) {
    // Base for this output polarity; polarity masks walk so each step flips
    // inputs incrementally (Gray order for kFull: one kernel call per step;
    // the reflection group steps 0 -> all-ones, n calls once).
    TruthTable mb = o ? f.complemented() : f;
    std::uint32_t mask = 0;
    for (std::uint32_t g = 0; g < nmasks; ++g) {
      const std::uint32_t next =
          group == NpnGroup::kFull ? (g ^ (g >> 1)) : (g == 0 ? 0u : all);
      for (std::uint32_t diff = mask ^ next; diff != 0; diff &= diff - 1) {
        mb.flip_input_inplace(static_cast<unsigned>(std::countr_zero(diff)));
      }
      mask = next;
      // Key-sorted arrangement of this element: position j holds the
      // variable with the j-th smallest positive-cofactor ON count.
      // (Stable insertion sort by adjacent swaps, applied to the table as
      // it goes.)
      for (unsigned v = 0; v < n; ++v) key[v] = mb.count_ones_positive(v);
      std::iota(perm.begin(), perm.begin() + n, 0u);
      TruthTable t = mb;
      for (unsigned j = 1; j < n; ++j) {
        for (unsigned k = j; k > 0 && key[perm[k]] < key[perm[k - 1]]; --k) {
          t.swap_adjacent_inplace(k - 1);
          std::swap(perm[k - 1], perm[k]);
        }
      }
      // Runs of equal keys still need every arrangement -- unless all of a
      // run's adjacent swaps fix the table, i.e. its variables are pairwise
      // symmetric and every arrangement is the same table.
      std::size_t nruns = 0;
      for (unsigned b = 0; b < n;) {
        unsigned e = b + 1;
        while (e < n && key[perm[e]] == key[perm[b]]) ++e;
        bool symmetric = true;
        for (unsigned p = b; p + 1 < e && symmetric; ++p) {
          symmetric = t.swap_adjacent(p) == t;
        }
        if (!symmetric) runs[nruns++] = TieRun{b, e - b};
        b = e;
      }
      walk_tie_runs(runs.data(), nruns, t, perm.data(), [&] {
        if (have && t.compare_words(best.table) >= 0) return;
        best.table = t;
        best.transform.perm.assign(perm.begin(), perm.begin() + n);
        best.transform.input_neg = mask;
        best.transform.output_neg = o != 0;
        have = true;
      });
    }
  }
  assert(have);
  assert(best.transform.apply(f) == best.table);
  return best;
}

}  // namespace compsyn
