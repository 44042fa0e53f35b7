// Exhaustive property tests for the NPN canonicalization pass
// (core/signature.hpp) and for the soundness boundary of the NPN-orbit
// identification memo (core/comparison.cpp).
//
// At n <= 3 every one of the 2^(2^n) functions is checked against a
// brute-force orbit oracle that enumerates the whole transform group
// per-bit, independently of the kernels under test:
//   * canonical(f) == canonical(g)  iff  f and g share an orbit, and
//   * transform.apply(f) reproduces the canonical table exactly.
// n = 4 gets a seeded random sample through the same machinery.
//
// The memo-soundness tests pin the algebra the orbit cache relies on:
// comparison-function membership is invariant under input permutations and
// output complement (the kPermOutput group), and provably NOT under input
// negations -- including the concrete 3-variable counterexample that rules
// full-NPN result sharing out (DESIGN.md sect. 14).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "core/comparison.hpp"
#include "core/signature.hpp"
#include "core/truth_table.hpp"
#include "util/rng.hpp"

namespace compsyn {
namespace {

/// Oracle transform application: per-bit, no TruthTable kernels involved.
/// Mirrors NpnTransform semantics: complement output, flip the inputs in
/// `mask` (bit v = original variable v), then permute (position j holds
/// original variable perm[j]).
TruthTable oracle_apply(const TruthTable& f, const std::vector<unsigned>& perm,
                        std::uint32_t mask, bool output_neg) {
  const unsigned n = f.num_vars();
  std::uint32_t mask_minterm = 0;
  for (unsigned v = 0; v < n; ++v) {
    if ((mask >> v) & 1u) mask_minterm |= 1u << (n - 1 - v);
  }
  return TruthTable::from_function(n, [&](std::uint32_t m) {
    std::uint32_t orig = 0;
    for (unsigned j = 0; j < n; ++j) {
      const std::uint32_t bit = (m >> (n - 1 - j)) & 1u;
      orig |= bit << (n - 1 - perm[j]);
    }
    return f.get(orig ^ mask_minterm) != output_neg;
  });
}

/// The input-negation masks the chosen group allows.
std::vector<std::uint32_t> group_masks(unsigned n, NpnGroup group) {
  if (group == NpnGroup::kFull) {
    std::vector<std::uint32_t> all(1u << n);
    std::iota(all.begin(), all.end(), 0u);
    return all;
  }
  if (group == NpnGroup::kPermOutputReflect && n > 0) {
    return {0u, (1u << n) - 1u};
  }
  return {0u};
}

/// All orbit members of f under the chosen group, as bit strings.
std::set<std::string> oracle_orbit(const TruthTable& f, NpnGroup group) {
  const unsigned n = f.num_vars();
  std::set<std::string> orbit;
  std::vector<unsigned> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  const auto masks = group_masks(n, group);
  do {
    for (std::uint32_t mask : masks) {
      for (int o = 0; o < 2; ++o) {
        orbit.insert(oracle_apply(f, perm, mask, o != 0).to_bits());
      }
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return orbit;
}

TruthTable table_from_value(unsigned n, std::uint32_t bits) {
  TruthTable f(n);
  for (std::uint32_t m = 0; m < f.num_minterms(); ++m) f.set(m, (bits >> m) & 1u);
  return f;
}

/// Canonicalization is exact on the whole function space at this arity:
/// every orbit maps to one representative, the representative is a member
/// of the orbit, and the returned transform reproduces it.
void check_all_functions(unsigned n, NpnGroup group) {
  const std::uint32_t num_functions = 1u << (1u << n);
  std::set<std::string> done;  // orbit members already covered
  std::set<std::string> canonicals_seen;
  for (std::uint32_t bits = 0; bits < num_functions; ++bits) {
    const TruthTable f = table_from_value(n, bits);
    if (done.count(f.to_bits())) continue;

    const NpnCanonical canon = npn_canonicalize(f, group);
    ASSERT_EQ(canon.transform.apply(f), canon.table)
        << "transform must reproduce the canonical table for " << f.to_bits();

    const std::set<std::string> orbit = oracle_orbit(f, group);
    ASSERT_TRUE(orbit.count(canon.table.to_bits()))
        << "canonical table must be an orbit member of " << f.to_bits();
    // Distinct orbits are disjoint member sets, so checking that every
    // member canonicalizes to the same (member) table gives the full
    // "canonical equal iff orbit equal" property across the sweep.
    ASSERT_FALSE(canonicals_seen.count(canon.table.to_bits()))
        << "two distinct orbits share canonical " << canon.table.to_bits();
    canonicals_seen.insert(canon.table.to_bits());
    for (const std::string& member_bits : orbit) {
      const TruthTable g = TruthTable::from_bits(member_bits);
      const NpnCanonical member_canon = npn_canonicalize(g, group);
      ASSERT_EQ(member_canon.table, canon.table)
          << "orbit member " << member_bits << " of " << f.to_bits()
          << " canonicalized differently";
      ASSERT_EQ(member_canon.transform.apply(g), member_canon.table);
      done.insert(member_bits);
    }
  }
}

TEST(NpnCanonical, ExhaustiveFullGroupUpTo3Vars) {
  for (unsigned n = 0; n <= 3; ++n) check_all_functions(n, NpnGroup::kFull);
}

TEST(NpnCanonical, ExhaustivePermOutputGroupUpTo3Vars) {
  for (unsigned n = 0; n <= 3; ++n) check_all_functions(n, NpnGroup::kPermOutput);
}

TEST(NpnCanonical, ExhaustivePermOutputReflectGroupUpTo3Vars) {
  for (unsigned n = 0; n <= 3; ++n) {
    check_all_functions(n, NpnGroup::kPermOutputReflect);
  }
}

TEST(NpnCanonical, SeededSample4Vars) {
  Rng rng(0x4E504E34u);  // "NPN4"
  for (unsigned iter = 0; iter < 60; ++iter) {
    TruthTable f(4);
    const std::uint64_t bits = rng.next();
    for (std::uint32_t m = 0; m < 16; ++m) f.set(m, (bits >> m) & 1u);
    for (const NpnGroup group : {NpnGroup::kFull, NpnGroup::kPermOutputReflect,
                                 NpnGroup::kPermOutput}) {
      const NpnCanonical canon = npn_canonicalize(f, group);
      ASSERT_EQ(canon.transform.apply(f), canon.table);
      // A handful of random orbit members must land on the same canonical.
      for (unsigned t = 0; t < 8; ++t) {
        const auto p32 = rng.permutation(4);
        const std::vector<unsigned> perm(p32.begin(), p32.end());
        const std::uint32_t mask =
            group == NpnGroup::kFull
                ? static_cast<std::uint32_t>(rng.next() & 15u)
                : group == NpnGroup::kPermOutputReflect && rng.flip() ? 15u
                                                                      : 0u;
        const bool o = rng.flip();
        const TruthTable g = oracle_apply(f, perm, mask, o);
        const NpnCanonical gc = npn_canonicalize(g, group);
        ASSERT_EQ(gc.table, canon.table)
            << "member of " << f.to_bits() << " canonicalized differently";
        ASSERT_EQ(gc.transform.apply(g), gc.table);
      }
    }
  }
}

// --- n = 5 and 6: the families that stress ties and symmetry ---------------
//
// The canonicalizer sorts variables by their positive-cofactor ON count and
// only arranges runs of equal keys, collapsing runs of pairwise-symmetric
// variables to one arrangement. Totally symmetric functions tie every key
// and collapse every run; comparison functions and single-symmetric-pair
// functions mix distinct keys, symmetric runs and non-symmetric ties.

/// x_v's value in minterm m of an n-variable table (variable 0 = MSB).
bool var_bit(unsigned n, std::uint32_t m, unsigned v) {
  return (m >> (n - 1 - v)) & 1u;
}

/// Totally symmetric threshold: at least t of the n inputs are 1 (t = n is
/// AND, t = 1 is OR).
TruthTable threshold_function(unsigned n, unsigned t) {
  return TruthTable::from_function(n, [&](std::uint32_t m) {
    return static_cast<unsigned>(std::popcount(m)) >= t;
  });
}

/// A comparison function: ON-set [lo, hi] under a random order, maybe
/// complemented.
TruthTable random_comparison_function(Rng& rng, unsigned n) {
  const std::uint32_t max = (1u << n) - 1;
  std::uint32_t lo = static_cast<std::uint32_t>(rng.below(max + 1));
  std::uint32_t hi = static_cast<std::uint32_t>(rng.below(max + 1));
  if (lo > hi) std::swap(lo, hi);
  const auto p32 = rng.permutation(n);
  ComparisonSpec spec;
  spec.n = n;
  spec.perm.assign(p32.begin(), p32.end());
  spec.lower = lo;
  spec.upper = hi;
  spec.complemented = rng.flip();
  return spec.to_truth_table();
}

/// Whether f is unchanged by exchanging variables a and b.
bool symmetric_pair(const TruthTable& f, unsigned a, unsigned b) {
  std::vector<unsigned> perm(f.num_vars());
  std::iota(perm.begin(), perm.end(), 0u);
  std::swap(perm[a], perm[b]);
  return f.permuted(perm) == f;
}

/// A random function symmetric in exactly one pair of variables: a random
/// table over (x_a + x_b, the other inputs), redrawn until no other pair is
/// symmetric.
TruthTable one_symmetric_pair_function(Rng& rng, unsigned n) {
  for (;;) {
    const auto p32 = rng.permutation(n);
    const unsigned a = p32[0];
    const unsigned b = p32[1];
    std::vector<std::uint64_t> words(3 * 4);  // 3 pair sums x 2^(n-2) <= 192 bits
    for (auto& w : words) w = rng.next();
    const TruthTable f = TruthTable::from_function(n, [&](std::uint32_t m) {
      std::uint32_t rest = 0;
      for (unsigned v = 0; v < n; ++v) {
        if (v != a && v != b) rest = (rest << 1) | var_bit(n, m, v);
      }
      const std::uint32_t sum = var_bit(n, m, a) + var_bit(n, m, b);
      const std::uint32_t idx = (sum << (n - 2)) | rest;
      return (words[idx >> 6] >> (idx & 63)) & 1u;
    });
    unsigned pairs = 0;
    for (unsigned u = 0; u < n; ++u) {
      for (unsigned v = u + 1; v < n; ++v) pairs += symmetric_pair(f, u, v);
    }
    if (pairs == 1) return f;
  }
}

TruthTable random_function(Rng& rng, unsigned n) {
  TruthTable f(n);
  const std::uint64_t bits = rng.next();
  for (std::uint32_t m = 0; m < f.num_minterms(); ++m) f.set(m, (bits >> m) & 1u);
  return f;
}

/// Canonicalizes f and `samples` random orbit members under `group`: every
/// member must land on f's canonical table, and every returned transform
/// must reproduce its canonical table exactly.
void check_sampled_orbit(const TruthTable& f, NpnGroup group, Rng& rng,
                         unsigned samples) {
  const unsigned n = f.num_vars();
  const std::uint32_t all = (1u << n) - 1u;
  const NpnCanonical canon = npn_canonicalize(f, group);
  ASSERT_EQ(canon.transform.apply(f), canon.table) << f.to_bits();
  for (unsigned t = 0; t < samples; ++t) {
    const auto p32 = rng.permutation(n);
    const std::vector<unsigned> perm(p32.begin(), p32.end());
    const std::uint32_t mask =
        group == NpnGroup::kFull ? static_cast<std::uint32_t>(rng.next() & all)
        : group == NpnGroup::kPermOutputReflect && rng.flip() ? all
                                                              : 0u;
    const TruthTable g = oracle_apply(f, perm, mask, rng.flip());
    const NpnCanonical gc = npn_canonicalize(g, group);
    ASSERT_EQ(gc.table, canon.table)
        << "member " << g.to_bits() << " of " << f.to_bits()
        << " canonicalized differently (group " << static_cast<int>(group) << ")";
    ASSERT_EQ(gc.transform.apply(g), gc.table);
  }
}

constexpr NpnGroup kAllGroups[] = {NpnGroup::kFull, NpnGroup::kPermOutputReflect,
                                   NpnGroup::kPermOutput};

TEST(NpnCanonical, SymmetricThresholdsAndAndOr5And6Vars) {
  Rng rng(0x4E504E36u);
  for (unsigned n = 5; n <= 6; ++n) {
    for (unsigned t = 1; t <= n; ++t) {
      for (const NpnGroup group : kAllGroups) {
        check_sampled_orbit(threshold_function(n, t), group, rng, 12);
      }
    }
  }
}

TEST(NpnCanonical, ComparisonFunctions5And6Vars) {
  Rng rng(0x4E504E37u);
  for (unsigned n = 5; n <= 6; ++n) {
    for (unsigned iter = 0; iter < 20; ++iter) {
      const TruthTable f = random_comparison_function(rng, n);
      for (const NpnGroup group : kAllGroups) check_sampled_orbit(f, group, rng, 8);
    }
  }
}

TEST(NpnCanonical, OneSymmetricPair5And6Vars) {
  Rng rng(0x4E504E38u);
  for (unsigned n = 5; n <= 6; ++n) {
    for (unsigned iter = 0; iter < 12; ++iter) {
      const TruthTable f = one_symmetric_pair_function(rng, n);
      for (const NpnGroup group : kAllGroups) check_sampled_orbit(f, group, rng, 8);
    }
  }
}

TEST(NpnCanonical, RandomFunctions5And6Vars) {
  Rng rng(0x4E504E39u);
  for (unsigned n = 5; n <= 6; ++n) {
    for (unsigned iter = 0; iter < 20; ++iter) {
      const TruthTable f = random_function(rng, n);
      for (const NpnGroup group : kAllGroups) check_sampled_orbit(f, group, rng, 8);
    }
  }
}

TEST(NpnCanonical, PlainChangesScheduleVisitsAllPermutations) {
  for (unsigned n = 1; n <= 5; ++n) {
    std::vector<unsigned> perm(n);
    std::iota(perm.begin(), perm.end(), 0u);
    std::set<std::vector<unsigned>> seen{perm};
    for (unsigned p : plain_changes_schedule(n)) {
      ASSERT_LT(p + 1, n);
      std::swap(perm[p], perm[p + 1]);
      ASSERT_TRUE(seen.insert(perm).second) << "permutation revisited";
    }
    std::uint64_t fact = 1;
    for (unsigned i = 2; i <= n; ++i) fact *= i;
    EXPECT_EQ(seen.size(), fact);
  }
}

/// Whether f is a comparison function when the complement is also allowed
/// (the orbit-level property the identification memo shares).
bool in_comparison_class(const TruthTable& f) {
  return !identify_comparison(f, IdentifyOptions{}).empty();
}

TEST(NpnMemoSoundness, ComparisonClassInvariantUnderPermOutputReflectGroup) {
  // The invariance that justifies sharing negative identification results
  // across the memo's orbits: membership is constant on each orbit of
  // permutations x output complement x whole-input reflection. (The
  // reflection negates every input at once, mapping value v to 2^n-1-v
  // under any order -- intervals map to intervals, so membership holds.)
  for (unsigned n = 1; n <= 3; ++n) {
    const std::uint32_t num_functions = 1u << (1u << n);
    for (std::uint32_t bits = 0; bits < num_functions; ++bits) {
      const TruthTable f = table_from_value(n, bits);
      const bool member = in_comparison_class(f);
      for (const std::string& g_bits :
           oracle_orbit(f, NpnGroup::kPermOutputReflect)) {
        EXPECT_EQ(in_comparison_class(TruthTable::from_bits(g_bits)), member)
            << f.to_bits() << " vs orbit member " << g_bits;
      }
    }
  }
}

bool specs_equal(const std::vector<ComparisonSpec>& a,
                 const std::vector<ComparisonSpec>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].n != b[i].n || a[i].perm != b[i].perm ||
        a[i].lower != b[i].lower || a[i].upper != b[i].upper ||
        a[i].complemented != b[i].complemented) {
      return false;
    }
  }
  return true;
}

std::string specs_string(const std::vector<ComparisonSpec>& specs) {
  std::string s;
  for (const auto& spec : specs) {
    s += spec.complemented ? "~(" : "(";
    for (unsigned v : spec.perm) s += std::to_string(v) + " ";
    s += "[" + std::to_string(spec.lower) + "," + std::to_string(spec.upper) +
         "]) ";
  }
  return s;
}

/// The memo's byte-exactness contract, checked member by member: querying
/// any orbit member g AFTER its orbit entry exists (planted by querying f)
/// must return exactly the vector a fresh memo-off search on g returns --
/// same specs, same order -- whether the tier derived it or fell back.
void check_orbit_derivation(const TruthTable& f,
                            const std::set<std::string>& orbit) {
  IdentifyOptions memo_on;
  IdentifyOptions memo_off;
  memo_off.npn_memo = false;
  for (const std::string& g_bits : orbit) {
    const TruthTable g = TruthTable::from_bits(g_bits);
    clear_exact_identification_memo();
    const auto fresh = identify_comparison(g, memo_off);
    clear_exact_identification_memo();
    identify_comparison(f, memo_on);  // plants the orbit entry
    const auto derived = identify_comparison(g, memo_on);
    ASSERT_TRUE(specs_equal(derived, fresh))
        << "member " << g_bits << " of planted " << f.to_bits()
        << "\n  fresh:   " << specs_string(fresh)
        << "\n  derived: " << specs_string(derived);
  }
}

TEST(NpnMemoSoundness, DerivedSpecsMatchFreshSearchExhaustive3Vars) {
  // Exhaustive n <= 3: every function f plants an orbit entry, then every
  // member of f's memo-group orbit is asserted byte-identical to a fresh
  // search. This is the direct test of the derive_orbit_specs reasoning
  // (lex emission order, relabel-isomorphic DFS, half swap, reflection).
  const NpnIdentifyStats before = npn_identify_stats();
  for (unsigned n = 1; n <= 3; ++n) {
    const std::uint32_t num_functions = 1u << (1u << n);
    std::set<std::string> done;
    for (std::uint32_t bits = 0; bits < num_functions; ++bits) {
      const TruthTable f = table_from_value(n, bits);
      if (f.is_const_zero() || f.is_const_one()) continue;  // no-search path
      if (!done.insert(f.to_bits()).second) continue;
      const auto orbit = oracle_orbit(f, NpnGroup::kPermOutputReflect);
      check_orbit_derivation(f, orbit);
      done.insert(orbit.begin(), orbit.end());
    }
  }
  clear_exact_identification_memo();
  const NpnIdentifyStats after = npn_identify_stats();
  // The sweep must actually exercise the derivation path, not just fall
  // back to fresh searches everywhere.
  EXPECT_GT(after.transform_reuses, before.transform_reuses + 100);
}

TEST(NpnMemoSoundness, DerivedSpecsMatchFreshSearchSampled4Vars) {
  Rng rng(0x4E504E35u);
  for (unsigned iter = 0; iter < 25; ++iter) {
    TruthTable f(4);
    const std::uint64_t bits = rng.next();
    for (std::uint32_t m = 0; m < 16; ++m) f.set(m, (bits >> m) & 1u);
    if (f.is_const_zero() || f.is_const_one()) continue;
    // A random slice of the orbit (full orbits have up to 96 members).
    std::set<std::string> members;
    for (unsigned t = 0; t < 10; ++t) {
      const auto p32 = rng.permutation(4);
      const std::vector<unsigned> perm(p32.begin(), p32.end());
      const std::uint32_t mask = rng.flip() ? 15u : 0u;
      members.insert(oracle_apply(f, perm, mask, rng.flip()).to_bits());
    }
    check_orbit_derivation(f, members);
  }
  clear_exact_identification_memo();
}

TEST(NpnMemoSoundness, ComparisonClassNotClosedUnderInputNegation) {
  // The documented counterexample: f has ON-set {1, 2} (an interval), but
  // negating variable 1 yields ON-set {0, 3}, which no permutation or
  // output complement makes contiguous. Full-NPN sharing of identification
  // results would therefore return wrong answers; the memo's orbit group
  // must exclude input negations.
  const TruthTable f = TruthTable::from_bits("01100000");
  ASSERT_TRUE(in_comparison_class(f));
  const TruthTable g = f.flip_input(1);
  EXPECT_EQ(g.to_bits(), "10010000");
  EXPECT_FALSE(in_comparison_class(g));
}

}  // namespace
}  // namespace compsyn
