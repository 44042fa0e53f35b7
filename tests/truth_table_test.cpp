#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "core/truth_table.hpp"
#include "truth_table_ref.hpp"
#include "util/rng.hpp"

namespace compsyn {
namespace {

TEST(TruthTable, ZeroVarTable) {
  TruthTable t(0);
  EXPECT_EQ(t.num_minterms(), 1u);
  EXPECT_FALSE(t.get(0));
  t.set(0, true);
  EXPECT_TRUE(t.get(0));
  EXPECT_TRUE(t.is_const_one());
}

TEST(TruthTable, SetGetRoundTrip) {
  TruthTable t(4);
  for (std::uint32_t m = 0; m < 16; m += 3) t.set(m, true);
  for (std::uint32_t m = 0; m < 16; ++m) EXPECT_EQ(t.get(m), m % 3 == 0);
  EXPECT_EQ(t.count_ones(), 6u);
}

TEST(TruthTable, FromBitsAndBack) {
  const std::string bits = "0110100110010110";  // 4-var parity-ish
  TruthTable t = TruthTable::from_bits(bits);
  EXPECT_EQ(t.num_vars(), 4u);
  EXPECT_EQ(t.to_bits(), bits);
}

TEST(TruthTable, FromBitsRejectsBadInput) {
  EXPECT_THROW(TruthTable::from_bits("011"), std::invalid_argument);
  EXPECT_THROW(TruthTable::from_bits("01x1"), std::invalid_argument);
}

TEST(TruthTable, TooManyVarsRejected) {
  EXPECT_THROW(TruthTable(17), std::invalid_argument);
}

TEST(TruthTable, MsbConvention) {
  // f = x1 (variable 0 is the MSB): ON minterms are the upper half.
  TruthTable t = TruthTable::from_function(3, [](std::uint32_t m) { return m >= 4; });
  const auto on = t.on_set();
  ASSERT_EQ(on.size(), 4u);
  EXPECT_EQ(on.front(), 4u);
  EXPECT_EQ(on.back(), 7u);
  // Cofactor on variable 0 (the MSB).
  EXPECT_TRUE(t.cofactor(0, true).is_const_one());
  EXPECT_TRUE(t.cofactor(0, false).is_const_zero());
}

TEST(TruthTable, ComplementAndConsts) {
  TruthTable t(5);
  EXPECT_TRUE(t.is_const_zero());
  TruthTable c = t.complemented();
  EXPECT_TRUE(c.is_const_one());
  EXPECT_EQ(c.count_ones(), 32u);
  EXPECT_EQ(c.complemented(), t);
}

TEST(TruthTable, Complement6VarMasksNothing) {
  TruthTable t(6);
  t.set(0, true);
  TruthTable c = t.complemented();
  EXPECT_EQ(c.count_ones(), 63u);
  EXPECT_FALSE(c.get(0));
  EXPECT_TRUE(c.get(63));
}

TEST(TruthTable, PermutedIdentity) {
  Rng rng(1);
  TruthTable t = TruthTable::from_function(4, [&](std::uint32_t) { return rng.flip(); });
  EXPECT_EQ(t.permuted({0, 1, 2, 3}), t);
}

TEST(TruthTable, PermutedSwapsVariables) {
  // f = x1 (MSB). After moving variable 1 into position 0, f = x2' ... i.e.
  // the permuted function should be "variable at position 1".
  TruthTable t = TruthTable::from_function(2, [](std::uint32_t m) { return m >= 2; });
  TruthTable p = t.permuted({1, 0});
  // p(b0 b1) = t(b1 b0): ON where the new LSB (old MSB) is 1: minterms 1, 3.
  EXPECT_FALSE(p.get(0));
  EXPECT_TRUE(p.get(1));
  EXPECT_FALSE(p.get(2));
  EXPECT_TRUE(p.get(3));
}

TEST(TruthTable, PermutedComposes) {
  Rng rng(7);
  TruthTable t = TruthTable::from_function(5, [&](std::uint32_t) { return rng.flip(); });
  const std::vector<unsigned> p1{2, 0, 4, 1, 3};
  // Applying p1 then its inverse returns the original.
  std::vector<unsigned> inv(5);
  for (unsigned j = 0; j < 5; ++j) inv[p1[j]] = j;
  EXPECT_EQ(t.permuted(p1).permuted(inv), t);
}

TEST(TruthTable, CofactorShannonExpansion) {
  Rng rng(3);
  TruthTable t = TruthTable::from_function(5, [&](std::uint32_t) { return rng.flip(); });
  for (unsigned v = 0; v < 5; ++v) {
    const TruthTable f0 = t.cofactor(v, false);
    const TruthTable f1 = t.cofactor(v, true);
    // Rebuild t from the cofactors.
    const unsigned shift = 5 - 1 - v;
    for (std::uint32_t m = 0; m < 32; ++m) {
      const bool bit = (m >> shift) & 1u;
      const std::uint32_t low = m & ((1u << shift) - 1u);
      const std::uint32_t reduced = ((m >> (shift + 1)) << shift) | low;
      EXPECT_EQ(t.get(m), bit ? f1.get(reduced) : f0.get(reduced));
    }
  }
}

TEST(TruthTable, VacuousAndSupport) {
  // f = x1 AND x3 over 3 vars: variable 1 is vacuous.
  TruthTable t = TruthTable::from_function(
      3, [](std::uint32_t m) { return ((m >> 2) & 1u) && (m & 1u); });
  EXPECT_FALSE(t.is_vacuous(0));
  EXPECT_TRUE(t.is_vacuous(1));
  EXPECT_FALSE(t.is_vacuous(2));
  EXPECT_EQ(t.support(), (std::vector<unsigned>{0, 2}));
  std::vector<unsigned> kept;
  TruthTable r = t.support_reduced(&kept);
  EXPECT_EQ(kept, (std::vector<unsigned>{0, 2}));
  EXPECT_EQ(r.num_vars(), 2u);
  // Reduced function is AND of its two vars: ON-set = {3}.
  EXPECT_EQ(r.on_set(), (std::vector<std::uint32_t>{3}));
}

TEST(TruthTable, SupportReducedOfConstant) {
  TruthTable t = TruthTable::from_function(4, [](std::uint32_t) { return true; });
  TruthTable r = t.support_reduced();
  EXPECT_EQ(r.num_vars(), 0u);
  EXPECT_TRUE(r.is_const_one());
}

TEST(TruthTable, HashDiscriminates) {
  TruthTable a = TruthTable::from_bits("01101001");
  TruthTable b = TruthTable::from_bits("01101000");
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_EQ(a.hash(), TruthTable::from_bits("01101001").hash());
}

TEST(TruthTable, OnSetSortedAscending) {
  TruthTable t = TruthTable::from_bits("10010110");
  const auto on = t.on_set();
  EXPECT_EQ(on, (std::vector<std::uint32_t>{0, 3, 5, 6}));
}

// --- Differentials: bit-parallel kernels vs the scalar references ----------
//
// truth_table.cpp implements the primitives with delta-swap masks, word
// copies and popcount spans; truth_table_ref.hpp retains the per-bit
// loops they replaced. Every kernel is byte-compared (to_bits) against its
// reference over random tables at every arity 1..16.

TruthTable random_table(Rng& rng, unsigned n) {
  TruthTable t(n);
  for (std::uint32_t m = 0; m < t.num_minterms(); m += 64) {
    const std::uint64_t w = rng.next();
    const std::uint32_t span = std::min<std::uint32_t>(64, t.num_minterms() - m);
    for (std::uint32_t b = 0; b < span; ++b) t.set(m + b, (w >> b) & 1u);
  }
  return t;
}

TEST(TruthTableKernels, ComplementMatchesReference) {
  Rng rng(0xC0FFEE01u);
  for (unsigned n = 1; n <= 16; ++n) {
    for (unsigned iter = 0; iter < (n <= 10 ? 16u : 4u); ++iter) {
      const TruthTable f = random_table(rng, n);
      EXPECT_EQ(f.complemented().to_bits(), ref::complemented(f).to_bits());
    }
  }
}

TEST(TruthTableKernels, SwapAdjacentMatchesReference) {
  Rng rng(0xC0FFEE02u);
  for (unsigned n = 2; n <= 16; ++n) {
    for (unsigned iter = 0; iter < (n <= 10 ? 8u : 2u); ++iter) {
      const TruthTable f = random_table(rng, n);
      for (unsigned pos = 0; pos + 1 < n; ++pos) {
        EXPECT_EQ(f.swap_adjacent(pos).to_bits(),
                  ref::swap_adjacent(f, pos).to_bits())
            << "n=" << n << " pos=" << pos;
      }
    }
  }
}

TEST(TruthTableKernels, FlipInputMatchesReference) {
  Rng rng(0xC0FFEE03u);
  for (unsigned n = 1; n <= 16; ++n) {
    for (unsigned iter = 0; iter < (n <= 10 ? 8u : 2u); ++iter) {
      const TruthTable f = random_table(rng, n);
      for (unsigned v = 0; v < n; ++v) {
        EXPECT_EQ(f.flip_input(v).to_bits(), ref::flip_input(f, v).to_bits())
            << "n=" << n << " var=" << v;
        // Flipping twice is the identity.
        EXPECT_EQ(f.flip_input(v).flip_input(v), f);
      }
    }
  }
}

TEST(TruthTableKernels, CofactorMatchesReference) {
  Rng rng(0xC0FFEE04u);
  for (unsigned n = 1; n <= 16; ++n) {
    for (unsigned iter = 0; iter < (n <= 10 ? 8u : 2u); ++iter) {
      const TruthTable f = random_table(rng, n);
      for (unsigned v = 0; v < n; ++v) {
        for (bool value : {false, true}) {
          EXPECT_EQ(f.cofactor(v, value).to_bits(),
                    ref::cofactor(f, v, value).to_bits())
              << "n=" << n << " var=" << v << " value=" << value;
        }
      }
    }
  }
}

TEST(TruthTableKernels, CountOnesPositiveMatchesReference) {
  Rng rng(0xC0FFEE08u);
  for (unsigned n = 1; n <= 16; ++n) {
    for (unsigned iter = 0; iter < (n <= 10 ? 8u : 2u); ++iter) {
      const TruthTable f = random_table(rng, n);
      for (unsigned v = 0; v < n; ++v) {
        EXPECT_EQ(f.count_ones_positive(v), ref::count_ones_positive(f, v))
            << "n=" << n << " var=" << v;
      }
    }
  }
}

TEST(TruthTableKernels, PermutedMatchesReference) {
  Rng rng(0xC0FFEE05u);
  for (unsigned n = 1; n <= 16; ++n) {
    for (unsigned iter = 0; iter < (n <= 10 ? 8u : 2u); ++iter) {
      const TruthTable f = random_table(rng, n);
      const auto p32 = rng.permutation(n);
      const std::vector<unsigned> perm(p32.begin(), p32.end());
      EXPECT_EQ(f.permuted(perm).to_bits(), ref::permuted(f, perm).to_bits())
          << "n=" << n;
    }
  }
}

TEST(TruthTableKernels, IntervalBoundsMatchesReference) {
  Rng rng(0xC0FFEE06u);
  for (unsigned n = 1; n <= 16; ++n) {
    // Random tables (almost never intervals at larger n) ...
    for (unsigned iter = 0; iter < 16; ++iter) {
      const TruthTable f = random_table(rng, n);
      std::uint32_t lo_k = 0, hi_k = 0, lo_r = 0, hi_r = 0;
      const bool k = f.interval_bounds(&lo_k, &hi_k);
      const bool r = ref::interval_bounds(f, &lo_r, &hi_r);
      ASSERT_EQ(k, r) << "n=" << n << " " << f.to_bits();
      if (k) {
        EXPECT_EQ(lo_k, lo_r);
        EXPECT_EQ(hi_k, hi_r);
      }
    }
    // ... and constructed intervals, which must all be accepted exactly.
    for (unsigned iter = 0; iter < 8; ++iter) {
      const std::uint32_t nm = 1u << n;
      std::uint32_t a = static_cast<std::uint32_t>(rng.next() % nm);
      std::uint32_t b = static_cast<std::uint32_t>(rng.next() % nm);
      if (a > b) std::swap(a, b);
      TruthTable f(n);
      for (std::uint32_t m = a; m <= b; ++m) f.set(m, true);
      std::uint32_t lo = 0, hi = 0;
      ASSERT_TRUE(f.interval_bounds(&lo, &hi)) << "n=" << n;
      EXPECT_EQ(lo, a);
      EXPECT_EQ(hi, b);
    }
  }
  // The constant-zero table has no interval.
  std::uint32_t lo = 0, hi = 0;
  EXPECT_FALSE(TruthTable(4).interval_bounds(&lo, &hi));
}

TEST(TruthTableKernels, SupportReducedMatchesReference) {
  Rng rng(0xC0FFEE07u);
  for (unsigned n = 2; n <= 12; ++n) {
    for (unsigned iter = 0; iter < 8; ++iter) {
      // Build a table with planted vacuous variables: a random function of
      // a subset of the inputs.
      const TruthTable g = random_table(rng, n / 2);
      std::vector<unsigned> used;
      while (used.size() < n / 2) {
        const unsigned v = static_cast<unsigned>(rng.next() % n);
        if (std::find(used.begin(), used.end(), v) == used.end()) used.push_back(v);
      }
      std::sort(used.begin(), used.end());
      const TruthTable f = TruthTable::from_function(n, [&](std::uint32_t m) {
        std::uint32_t sub = 0;
        for (unsigned j = 0; j < used.size(); ++j) {
          const std::uint32_t bit = (m >> (n - 1 - used[j])) & 1u;
          sub |= bit << (used.size() - 1 - j);
        }
        return g.get(sub);
      });
      std::vector<unsigned> kept_k, kept_r;
      EXPECT_EQ(f.support_reduced(&kept_k).to_bits(),
                ref::support_reduced(f, &kept_r).to_bits())
          << "n=" << n;
      EXPECT_EQ(kept_k, kept_r);
    }
  }
}

/// Checks support_reduced_word on one n <= 6 word against the per-bit
/// reference and against TruthTable::support_reduced of the same function.
void expect_word_reduction_matches(unsigned n, std::uint64_t word) {
  std::uint64_t reduced = 0, reduced_ref = 0;
  unsigned kept[6], kept_ref[6];
  const unsigned r = support_reduced_word(n, word, &reduced, kept);
  const unsigned r_ref = ref::support_reduced_word(n, word, &reduced_ref, kept_ref);
  ASSERT_EQ(r, r_ref) << "n=" << n << " word=" << std::hex << word;
  EXPECT_EQ(reduced, reduced_ref) << "n=" << n << " word=" << std::hex << word;
  EXPECT_TRUE(std::equal(kept, kept + r, kept_ref));

  std::vector<unsigned> kept_table;
  const TruthTable table = TruthTable::from_word(n, word).support_reduced(&kept_table);
  ASSERT_EQ(table.num_vars(), r);
  EXPECT_EQ(table.word(0), reduced) << "n=" << n << " word=" << std::hex << word;
  EXPECT_EQ(kept_table, std::vector<unsigned>(kept, kept + r));
}

/// `word` (an n-variable table, bits from 2^n up zero) copied across minterm
/// bits n..5, as a cut carries its function.
std::uint64_t replicated(unsigned n, std::uint64_t word) {
  for (unsigned b = n; b < 6; ++b) word |= word << (1u << b);
  return word;
}

TEST(TruthTableKernels, SupportReducedWordMatchesReferenceOnAllSmallFunctions) {
  for (unsigned n = 0; n <= 4; ++n) {
    for (std::uint64_t w = 0; w < (1ull << (1u << n)); ++w) {
      expect_word_reduction_matches(n, w);
      expect_word_reduction_matches(n, replicated(n, w));
    }
  }
}

TEST(TruthTableKernels, SupportReducedWordMatchesReferenceOnSeededWords) {
  Rng rng(0x5EEDC07Eu);
  for (unsigned n = 5; n <= 6; ++n) {
    for (unsigned iter = 0; iter < 2000; ++iter) {
      // A random function of a random subset of the variables, so every
      // support size and vacuous pattern occurs.
      const std::uint64_t used = rng.next() & ((1ull << n) - 1ull);
      const std::uint64_t g = rng.next();
      std::uint64_t w = 0;
      for (std::uint32_t m = 0; m < (1u << n); ++m) {
        std::uint32_t sub = 0;
        for (unsigned v = 0; v < n; ++v) {
          if ((used >> v) & 1u) sub = (sub << 1) | ((m >> (n - 1 - v)) & 1u);
        }
        w |= ((g >> sub) & 1u) << m;
      }
      expect_word_reduction_matches(n, w);
      expect_word_reduction_matches(n, replicated(n, w));
      // Bits from 2^n up are ignored, whatever they hold.
      if (n < 6) expect_word_reduction_matches(n, w | (rng.next() << 32));
    }
  }
}

// --- Storage boundary -------------------------------------------------------
//
// Tables of up to 8 variables keep their words inline, wider ones on the
// heap. Copies, moves and assignments in both directions across that
// boundary must carry the exact function, and the kernels must agree with
// the references on both sides of it.

TEST(TruthTableStorage, CopyMoveAssignAcrossInlineHeapBoundary) {
  Rng rng(0xB0DA7u);
  const TruthTable inline8 = random_table(rng, 8);
  const TruthTable heap9 = random_table(rng, 9);
  const std::string bits8 = inline8.to_bits();
  const std::string bits9 = heap9.to_bits();

  // Copy construction and equality, each side of the boundary.
  const TruthTable c8 = inline8;
  const TruthTable c9 = heap9;
  EXPECT_EQ(c8, inline8);
  EXPECT_EQ(c9, heap9);
  EXPECT_NE(c8, c9);
  EXPECT_EQ(c9.num_words(), 8u);
  EXPECT_EQ(c8.num_words(), 4u);

  // Copy assignment: inline target <- heap source, and back.
  TruthTable a = inline8;
  a = heap9;
  EXPECT_EQ(a.num_vars(), 9u);
  EXPECT_EQ(a.to_bits(), bits9);
  a = inline8;
  EXPECT_EQ(a.num_vars(), 8u);
  EXPECT_EQ(a.to_bits(), bits8);
  EXPECT_EQ(a, inline8);

  // Move construction and move assignment, both directions.
  TruthTable m9 = c9;
  TruthTable moved9(std::move(m9));
  EXPECT_EQ(moved9.to_bits(), bits9);
  TruthTable m8 = c8;
  TruthTable moved8(std::move(m8));
  EXPECT_EQ(moved8.to_bits(), bits8);
  TruthTable b = inline8;
  b = std::move(moved9);
  EXPECT_EQ(b, heap9);
  b = std::move(moved8);
  EXPECT_EQ(b, inline8);
  // A moved-from table is still a valid table and can be reassigned.
  moved9 = heap9;
  EXPECT_EQ(moved9, heap9);

  // Two tables that agree on every word but differ in arity are unequal.
  EXPECT_NE(TruthTable(8), TruthTable(9));
  EXPECT_NE(TruthTable(3), TruthTable(4));

  // Mutating a copy never touches its source on either side.
  TruthTable d8 = inline8;
  TruthTable d9 = heap9;
  d8.complement_inplace();
  d9.complement_inplace();
  EXPECT_EQ(inline8.to_bits(), bits8);
  EXPECT_EQ(heap9.to_bits(), bits9);
  EXPECT_EQ(d8, ref::complemented(inline8));
  EXPECT_EQ(d9, ref::complemented(heap9));
}

TEST(TruthTableStorage, KernelsMatchReferenceAtBoundary) {
  Rng rng(0xB0DA8u);
  for (unsigned n : {7u, 8u, 9u, 10u}) {
    for (unsigned iter = 0; iter < 4; ++iter) {
      const TruthTable f = random_table(rng, n);
      EXPECT_EQ(f.complemented(), ref::complemented(f)) << "n=" << n;
      const auto p32 = rng.permutation(n);
      const std::vector<unsigned> perm(p32.begin(), p32.end());
      EXPECT_EQ(f.permuted(perm), ref::permuted(f, perm)) << "n=" << n;
      for (unsigned v = 0; v < n; ++v) {
        EXPECT_EQ(f.flip_input(v), ref::flip_input(f, v));
        EXPECT_EQ(f.count_ones_positive(v), ref::count_ones_positive(f, v));
        // Cofactors of a 9-variable (heap) table are 8-variable (inline).
        for (bool value : {false, true}) {
          EXPECT_EQ(f.cofactor(v, value), ref::cofactor(f, v, value))
              << "n=" << n << " var=" << v;
        }
      }
      for (unsigned pos = 0; pos + 1 < n; ++pos) {
        EXPECT_EQ(f.swap_adjacent(pos), ref::swap_adjacent(f, pos));
      }
      std::vector<unsigned> kept_k, kept_r;
      EXPECT_EQ(f.support_reduced(&kept_k), ref::support_reduced(f, &kept_r));
      EXPECT_EQ(kept_k, kept_r);
    }
  }
}

}  // namespace
}  // namespace compsyn
