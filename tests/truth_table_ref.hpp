// Scalar reference implementations of the TruthTable primitives.
//
// The production kernels in truth_table.cpp are bit-parallel (delta-swap
// masks, word copies, popcount spans). These are the straightforward per-bit
// loops they replaced, retained verbatim as an executable specification:
// tests/truth_table_test.cpp byte-compares every kernel against its
// reference over random tables at n = 1..16, so a mask or shift bug in the
// fast path cannot land silently. Header-only, no dependencies beyond the
// TruthTable accessors; used by that test only.
#pragma once

#include <cstdint>
#include <vector>

#include "core/truth_table.hpp"

namespace compsyn::ref {

/// Per-bit complement.
inline TruthTable complemented(const TruthTable& f) {
  TruthTable t(f.num_vars());
  for (std::uint32_t m = 0; m < f.num_minterms(); ++m) t.set(m, !f.get(m));
  return t;
}

/// Per-bit permutation: result position j holds original variable perm[j].
inline TruthTable permuted(const TruthTable& f, const std::vector<unsigned>& perm) {
  const unsigned n = f.num_vars();
  TruthTable t(n);
  for (std::uint32_t m = 0; m < f.num_minterms(); ++m) {
    std::uint32_t orig = 0;
    for (unsigned j = 0; j < n; ++j) {
      const std::uint32_t bit = (m >> (n - 1 - j)) & 1u;
      orig |= bit << (n - 1 - perm[j]);
    }
    t.set(m, f.get(orig));
  }
  return t;
}

/// Per-bit cofactor with `var` fixed to `value` (remaining variables keep
/// their relative order).
inline TruthTable cofactor(const TruthTable& f, unsigned var, bool value) {
  const unsigned n = f.num_vars();
  TruthTable t(n - 1);
  const unsigned shift = n - 1 - var;  // bit position of `var` in minterms
  for (std::uint32_t m = 0; m < t.num_minterms(); ++m) {
    const std::uint32_t low = m & ((1u << shift) - 1u);
    const std::uint32_t high = (m >> shift) << (shift + 1);
    const std::uint32_t full =
        high | (static_cast<std::uint32_t>(value) << shift) | low;
    t.set(m, f.get(full));
  }
  return t;
}

/// Per-bit adjacent-variable exchange of positions pos and pos+1.
inline TruthTable swap_adjacent(const TruthTable& f, unsigned pos) {
  const unsigned n = f.num_vars();
  const unsigned a = n - 1 - pos;  // minterm bit of position pos
  const unsigned b = a - 1;        // ... and of position pos + 1
  TruthTable t(n);
  for (std::uint32_t m = 0; m < f.num_minterms(); ++m) {
    const std::uint32_t ba = (m >> a) & 1u;
    const std::uint32_t bb = (m >> b) & 1u;
    const std::uint32_t swapped =
        (m & ~((1u << a) | (1u << b))) | (bb << a) | (ba << b);
    t.set(m, f.get(swapped));
  }
  return t;
}

/// Per-bit input-polarity flip of `var`.
inline TruthTable flip_input(const TruthTable& f, unsigned var) {
  const unsigned n = f.num_vars();
  const unsigned s = n - 1 - var;  // minterm bit of `var`
  TruthTable t(n);
  for (std::uint32_t m = 0; m < f.num_minterms(); ++m) {
    t.set(m, f.get(m ^ (1u << s)));
  }
  return t;
}

/// Per-bit count of the ON minterms with x_var = 1.
inline std::uint32_t count_ones_positive(const TruthTable& f, unsigned var) {
  const unsigned s = f.num_vars() - 1 - var;  // minterm bit of `var`
  std::uint32_t total = 0;
  for (std::uint32_t m = 0; m < f.num_minterms(); ++m) {
    if (((m >> s) & 1u) && f.get(m)) ++total;
  }
  return total;
}

/// Per-bit interval test via the enumerated ON-set.
inline bool interval_bounds(const TruthTable& f, std::uint32_t* lo,
                            std::uint32_t* hi) {
  const auto on = f.on_set();
  if (on.empty()) return false;
  if (on.back() - on.front() + 1 != on.size()) return false;
  *lo = on.front();
  *hi = on.back();
  return true;
}

/// Per-bit support reduction (gather over the support variables).
inline TruthTable support_reduced(const TruthTable& f,
                                  std::vector<unsigned>* kept = nullptr) {
  const unsigned n = f.num_vars();
  const std::vector<unsigned> s = f.support();
  TruthTable t(static_cast<unsigned>(s.size()));
  for (std::uint32_t m = 0; m < t.num_minterms(); ++m) {
    std::uint32_t full = 0;
    for (unsigned j = 0; j < s.size(); ++j) {
      const std::uint32_t bit = (m >> (s.size() - 1 - j)) & 1u;
      full |= bit << (n - 1 - s[j]);
    }
    t.set(m, f.get(full));
  }
  if (kept) *kept = s;
  return t;
}

/// Per-bit support reduction of an n <= 6 variable word (bits from 2^n up
/// ignored): a variable is kept when some minterm pair differing only in it
/// differs in value; the reduced word gathers the kept variables' minterms.
inline unsigned support_reduced_word(unsigned n, std::uint64_t word,
                                     std::uint64_t* reduced, unsigned* kept) {
  auto bit = [&](std::uint32_t m) { return (word >> m) & 1u; };
  unsigned r = 0;
  for (unsigned v = 0; v < n; ++v) {
    const std::uint32_t flip = 1u << (n - 1 - v);
    bool depends = false;
    for (std::uint32_t m = 0; m < (1u << n); ++m) {
      if (bit(m) != bit(m ^ flip)) depends = true;
    }
    if (depends) kept[r++] = v;
  }
  std::uint64_t out = 0;
  for (std::uint32_t m = 0; m < (1u << r); ++m) {
    std::uint32_t full = 0;
    for (unsigned j = 0; j < r; ++j) {
      const std::uint32_t b = (m >> (r - 1 - j)) & 1u;
      full |= b << (n - 1 - kept[j]);
    }
    out |= static_cast<std::uint64_t>(bit(full)) << m;
  }
  *reduced = out;
  return r;
}

}  // namespace compsyn::ref
