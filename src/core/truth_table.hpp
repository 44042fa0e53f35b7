// Dense truth tables for the small single-output functions handled by the
// comparison-function machinery (cone functions of up to 16 variables;
// Procedures 2/3 use K = 5..7).
//
// Variable-order convention (matches the paper): variable 0 is x1, the MOST
// significant bit of a minterm's decimal value; variable n-1 is x_n, the
// least significant. So get(m) is f at the input combination whose decimal
// value is m when read x1 x2 ... xn.
//
// Storage: tables of up to 8 variables (4 words) live inline in the object,
// so the cone functions, cofactors and canonicalization candidates of the
// procedures never touch the heap; wider tables keep their words in a heap
// vector.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace compsyn {

class TruthTable {
 public:
  /// All-zero function of n variables (0 <= n <= 16).
  explicit TruthTable(unsigned n = 0);

  TruthTable(const TruthTable&) = default;
  TruthTable& operator=(const TruthTable&) = default;
  /// A moved-from heap table becomes the 0-variable constant zero, so it
  /// stays a valid (if empty) table.
  TruthTable(TruthTable&& o) noexcept;
  TruthTable& operator=(TruthTable&& o) noexcept;

  static TruthTable from_function(unsigned n,
                                  const std::function<bool(std::uint32_t)>& f);
  /// Parses a bit string, minterm 0 first ("0110" = f(00)=0, f(01)=1, ...).
  static TruthTable from_bits(const std::string& bits);
  /// Table of n <= 6 variables from one word in storage order (bit m is
  /// minterm m); bits from 2^n up are ignored.
  static TruthTable from_word(unsigned n, std::uint64_t word);

  unsigned num_vars() const { return n_; }
  std::uint32_t num_minterms() const { return 1u << n_; }

  bool get(std::uint32_t minterm) const;
  void set(std::uint32_t minterm, bool value);

  std::uint32_t count_ones() const;
  bool is_const_zero() const;
  bool is_const_one() const;

  TruthTable complemented() const;
  void complement_inplace();

  /// Exchanges the variables at positions pos and pos+1 (0 = MSB) in place:
  /// one adjacent transposition, the primitive the NPN canonicalizer sifts
  /// with. Word-level via the classic delta-swap masks, O(words).
  void swap_adjacent_inplace(unsigned pos);
  TruthTable swap_adjacent(unsigned pos) const;

  /// Complements the polarity of variable `var` in place:
  /// f'(.., x_var, ..) = f(.., ~x_var, ..). Word-level half-swap, O(words).
  void flip_input_inplace(unsigned var);
  TruthTable flip_input(unsigned var) const;

  /// If the ON-set is one contiguous decimal interval [lo, hi], stores the
  /// bounds and returns true; false for the constant-zero table and for any
  /// non-contiguous ON-set. Word-level (count/first/last bit), no per-bit
  /// loop: contiguity holds iff popcount equals the first..last bit span.
  bool interval_bounds(std::uint32_t* lo, std::uint32_t* hi) const;

  /// Word-wise total order used for canonical-form selection (an arbitrary
  /// but fixed order, not the numeric order of function values). Returns
  /// <0 / 0 / >0 like memcmp. Both tables must have the same arity.
  int compare_words(const TruthTable& o) const;

  std::size_t num_words() const {
    return n_ <= 6 ? 1 : std::size_t{1} << (n_ - 6);
  }
  std::uint64_t word(std::size_t i) const { return data()[i]; }

  /// ON-set size of the positive cofactor in `var` (how many ON minterms
  /// have x_var = 1): a popcount under the variable's minterm mask, no
  /// cofactor table.
  std::uint32_t count_ones_positive(unsigned var) const;

  /// Table of f with variables re-ordered: result position j holds original
  /// variable perm[j] (so perm maps new position -> old variable).
  TruthTable permuted(const std::vector<unsigned>& perm) const;

  /// Cofactor with variable `var` fixed to `value`; result has n-1 variables
  /// (the remaining ones keep their relative order).
  TruthTable cofactor(unsigned var, bool value) const;

  /// True if f does not depend on `var`.
  bool is_vacuous(unsigned var) const;

  /// Indices of variables f actually depends on, ascending.
  std::vector<unsigned> support() const;

  /// Table over only the support variables (relative order kept).
  TruthTable support_reduced(std::vector<unsigned>* kept = nullptr) const;

  /// ON-set minterm decimal values, ascending.
  std::vector<std::uint32_t> on_set() const;

  bool operator==(const TruthTable& o) const;

  /// Bit string, minterm 0 first (inverse of from_bits).
  std::string to_bits() const;

  /// FNV-style hash for memoisation keys.
  std::uint64_t hash() const;

 private:
  static constexpr unsigned kInlineVars = 8;

  std::uint64_t* data() { return n_ <= kInlineVars ? inline_.data() : heap_.data(); }
  const std::uint64_t* data() const {
    return n_ <= kInlineVars ? inline_.data() : heap_.data();
  }
  std::span<std::uint64_t> words() { return {data(), num_words()}; }
  std::span<const std::uint64_t> words() const { return {data(), num_words()}; }

  unsigned n_ = 0;
  // Invariant: words past num_words() are zero and heap_ is empty while
  // n_ <= kInlineVars; bits beyond num_minterms() are always zero.
  std::array<std::uint64_t, 4> inline_{};
  std::vector<std::uint64_t> heap_;
};

/// TruthTable::support_reduced for a function of n <= 6 variables given as
/// one word in storage order (bits from 2^n up are ignored, as in
/// from_word), with no table and no heap: writes the support variables,
/// ascending, to kept[0..r) and the function over them to *reduced as
/// from_word(r, *reduced) would hold it (bits from 2^r up zero). Returns r.
/// Word-level: one shift-compare per vacuity test and adjacent delta swaps
/// that move each vacuous variable above the rest.
unsigned support_reduced_word(unsigned n, std::uint64_t word,
                              std::uint64_t* reduced, unsigned* kept);

}  // namespace compsyn
