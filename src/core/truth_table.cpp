#include "core/truth_table.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <numeric>
#include <stdexcept>

namespace compsyn {

namespace {

// kVarMask[s]: the bits of a 64-bit word whose bit index has bit s SET --
// the half of every 2^(s+1)-aligned block where in-word minterm bit s is 1.
// These are the classic masks behind delta-swap variable exchanges.
constexpr std::uint64_t kVarMask[6] = {
    0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
    0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull,
};

/// Delta-swap of in-word minterm bits b and b+1 (b <= 4): exchanges the
/// (bit_b=1, bit_{b+1}=0) sub-blocks with their (0,1) partners 2^b above.
inline std::uint64_t word_swap_adjacent_bits(std::uint64_t w, unsigned b) {
  const std::uint64_t mask = kVarMask[b] & ~kVarMask[b + 1];
  const unsigned d = 1u << b;
  const std::uint64_t t = (w ^ (w >> d)) & mask;
  return w ^ t ^ (t << d);
}

}  // namespace

TruthTable::TruthTable(unsigned n) : n_(n) {
  if (n > 16) throw std::invalid_argument("TruthTable supports at most 16 variables");
  if (n > kInlineVars) heap_.assign(num_words(), 0);
}

TruthTable::TruthTable(TruthTable&& o) noexcept
    : n_(o.n_), inline_(o.inline_), heap_(std::move(o.heap_)) {
  if (n_ > kInlineVars) o.n_ = 0;
}

TruthTable& TruthTable::operator=(TruthTable&& o) noexcept {
  if (this == &o) return *this;
  n_ = o.n_;
  inline_ = o.inline_;
  heap_ = std::move(o.heap_);
  if (n_ > kInlineVars) o.n_ = 0;
  return *this;
}

bool TruthTable::operator==(const TruthTable& o) const {
  if (n_ != o.n_) return false;
  const std::uint64_t* a = data();
  const std::uint64_t* b = o.data();
  return std::equal(a, a + num_words(), b);
}

TruthTable TruthTable::from_function(unsigned n,
                                     const std::function<bool(std::uint32_t)>& f) {
  TruthTable t(n);
  for (std::uint32_t m = 0; m < t.num_minterms(); ++m) t.set(m, f(m));
  return t;
}

TruthTable TruthTable::from_bits(const std::string& bits) {
  unsigned n = 0;
  while ((std::size_t{1} << n) < bits.size()) ++n;
  if ((std::size_t{1} << n) != bits.size()) {
    throw std::invalid_argument("bit string length must be a power of two");
  }
  TruthTable t(n);
  for (std::uint32_t m = 0; m < t.num_minterms(); ++m) {
    const char c = bits[m];
    if (c != '0' && c != '1') throw std::invalid_argument("bit string must be 0/1");
    t.set(m, c == '1');
  }
  return t;
}

TruthTable TruthTable::from_word(unsigned n, std::uint64_t word) {
  assert(n <= 6);
  TruthTable t(n);
  t.inline_[0] = n == 6 ? word : word & ((1ull << (1u << n)) - 1ull);
  return t;
}

bool TruthTable::get(std::uint32_t m) const {
  assert(m < num_minterms());
  return (data()[m >> 6] >> (m & 63)) & 1ull;
}

void TruthTable::set(std::uint32_t m, bool value) {
  assert(m < num_minterms());
  const std::uint64_t bit = 1ull << (m & 63);
  if (value) data()[m >> 6] |= bit;
  else data()[m >> 6] &= ~bit;
}

std::uint32_t TruthTable::count_ones() const {
  // Invariant: bits beyond num_minterms() are always zero.
  std::uint32_t total = 0;
  for (std::uint64_t w : words()) total += static_cast<std::uint32_t>(std::popcount(w));
  return total;
}

std::uint32_t TruthTable::count_ones_positive(unsigned var) const {
  assert(var < n_);
  const unsigned s = n_ - 1 - var;  // minterm bit of `var`
  const std::span<const std::uint64_t> ws = words();
  std::uint32_t total = 0;
  if (s < 6) {
    for (std::uint64_t w : ws) {
      total += static_cast<std::uint32_t>(std::popcount(w & kVarMask[s]));
    }
  } else {
    const std::size_t ds = std::size_t{1} << (s - 6);
    for (std::size_t i = ds; i < ws.size(); i = (i + 1) | ds) {
      total += static_cast<std::uint32_t>(std::popcount(ws[i]));
    }
  }
  return total;
}

bool TruthTable::is_const_zero() const { return count_ones() == 0; }
bool TruthTable::is_const_one() const { return count_ones() == num_minterms(); }

TruthTable TruthTable::complemented() const {
  TruthTable t = *this;
  t.complement_inplace();
  return t;
}

void TruthTable::complement_inplace() {
  const std::uint64_t last_mask =
      n_ >= 6 ? ~0ull : ((1ull << num_minterms()) - 1ull);
  const std::span<std::uint64_t> ws = words();
  for (auto& w : ws) w = ~w;
  ws.back() &= last_mask;
}

void TruthTable::swap_adjacent_inplace(unsigned pos) {
  assert(pos + 1 < n_);
  const unsigned a = n_ - 1 - pos;  // minterm bit of the variable at `pos`
  const unsigned b = a - 1;         // ... and at `pos + 1`
  const std::span<std::uint64_t> ws = words();
  if (a < 6) {
    // Both bits live inside each word: one delta swap per word.
    for (auto& w : ws) w = word_swap_adjacent_bits(w, b);
  } else if (b >= 6) {
    // Both bits select the word index: swap word pairs.
    const std::size_t db = std::size_t{1} << (b - 6);
    const std::size_t da = std::size_t{1} << (a - 6);
    for (std::size_t w = 0; w < ws.size(); ++w) {
      if ((w & db) && !(w & da)) std::swap(ws[w], ws[w + db]);
    }
  } else {
    // a == 6, b == 5: the straddle case -- exchange the high half of each
    // even word with the low half of its odd neighbour.
    for (std::size_t w = 0; w + 1 < ws.size(); w += 2) {
      const std::uint64_t hi0 = ws[w] >> 32;
      const std::uint64_t lo1 = ws[w + 1] & 0xffffffffull;
      ws[w] = (ws[w] & 0xffffffffull) | (lo1 << 32);
      ws[w + 1] = (ws[w + 1] & ~0xffffffffull) | hi0;
    }
  }
}

TruthTable TruthTable::swap_adjacent(unsigned pos) const {
  TruthTable t = *this;
  t.swap_adjacent_inplace(pos);
  return t;
}

void TruthTable::flip_input_inplace(unsigned var) {
  assert(var < n_);
  const unsigned s = n_ - 1 - var;  // minterm bit of `var`
  const std::span<std::uint64_t> ws = words();
  if (s < 6) {
    const std::uint64_t m = kVarMask[s];
    const unsigned d = 1u << s;
    for (auto& w : ws) w = ((w & m) >> d) | ((w & ~m) << d);
  } else {
    const std::size_t ds = std::size_t{1} << (s - 6);
    for (std::size_t w = 0; w < ws.size(); ++w) {
      if (!(w & ds)) std::swap(ws[w], ws[w | ds]);
    }
  }
}

TruthTable TruthTable::flip_input(unsigned var) const {
  TruthTable t = *this;
  t.flip_input_inplace(var);
  return t;
}

TruthTable TruthTable::permuted(const std::vector<unsigned>& perm) const {
  assert(perm.size() == n_);
  // Selection sort by adjacent transpositions: bring perm[j]'s variable to
  // position j with swap kernels. O(n^2) swaps of O(words) each -- far below
  // the 2^n per-bit gathers this replaces.
  TruthTable t = *this;
  std::array<unsigned, 16> cur;  // cur[j] = original variable at position j
  std::iota(cur.begin(), cur.begin() + n_, 0u);
  for (unsigned j = 0; j < n_; ++j) {
    unsigned k = j;
    while (k < n_ && cur[k] != perm[j]) ++k;
    assert(k < n_ && "perm must be a permutation of 0..n-1");
    for (; k > j; --k) {
      t.swap_adjacent_inplace(k - 1);
      std::swap(cur[k - 1], cur[k]);
    }
  }
  return t;
}

TruthTable TruthTable::cofactor(unsigned var, bool value) const {
  assert(var < n_);
  TruthTable t(n_ - 1);
  if (n_ <= 6) {
    // Single word: bubble `var` to the MSB position with in-word delta
    // swaps, then the cofactor is one half of the word.
    std::uint64_t w = data()[0];
    for (unsigned p = var; p > 0; --p) {
      const unsigned a = n_ - 1 - (p - 1);  // a <= 5 here
      w = word_swap_adjacent_bits(w, a - 1);
    }
    const std::uint32_t half = 1u << (n_ - 1);
    if (value) w >>= half;
    if (half < 64) w &= (1ull << half) - 1ull;
    t.data()[0] = w;
  } else {
    TruthTable tmp = *this;
    for (unsigned p = var; p > 0; --p) tmp.swap_adjacent_inplace(p - 1);
    // `var` is now the minterm MSB: the cofactor is one half of the words.
    const std::size_t half = t.num_words();
    const std::uint64_t* src = tmp.data() + (value ? half : 0);
    std::copy(src, src + half, t.data());
  }
  return t;
}

bool TruthTable::is_vacuous(unsigned var) const {
  // f is independent of `var` iff flipping the variable's polarity leaves
  // the table unchanged (the two cofactor halves are equal).
  TruthTable t = *this;
  t.flip_input_inplace(var);
  return t == *this;
}

std::vector<unsigned> TruthTable::support() const {
  std::vector<unsigned> s;
  for (unsigned v = 0; v < n_; ++v) {
    if (!is_vacuous(v)) s.push_back(v);
  }
  return s;
}

TruthTable TruthTable::support_reduced(std::vector<unsigned>* kept) const {
  const std::vector<unsigned> s = support();
  // Cofactor out the vacuous variables highest-index first, so each
  // remaining variable's position equals its original index when removed.
  TruthTable t = *this;
  unsigned si = static_cast<unsigned>(s.size());
  for (unsigned v = n_; v-- > 0;) {
    if (si > 0 && s[si - 1] == v) {
      --si;
      continue;
    }
    t = t.cofactor(v, false);
  }
  if (kept) *kept = s;
  return t;
}

unsigned support_reduced_word(unsigned n, std::uint64_t w,
                              std::uint64_t* reduced, unsigned* kept) {
  assert(n <= 6);
  // Replicate the table across minterm bits n..5, so w is a 6-variable
  // function in which those variables are vacuous.
  if (n < 6) w &= (1ull << (1u << n)) - 1ull;
  for (unsigned b = n; b < 6; ++b) w |= w << (1u << b);
  // Variable v sits at minterm bit n-1-v; visiting bits from the top keeps
  // every bit below the current one in place, and `kept` ascending.
  unsigned r = 0;
  for (unsigned s = n; s-- > 0;) {
    const unsigned d = 1u << s;
    if ((((w >> d) ^ w) & ~kVarMask[s]) != 0) {
      kept[r++] = n - 1 - s;
      continue;
    }
    // Vacuous: bubble it to bit 5, shifting the bits above it down by one.
    for (unsigned b = s; b < 5; ++b) w = word_swap_adjacent_bits(w, b);
  }
  *reduced = r == 6 ? w : w & ((1ull << (1u << r)) - 1ull);
  return r;
}

bool TruthTable::interval_bounds(std::uint32_t* lo, std::uint32_t* hi) const {
  const std::span<const std::uint64_t> ws = words();
  std::size_t first = ws.size();
  std::size_t last = 0;
  std::uint32_t total = 0;
  for (std::size_t i = 0; i < ws.size(); ++i) {
    if (!ws[i]) continue;
    if (first == ws.size()) first = i;
    last = i;
    total += static_cast<std::uint32_t>(std::popcount(ws[i]));
  }
  if (total == 0) return false;
  const std::uint32_t l =
      static_cast<std::uint32_t>(64 * first) +
      static_cast<std::uint32_t>(std::countr_zero(ws[first]));
  const std::uint32_t h =
      static_cast<std::uint32_t>(64 * last + 63) -
      static_cast<std::uint32_t>(std::countl_zero(ws[last]));
  // ON(f) is inside [l, h] by construction; it fills the interval exactly
  // when the popcount matches the span.
  if (h - l + 1 != total) return false;
  *lo = l;
  *hi = h;
  return true;
}

int TruthTable::compare_words(const TruthTable& o) const {
  assert(n_ == o.n_);
  const std::uint64_t* a = data();
  const std::uint64_t* b = o.data();
  for (std::size_t i = 0; i < num_words(); ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

std::vector<std::uint32_t> TruthTable::on_set() const {
  std::vector<std::uint32_t> on;
  for (std::uint32_t m = 0; m < num_minterms(); ++m) {
    if (get(m)) on.push_back(m);
  }
  return on;
}

std::string TruthTable::to_bits() const {
  std::string s(num_minterms(), '0');
  for (std::uint32_t m = 0; m < num_minterms(); ++m) {
    if (get(m)) s[m] = '1';
  }
  return s;
}

std::uint64_t TruthTable::hash() const {
  std::uint64_t h = 0xcbf29ce484222325ull ^ n_;
  for (std::uint64_t w : words()) {
    h ^= w;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace compsyn
