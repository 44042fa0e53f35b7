#include "netlist/equivalence.hpp"

#include <algorithm>
#include <sstream>

namespace compsyn {

std::uint64_t exhaustive_mask(unsigned input_index) {
  static constexpr std::uint64_t kMasks[6] = {
      0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
      0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull,
  };
  return kMasks[input_index];
}

EquivalenceResult check_equivalent(const Netlist& a, const Netlist& b, Rng& rng,
                                   unsigned random_words, unsigned exhaustive_limit) {
  EquivalenceResult res;
  if (a.inputs().size() != b.inputs().size() ||
      a.outputs().size() != b.outputs().size()) {
    res.message = "interface mismatch";
    return res;
  }
  const std::size_t n = a.inputs().size();
  const std::size_t n_out = a.outputs().size();
  const bool exhaustive = n <= exhaustive_limit && n <= kMaxExhaustiveInputs;
  res.exhaustive = exhaustive;
  res.proven = exhaustive;  // the sweep's verdict is definitive either way
  // Words to compare: 2^(n-6) exhaustive blocks (one partial block below 6
  // inputs, masked to its 2^n valid patterns), else the random words.
  const std::uint64_t total = !exhaustive ? random_words : n >= 6 ? 1ull << (n - 6) : 1;
  const std::uint64_t care =
      !exhaustive || n >= 6 ? ~0ull : (1ull << (1u << n)) - 1ull;

  // Node-major buffers of kSimBlockWords words per node: each group of
  // consecutive words is simulated in one sweep per netlist, then compared
  // word by word, output by output, in the order of a per-word loop.
  constexpr std::size_t kW = kSimBlockWords;
  std::vector<std::uint64_t> va(a.size() * kW, 0), vb(b.size() * kW, 0);
  for (std::uint64_t base = 0; base < total; base += kW) {
    const std::size_t count = static_cast<std::size_t>(std::min<std::uint64_t>(kW, total - base));
    const Rng group_start = rng;
    for (std::size_t w = 0; w < count; ++w) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t word =
            !exhaustive ? rng.next()
            : i < 6     ? exhaustive_mask(static_cast<unsigned>(i))
                        : ((((base + w) >> (i - 6)) & 1ull) ? ~0ull : 0ull);
        va[a.inputs()[i] * kW + w] = word;
        vb[b.inputs()[i] * kW + w] = word;
      }
    }
    a.simulate_words(va.data(), kW, count);
    b.simulate_words(vb.data(), kW, count);
    for (std::size_t w = 0; w < count; ++w) {
      for (std::size_t o = 0; o < n_out; ++o) {
        const std::uint64_t diff =
            (va[a.outputs()[o] * kW + w] ^ vb[b.outputs()[o] * kW + w]) & care;
        if (diff == 0) continue;
        const unsigned bit = static_cast<unsigned>(__builtin_ctzll(diff));
        res.counterexample.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
          res.counterexample[i] = ((va[a.inputs()[i] * kW + w] >> bit) & 1ull) != 0;
        }
        // Leave rng where a word-at-a-time loop would have stopped: after
        // the words up to and including this one.
        if (!exhaustive) {
          rng = group_start;
          for (std::size_t d = 0; d < (w + 1) * n; ++d) rng.next();
        }
        std::ostringstream ss;
        ss << "output " << o << " differs";
        res.message = ss.str();
        res.proven = true;  // a counterexample is a definitive verdict
        return res;
      }
    }
  }

  res.equivalent = true;
  if (exhaustive) {
    res.message = "proved equivalent by exhaustive simulation";
    return res;
  }
  std::ostringstream ss;
  ss << "no difference in " << random_words << " random words (not a proof)";
  res.message = ss.str();
  return res;
}

}  // namespace compsyn
