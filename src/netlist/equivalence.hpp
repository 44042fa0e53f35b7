// Combinational equivalence checking between two netlists with matching
// interfaces (same number of inputs and outputs, matched by position).
//
// Exhaustive up to `exhaustive_limit` inputs and random-simulation based
// beyond that. Both sweeps run on Netlist::simulate_words, which evaluates
// each gate over kSimBlockWords 64-pattern words (1,024 patterns) per visit;
// the verdict, message, counterexample (lowest word, then lowest output,
// then lowest pattern bit) and the random words drawn from `rng` are those
// of a word-at-a-time sweep. Random simulation can of course only refute
// equivalence, never prove it -- `EquivalenceResult::proven` distinguishes a
// real verdict (exhaustive sweep, or a concrete counterexample) from a mere
// failure to refute. For proofs beyond the exhaustive limit use the SAT
// backend (sat/cec.hpp), which fills in the same result struct.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace compsyn {

/// Largest input count checked exhaustively by default: 2^20 patterns
/// (16384 simulated 64-bit words per netlist).
inline constexpr unsigned kDefaultExhaustiveLimit = 20;

/// Hard ceiling on the exhaustive sweep regardless of the caller's limit:
/// beyond 40 inputs the 2^(n-6) block count no longer fits sensible time
/// budgets (and at 70 it would overflow the 64-bit block index).
inline constexpr unsigned kMaxExhaustiveInputs = 40;

struct EquivalenceResult {
  bool equivalent = false;
  // True when the verdict is definitive: an exhaustive sweep, a SAT proof,
  // or a concrete counterexample. A random-simulation pass that found no
  // difference reports equivalent=true with proven=false.
  bool proven = false;
  bool exhaustive = false;  // the proof came from an exhaustive sweep
  std::vector<bool> counterexample;  // PI assignment, valid when !equivalent
  std::string message;
};

/// The canonical 64-bit mask for exhaustive simulation: bit j of the word for
/// input i (i < 6) equals bit i of pattern index j.
std::uint64_t exhaustive_mask(unsigned input_index);

/// The random branch draws one word per input per random word, word by word
/// and input by input; on a mismatch `rng` is left just after the draws of
/// the differing word, so callers can keep drawing from it.
EquivalenceResult check_equivalent(const Netlist& a, const Netlist& b, Rng& rng,
                                   unsigned random_words = 256,
                                   unsigned exhaustive_limit = kDefaultExhaustiveLimit);

}  // namespace compsyn
