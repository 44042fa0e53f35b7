// Comparison functions (Section 3 of the paper).
//
// A function f(y1..yn) is a comparison function if there is a permutation
// (x1..xn) of its inputs and bounds L <= U such that, reading x1 as the most
// significant bit, the ON-set of f is exactly the decimal interval [L, U].
//
// Identification offers two engines:
//  * exact: a recursive interval test over variable orders. Under an order
//    with MSB v, ON(f) is an interval iff one cofactor is empty and the other
//    an interval, or ON(f|v=0) is a suffix interval and ON(f|v=1) a prefix
//    interval under a COMMON order of the remaining variables; the
//    suffix/prefix predicates recurse the same way. This is complete and fast
//    for the cone sizes the procedures use (K <= 8).
//  * sampled: the paper's heuristic — try up to `sample_tries` permutations
//    and test contiguity of the ON-set values directly (Section 3.4 and the
//    experimental setup in Section 5 use up to 200 permutations).
//
// Both engines also try the complement (Section 5: if the OFF-set minterms
// are consecutive, the unit is built for ~f and its output inverted).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/truth_table.hpp"
#include "util/rng.hpp"

namespace compsyn {

struct ComparisonSpec {
  unsigned n = 0;                // number of function inputs
  std::vector<unsigned> perm;    // position j (0 = MSB) holds variable perm[j]
  std::uint32_t lower = 0;       // L
  std::uint32_t upper = 0;       // U
  bool complemented = false;     // true: the interval describes ~f

  /// The function the spec denotes (interval membership, complemented if
  /// requested) as a truth table over the original variable order.
  TruthTable to_truth_table() const;
};

struct IdentifyOptions {
  bool exact = true;            // exact recursive search vs permutation sampling
  unsigned sample_tries = 200;  // permutations to try when !exact
  bool try_complement = true;
  unsigned max_results = 16;    // specs to collect per polarity
  Rng* rng = nullptr;           // required when !exact
  // Second memo tier for the exact engine: canonicalize the query under
  // input permutations x output polarity x whole-input reflection
  // (core/signature.hpp, kPermOutputReflect) and share one identification
  // result per orbit. Behaviour-preserving -- reuse only happens where the
  // returned spec vector is provably byte-identical to a fresh search (see
  // DESIGN.md sect. 14) -- so the toggle exists for baselines and
  // differential tests, not correctness.
  bool npn_memo = true;
};

/// All discovered specs (up to 2*max_results), non-complemented first.
/// Constant functions yield the trivial full/empty interval specs.
/// Empty result means f is not a comparison function (for the exact engine,
/// this is a proof; for the sampled engine, only "not found").
///
/// The returned vector is owned by the calling thread's memo (or its reply
/// buffer) and stays valid only until that thread's next identify_comparison
/// call, which may overwrite it or free it (a memo flush). A caller that
/// needs two answers at once copies the first: `const auto specs = ...`.
const std::vector<ComparisonSpec>& identify_comparison(const TruthTable& f,
                                                       const IdentifyOptions& opt = {});

struct UnitOptions;  // core/comparison_unit.hpp
struct UnitCost;

/// identify_comparison's answer together with every spec's unit_cost under
/// `unit`, parallel to the specs: what a resynthesis pass scores a cone
/// with. For the exact engine both live in the query's tier-1 memo entry,
/// which computes the costs once per UnitOptions setting; other answers
/// (constants, the sampled engine) are costed into per-thread buffers. Both
/// stay valid until the thread's next identification call.
struct ScoredSpecs {
  const std::vector<ComparisonSpec>& specs;
  const std::vector<UnitCost>& costs;
};
ScoredSpecs identify_scored(const TruthTable& f, const IdentifyOptions& opt,
                            const UnitOptions& unit);
/// The same for a function of n <= 6 variables given as one word in
/// storage order (bits from 2^n up zero, as TruthTable::word(0) holds it):
/// a tier-1 hit builds no TruthTable.
ScoredSpecs identify_scored(unsigned n, std::uint64_t word,
                            const IdentifyOptions& opt, const UnitOptions& unit);

/// Convenience: true if the exact engine finds a spec.
bool is_comparison_function(const TruthTable& f);

/// Entries the exact engine's per-table memo tier holds: the miss that
/// would add one more empties it first.
inline constexpr std::size_t kExactMemoCap = std::size_t{1} << 18;

/// Drops the calling thread's exact-identification memo (the per-table tier
/// with its unit costs, the NPN-orbit tier, and the hit/miss tallies). The
/// serve daemon calls this between jobs so every job's identify.memo.* /
/// identify.npn.* counter stream matches a fresh process run; results never
/// depend on memo state (every hit is exact-confirmed), only the hit/miss
/// split does.
void clear_exact_identification_memo();

/// Process-global tallies of the NPN-orbit memo tier, accumulated with
/// relaxed atomics across all threads since process start (never reset, not
/// part of any report). exact_searches counts full exact-engine searches
/// regardless of the npn_memo toggle, so an off-vs-on delta of two
/// snapshots measures exactly the searches the orbit tier removed.
/// Deterministic while one thread identifies (every one-shot binary).
struct NpnIdentifyStats {
  std::uint64_t canonicalizations = 0;  // orbit keys computed (tier-1 misses)
  std::uint64_t orbit_hits = 0;         // confirmed canonical-table matches
  std::uint64_t negative_reuses = 0;    // "not a comparison orbit" reused
  std::uint64_t transform_reuses = 0;   // positive specs mapped through the
                                        // stored polarity transform
  std::uint64_t positive_fallbacks = 0; // orbit hit, but only a fresh search
                                        // is byte-exact (perm-related member)
  std::uint64_t confirm_rejects = 0;    // signature or derivation confirm
                                        // failures (collisions; counted, safe)
  std::uint64_t exact_searches = 0;     // full searches actually executed
};
NpnIdentifyStats npn_identify_stats();

/// Checks that a (perm, L, U) triple really describes f (used by tests and
/// by the sampled engine).
bool spec_matches(const ComparisonSpec& spec, const TruthTable& f);

}  // namespace compsyn
