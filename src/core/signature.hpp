// Functional signatures: cheap 64-bit keys that stand in for full functional
// comparison, with an exact (or SAT) confirmation behind every match.
//
//  * table_signature hashes a complete truth table (plus query flags) into
//    the key of the comparison-identification memo (core/comparison.cpp):
//    equal signatures select a bucket, and an exact table compare inside the
//    bucket confirms the hit, so the cache is collision-safe and its
//    hit/miss behaviour is identical to a full-key cache.
//  * node_signatures runs ONE seeded 64-pattern parallel simulation of a
//    netlist and returns a per-node signature word. Two nodes with different
//    signatures compute provably different functions of the primary inputs;
//    equal signatures mean "possibly equal" and need a proof (the SAT
//    reachability oracle in core/sdc.hpp confirms candidate pairs with an
//    incremental equality query before reusing cached answers).
//
// Both are deterministic: fixed seeds, no time or address dependence.
#pragma once

#include <cstdint>
#include <vector>

#include "core/truth_table.hpp"
#include "netlist/netlist.hpp"

namespace compsyn {

/// Seed of the node-signature simulation patterns (any fixed constant works;
/// changing it changes which node pairs collide, never correctness).
inline constexpr std::uint64_t kNodeSignatureSeed = 0x51C7A7u;

/// Mixes `value` into `h` (splitmix64 finalisation): used to fold query
/// flags into a table signature so different option sets never share a
/// bucket by construction.
std::uint64_t signature_mix(std::uint64_t h, std::uint64_t value);

/// 64-bit signature of a complete truth table. Distinct tables map to
/// distinct signatures with overwhelming probability; callers must still
/// confirm matches exactly (operator== on the tables).
std::uint64_t table_signature(const TruthTable& f);

/// One 64-pattern random simulation of `nl` (seeded, deterministic):
/// sig[n] holds node n's output word, i.e. its value on each of the 64
/// patterns. Dead nodes get 0. Unequal signatures prove unequal functions;
/// equal signatures are only a candidate for equality.
std::vector<std::uint64_t> node_signatures(const Netlist& nl,
                                           std::uint64_t seed = kNodeSignatureSeed);

// --- NPN canonicalization ---------------------------------------------------
//
// Two functions are NPN-equivalent when one becomes the other under some
// input permutation, input polarity flips, and/or an output polarity flip.
// npn_canonicalize picks one fixed representative per orbit. For every
// (output polarity, input mask) element of the group it gives each variable
// a key -- the ON-set size of its positive cofactor, a word-level popcount
// -- and sorts the variables by key. Only arrangements that keep the keys
// sorted are candidates: the variables inside each run of equal keys are
// arranged every way (a plain-changes walk of adjacent swaps, one O(words)
// kernel step apart), except that a run of pairwise-symmetric variables
// contributes one arrangement, since all of its arrangements are the same
// table. The canonical table is the minimum under TruthTable::compare_words
// over that reduced candidate set, not over the whole orbit.
//
// It is still exact. A key travels with its variable under any
// permutation, so every member of a permutation class yields the same set
// of key-sorted tables, and symmetry of a run is a property of the
// variables, not of their positions; the group elements are walked in a
// fixed order, so every orbit member ends with the same candidate set and
// the same minimum. The cost per group element is n popcounts, one sort by
// adjacent swaps and the arrangements of the tied, non-symmetric runs: one
// candidate when all keys differ or every tie is symmetric (random tables,
// totally symmetric functions), up to n! when all n keys tie without
// symmetry.
//
// The group is selectable because different consumers need different orbits:
// the comparison-identification memo (core/comparison.cpp) shares results
// across kPermOutputReflect -- the comparison-function class is provably NOT
// closed under single input negations (see DESIGN.md sect. 14 for the
// 3-variable counterexample), so collapsing full NPN orbits there would
// corrupt results; but negating ALL inputs at once reflects the value order
// (v -> 2^n-1-v), which maps intervals to intervals, so membership IS
// closed under the reflection. kFull is exact canonical NPN for consumers
// whose property is fully orbit-invariant (and for the property tests).

enum class NpnGroup {
  kPermOutput,         // input permutations x output polarity
  kPermOutputReflect,  // ... plus negating ALL inputs at once (value reversal)
  kFull,               // ... plus arbitrary input polarities (full NPN)
};

/// A transform from a function f to a member of its orbit. Application
/// order: complement the output (if output_neg), flip the polarity of every
/// input whose bit is set in input_neg (bit v = original variable v), then
/// permute (result position j holds original variable perm[j]).
struct NpnTransform {
  std::vector<unsigned> perm;
  std::uint32_t input_neg = 0;
  bool output_neg = false;

  TruthTable apply(const TruthTable& f) const;
};

struct NpnCanonical {
  TruthTable table;        // the orbit's canonical representative
  NpnTransform transform;  // transform.apply(f) == table, exactly
};

/// Canonical representative of f's orbit under `group`, plus a transform
/// that maps f onto it. Deterministic; same table for every orbit member.
/// Walks 2, 4 or 2^(n+1) group elements (kPermOutput, kPermOutputReflect,
/// kFull); each costs one key sort plus the product of run! over its tied,
/// non-symmetric key runs -- intended for the small cone arities (n <= 7)
/// the procedures use. A tied run may hold at most 8 variables.
NpnCanonical npn_canonicalize(const TruthTable& f,
                              NpnGroup group = NpnGroup::kFull);

/// The adjacent-transposition schedule that visits all n! permutations
/// (plain changes): applying swap (p, p+1) for each p in the returned list
/// steps through every permutation exactly once. Exposed for tests and for
/// callers that sift tables themselves. Materialised once per n, n <= 8.
const std::vector<unsigned>& plain_changes_schedule(unsigned n);

}  // namespace compsyn
