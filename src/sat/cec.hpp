// SAT-backed combinational equivalence checking: the proof-capable backend
// behind check_equivalent. Where the simulation checker in
// netlist/equivalence.hpp can only prove equivalence up to
// kDefaultExhaustiveLimit primary inputs (and merely fails to refute beyond
// it), the miter + CDCL route returns a real proof at any width -- Unsat
// means equivalent, Sat yields a counterexample input assignment, and the
// budget turns into an explicit Unknown instead of a silent non-proof.
//
// VerifyMode is the user-facing switch (--verify=sim|sat|both):
//   sim  -- the historical behaviour (exhaustive when small, random beyond);
//   sat  -- miter proof only;
//   both -- simulation first (fast refutation), then a SAT proof whenever
//           simulation could not prove.
#pragma once

#include <optional>
#include <string_view>

#include "netlist/equivalence.hpp"
#include "netlist/netlist.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace compsyn {

class SatSession;  // sat/session.hpp

enum class VerifyMode { Sim, Sat, Both };

const char* to_string(VerifyMode m);
/// Parses "sim" / "sat" / "both"; nullopt on anything else.
std::optional<VerifyMode> parse_verify_mode(std::string_view s);

/// Default conflict budget for one CEC proof; generous enough that every
/// in-repo miter closes, while still guaranteeing termination (Unknown).
inline constexpr std::uint64_t kDefaultCecConflicts = 4'000'000;

/// Mode dispatcher used by resynth_flow and the bench harnesses. The SAT
/// proofs run through `session` when given (encodings and learned clauses are
/// shared with its other queries), else through a session local to this
/// call. A SAT proof: on Unsat, equivalent and proven; on Sat, a
/// counterexample is read back; on budget exhaustion, equivalent=false and
/// proven=false with a message saying the verdict is open (NOT a refutation).
EquivalenceResult check_equivalent_mode(
    const Netlist& a, const Netlist& b, Rng& rng, VerifyMode mode,
    unsigned random_words = 256,
    unsigned exhaustive_limit = kDefaultExhaustiveLimit,
    const SolverBudget& budget = {kDefaultCecConflicts, 0},
    SatSession* session = nullptr);

}  // namespace compsyn
