// Verdict types of SAT-based single stuck-at fault test generation /
// redundancy proving via the fault-miter encoding (tseitin.hpp), answered by
// SatSession::prove_fault (sat/session.hpp). This is the deciding engine
// behind PODEM: where the structural search aborts on its backtrack budget,
// the CDCL engine decides the fault -- Sat yields a test vector, Unsat is a
// genuine untestability (redundancy) proof, Unknown only means the conflict
// budget ran out.
#pragma once

#include <cstdint>
#include <vector>

namespace compsyn {

enum class SatFaultStatus {
  Testable,    // model extracted: `test` detects the fault
  Untestable,  // proven redundant
  Unknown,     // budget exhausted
};

struct SatFaultResult {
  SatFaultStatus status = SatFaultStatus::Unknown;
  std::vector<bool> test;  // PI assignment, valid when status == Testable
  std::uint64_t conflicts = 0;
};

/// Default conflict budget per fault; sized so redundancy removal stays
/// bounded even on pathological XOR cones.
inline constexpr std::uint64_t kDefaultFaultConflicts = 200'000;

}  // namespace compsyn
