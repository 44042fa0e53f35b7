// PODEM test generation for single stuck-at faults, with complete search:
// a fault reported Untestable is proven redundant (no backtrack limit by
// default). This is the ATPG engine behind the redundancy-removal substrate
// ([15] in the paper) and the testable/untestable accounting.
//
// Five-valued reasoning is carried as a (good, faulty) pair of three-valued
// signals: D = (1,0), ~D = (0,1). Decisions are made on primary inputs only,
// objectives chosen by fault activation first and D-frontier propagation
// after, with an X-path check pruning dead branches. Implication is
// event-driven: only nodes downstream of a changed input are re-evaluated
// (DESIGN.md §17), which yields the same values as a full re-simulation.
//
// Search-order policies (AtpgStrategy) plug into two choice points:
// which D-frontier gate to advance and which fanin to follow during
// backtrace. Every policy ranks the same admissible candidate set the
// legacy code iterates, so the branch-and-backtrack search stays complete:
// with an unlimited backtrack budget the Detected/Untestable verdict is
// invariant across policies -- only decision order, backtrack counts, and
// which faults exceed a finite budget may change (proven by
// tests/atpg_differential_test.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "faults/fault.hpp"
#include "netlist/netlist.hpp"

namespace compsyn {

struct AtpgGuidance;  // scoap.hpp

enum class AtpgStatus {
  Detected,    // test found
  Untestable,  // proven redundant (complete search exhausted)
  Aborted,     // backtrack limit hit; nothing proven
};

/// D-frontier gate selection order.
enum class FrontierPolicy : std::uint8_t {
  Legacy,  // first frontier gate in topological order (seed behavior)
  Scoap,   // most observable gate (min SCOAP CO)
};

/// Backtrace fanin selection order.
enum class BacktracePolicy : std::uint8_t {
  Legacy,  // first X-valued fanin (seed behavior)
  Scoap,   // classic SCOAP rule: easiest input when one controlling value
           // suffices, hardest when every input must be non-controlling
};

struct AtpgStrategy {
  BacktracePolicy backtrace = BacktracePolicy::Legacy;
  FrontierPolicy frontier = FrontierPolicy::Legacy;

  bool is_legacy() const {
    return backtrace == BacktracePolicy::Legacy &&
           frontier == FrontierPolicy::Legacy;
  }
  bool operator==(const AtpgStrategy&) const = default;
};

struct AtpgOptions {
  // Backtrack budget; 0 = unlimited. Untestable is ALWAYS a completed-search
  // proof -- hitting the limit yields Aborted, never a false proof. The
  // default bounds worst-case faults (deep XOR cones are PODEM's pathological
  // case) while leaving typical proofs untouched; set 0 for guaranteed
  // complete redundancy identification on small circuits.
  std::uint64_t backtrack_limit = 5000;

  // Search-order policy. Non-legacy policies need `guidance` (built once per
  // netlist via AtpgGuidance::build); with guidance == nullptr they silently
  // degrade to the legacy order so a caller can never read stale metrics.
  AtpgStrategy strategy{};
  const AtpgGuidance* guidance = nullptr;

  // When true, a Detected result also carries the raw PODEM cube in
  // AtpgResult::cube (kCubeX for don't-care inputs). The cube detects the
  // fault under EVERY completion of its X bits: PODEM's 3-valued simulation
  // proved a definite good/faulty difference at an output with those inputs
  // still unassigned, and concrete simulation only refines X values.
  bool record_cube = false;
};

inline constexpr std::uint8_t kCube0 = 0, kCube1 = 1, kCubeX = 2;

struct AtpgResult {
  AtpgStatus status = AtpgStatus::Aborted;
  // PI assignment detecting the fault (unassigned inputs were don't-care and
  // are filled with 0), valid when status == Detected.
  std::vector<bool> test;
  // Per-PI cube (kCube0/kCube1/kCubeX); filled when status == Detected and
  // AtpgOptions::record_cube was set, empty otherwise.
  std::vector<std::uint8_t> cube;
  std::uint64_t backtracks = 0;
  std::uint64_t decisions = 0;  // PI assignments tried (excluding flips)
};

AtpgResult run_podem(const Netlist& nl, const StuckFault& fault,
                     const AtpgOptions& opt = {});

/// Convenience fault-universe sweep.
struct AtpgSummary {
  std::size_t total = 0;
  std::size_t detected = 0;
  std::size_t untestable = 0;
  std::size_t aborted = 0;
};
AtpgSummary run_podem_all(const Netlist& nl, const std::vector<StuckFault>& faults,
                          const AtpgOptions& opt = {});

}  // namespace compsyn
