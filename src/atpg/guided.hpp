// Guided ATPG driver: multi-variant random test-pattern generation (TPG)
// front end, SCOAP-based fault ordering, and strategy-driven PODEM on the
// random-resistant residue, producing X-aware patterns ready for static
// compaction (compact.hpp).
//
// The pipeline reproduces the Test-Pattern-Generation-System shape:
//   1. seeded random TPG blocks with fault dropping until coverage stalls,
//   2. residue faults ordered by a strategy (index | hard-first | cone),
//   3. guided PODEM per residue fault; each detected cube is X-filled and
//      fault-simulated so it drops other faults before they are targeted.
// Every stage is a pure function of its options (seeded RNG, deterministic
// X-fill, serial fault simulator), so results are byte-identical across
// runs. Strategies change pattern COUNTS and
// backtrack counts only; Detected/Untestable accounting is
// strategy-invariant at an unlimited backtrack budget (podem.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "atpg/compact.hpp"
#include "atpg/podem.hpp"
#include "atpg/scoap.hpp"
#include "faults/fault.hpp"
#include "faults/fault_sim.hpp"
#include "netlist/netlist.hpp"

namespace compsyn {

/// Order in which residue faults are targeted by PODEM.
enum class FaultOrderPolicy : std::uint8_t {
  Index,      // fault-universe enumeration order
  HardFirst,  // descending SCOAP detection hardness (scoap_fault_hardness)
  Cone,       // descending fanout-cone size of the fault site
};

/// Random-TPG pattern distribution. All variants are seeded and byte-
/// reproducible; they differ only in how many patterns reach a coverage
/// level, never in how coverage is accounted.
enum class RtpgVariant : std::uint8_t {
  Uniform,   // i.i.d. uniform bits
  Weighted,  // blocks cycle 1-density ~ 1/4, 1/2, 3/4 (AND / raw / OR words)
  Toggle,    // consecutive patterns are complementary pairs
};

struct RandomTpgOptions {
  RtpgVariant variant = RtpgVariant::Uniform;
  std::uint64_t seed = 0x7007ull;
  std::uint64_t max_patterns = 4096;
  // Stop early after this many consecutive 64-pattern blocks without a new
  // detection (0 = never stall out).
  unsigned stale_blocks = 4;
};

struct RandomTpgStats {
  std::uint64_t patterns_applied = 0;  // simulated (before tail trimming)
  std::uint64_t patterns_kept = 0;     // appended to the pattern list
  std::uint64_t blocks = 0;
  std::size_t detected = 0;  // newly detected by this phase
};

/// Runs random TPG against `sim` (dropping already-detected faults),
/// appending the kept patterns (fully specified) to `patterns`. Trailing
/// patterns past the last new detection are trimmed -- they cannot change
/// the detected set.
RandomTpgStats random_tpg(const Netlist& nl, FaultSimulator& sim,
                          const RandomTpgOptions& opt,
                          std::vector<TestPattern>& patterns);

/// Residue-fault target order under `policy`; indices into `faults`.
/// Deterministic: ties break toward the lower fault index.
std::vector<std::size_t> order_faults(const Netlist& nl,
                                      const AtpgGuidance& guidance,
                                      const std::vector<StuckFault>& faults,
                                      FaultOrderPolicy policy);

struct GuidedAtpgOptions {
  AtpgStrategy strategy{};
  FaultOrderPolicy order = FaultOrderPolicy::Index;
  // PODEM backtrack budget per fault; 0 = unlimited (verdict-complete).
  std::uint64_t backtrack_limit = 0;
  bool rtpg_enabled = true;
  RandomTpgOptions rtpg;
  bool collapse = true;  // fault-universe collapsing (fault.hpp)
  std::uint64_t fill_seed = kDefaultFillSeed;  // X-fill for fault dropping
};

struct GuidedAtpgResult {
  std::vector<StuckFault> faults;
  std::vector<AtpgStatus> status;  // per fault
  // RTPG patterns (fully specified) followed by PODEM cubes (X-bearing),
  // in generation order.
  std::vector<TestPattern> patterns;
  std::size_t detected = 0;
  std::size_t untestable = 0;
  std::size_t aborted = 0;
  RandomTpgStats rtpg;
  std::uint64_t podem_calls = 0;
  std::uint64_t podem_detected = 0;
  std::uint64_t backtracks = 0;
  std::uint64_t decisions = 0;
};

/// The full pipeline over the collapsed fault universe of `nl`.
GuidedAtpgResult guided_atpg(const Netlist& nl,
                             const GuidedAtpgOptions& opt = {});

// -- CLI flag parsing (shared by resynth_flow / testability_report /
//    table_atpg); nullopt on an unknown name ---------------------------------
std::optional<BacktracePolicy> parse_backtrace_policy(std::string_view s);
std::optional<FrontierPolicy> parse_frontier_policy(std::string_view s);
std::optional<FaultOrderPolicy> parse_fault_order(std::string_view s);
std::optional<RtpgVariant> parse_rtpg_variant(std::string_view s);
const char* to_string(BacktracePolicy p);
const char* to_string(FrontierPolicy p);
const char* to_string(FaultOrderPolicy p);
const char* to_string(RtpgVariant v);

}  // namespace compsyn
