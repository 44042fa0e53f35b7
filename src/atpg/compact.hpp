// X-aware test patterns, deterministic X-fill, and static pattern
// compaction by reverse-order fault-simulation replay.
//
// A TestPattern keeps don't-care inputs as X (kBitX). X-fill replaces every
// X with a bit that is a pure function of (seed, pattern index, input
// index), so filled pattern sets are byte-identical across runs, machines,
// and job counts. Compaction replays the filled set in REVERSE order
// through the fault simulator with fault dropping and keeps exactly
// the patterns that detect something new in that replay; because every
// fault's last-detecting pattern is elected, replaying the kept subset
// (forward) re-detects exactly the faults the full set detected -- the
// byte-equal detected-bitmap invariant tests/atpg_compact_test.cpp checks.
#pragma once

#include <cstdint>
#include <vector>

#include "faults/fault.hpp"
#include "netlist/netlist.hpp"

namespace compsyn {

inline constexpr std::uint8_t kBit0 = 0, kBit1 = 1, kBitX = 2;

/// One test vector over the primary inputs; bits[i] applies to inputs()[i]
/// and is kBit0, kBit1, or kBitX (don't-care).
struct TestPattern {
  std::vector<std::uint8_t> bits;

  bool fully_specified() const {
    for (std::uint8_t b : bits) {
      if (b == kBitX) return false;
    }
    return true;
  }
  bool operator==(const TestPattern&) const = default;
};

inline constexpr std::uint64_t kDefaultFillSeed = 0xC0FFEE5EEDull;

/// Deterministic fill bit for X at (pattern_index, input_index):
/// a splitmix64-style mix, uniform-ish and reproducible everywhere.
std::uint8_t xfill_bit(std::uint64_t seed, std::uint64_t pattern_index,
                       std::uint64_t input_index);

/// Copy of `p` with every kBitX replaced by xfill_bit(seed, pattern_index, i).
TestPattern xfill_pattern(const TestPattern& p, std::uint64_t seed,
                          std::uint64_t pattern_index);

struct CompactionOptions {
  std::uint64_t fill_seed = kDefaultFillSeed;
};

struct CompactionResult {
  /// Kept patterns, fully specified, in original relative order.
  std::vector<TestPattern> patterns;
  /// Detected bitmap (one char per fault, 0/1) of the FULL filled input
  /// set -- by the election invariant, also the bitmap of `patterns`.
  std::vector<char> detected;
  std::size_t detected_count = 0;
  std::size_t input_patterns = 0;
};

/// Static compaction: X-fills `patterns` (X bits keyed by their original
/// pattern index), replays forward for the reference detected bitmap, then
/// replays in reverse with fault dropping to elect the kept subset.
/// Deterministic (the simulator's contract).
CompactionResult compact_patterns(const Netlist& nl,
                                  const std::vector<StuckFault>& faults,
                                  const std::vector<TestPattern>& patterns,
                                  const CompactionOptions& opt = {});

/// Replays fully-specified patterns through a fresh FaultSimulator and
/// returns the detected bitmap (one char per fault). X bits are applied
/// as 0. The verification half of the compaction invariant.
std::vector<char> replay_detect(const Netlist& nl,
                                const std::vector<StuckFault>& faults,
                                const std::vector<TestPattern>& patterns);

}  // namespace compsyn
