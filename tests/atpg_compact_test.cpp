// Static pattern compaction and deterministic X-fill (DESIGN.md §16).
// The load-bearing invariant: replaying the compacted pattern set re-detects
// byte-exactly the faults the full X-filled set detected -- checked across
// circuits, fill seeds, RTPG seeds, and X-free and X-heavy inputs. X-fill is a pure function of (seed, pattern index, input index).
#include <gtest/gtest.h>

#include <cstddef>

#include "atpg/compact.hpp"
#include "atpg/guided.hpp"
#include "gen/circuits.hpp"

namespace compsyn {
namespace {

std::size_t popcount(const std::vector<char>& bm) {
  std::size_t n = 0;
  for (char b : bm) n += b != 0;
  return n;
}

TEST(Xfill, PureFunctionOfSeedAndIndices) {
  bool saw0 = false, saw1 = false;
  for (std::uint64_t p = 0; p < 64; ++p) {
    for (std::uint64_t i = 0; i < 16; ++i) {
      const std::uint8_t b = xfill_bit(kDefaultFillSeed, p, i);
      EXPECT_EQ(b, xfill_bit(kDefaultFillSeed, p, i));
      EXPECT_TRUE(b == 0 || b == 1);
      (b ? saw1 : saw0) = true;
    }
  }
  // A fill that is all-0 or all-1 would be a broken mix, not a fill.
  EXPECT_TRUE(saw0);
  EXPECT_TRUE(saw1);
}

TEST(Xfill, FillsOnlyTheXBits) {
  TestPattern p{{kBit0, kBit1, kBitX, kBitX, kBit1}};
  const TestPattern f = xfill_pattern(p, 7, 3);
  ASSERT_EQ(f.bits.size(), p.bits.size());
  EXPECT_EQ(f.bits[0], kBit0);
  EXPECT_EQ(f.bits[1], kBit1);
  EXPECT_EQ(f.bits[4], kBit1);
  EXPECT_TRUE(f.fully_specified());
  EXPECT_EQ(f.bits[2], xfill_bit(7, 3, 2));
  EXPECT_EQ(f.bits[3], xfill_bit(7, 3, 3));
  // Fully-specified patterns pass through untouched.
  EXPECT_EQ(xfill_pattern(f, 99, 1234), f);
}

TEST(Compact, EmptyInputIsEmptyOutput) {
  Netlist nl = make_benchmark("c17");
  const auto faults = enumerate_faults(nl, true);
  const CompactionResult r = compact_patterns(nl, faults, {});
  EXPECT_TRUE(r.patterns.empty());
  EXPECT_EQ(r.detected_count, 0u);
  EXPECT_EQ(popcount(r.detected), 0u);
  EXPECT_EQ(r.input_patterns, 0u);
}

TEST(Compact, CoverageReplayByteEqualAcrossCircuitsAndSeeds) {
  for (const char* name : {"c17", "s27", "add8", "cmp8"}) {
    Netlist nl = make_benchmark(name);
    for (std::uint64_t seed : {0x7007ull, 1ull, 424242ull}) {
      GuidedAtpgOptions gopt;
      gopt.backtrack_limit = 0;
      gopt.rtpg.seed = seed;
      const GuidedAtpgResult g = guided_atpg(nl, gopt);
      const CompactionResult c =
          compact_patterns(nl, g.faults, g.patterns, {gopt.fill_seed});
      // The headline invariant: forward replay of the kept subset detects
      // byte-exactly what the full filled set detected.
      EXPECT_EQ(replay_detect(nl, g.faults, c.patterns), c.detected)
          << name << " seed " << seed;
      EXPECT_LE(c.patterns.size(), g.patterns.size()) << name;
      EXPECT_EQ(c.input_patterns, g.patterns.size()) << name;
      EXPECT_EQ(c.detected_count, popcount(c.detected)) << name;
      EXPECT_EQ(c.detected_count, g.detected) << name;
      for (const TestPattern& p : c.patterns) {
        EXPECT_TRUE(p.fully_specified());
      }
    }
  }
}

TEST(Compact, XHeavyCubesAcrossFillSeeds) {
  // With the RTPG front end off, every pattern is a raw PODEM cube full of
  // don't-cares; the invariant must hold for any fill seed, and different
  // seeds may legitimately keep different subsets.
  Netlist nl = make_benchmark("cmp8");
  GuidedAtpgOptions gopt;
  gopt.backtrack_limit = 0;
  gopt.rtpg_enabled = false;
  for (std::uint64_t fill : {kDefaultFillSeed, std::uint64_t{123},
                             std::uint64_t{0xDEADBEEF}}) {
    gopt.fill_seed = fill;
    const GuidedAtpgResult g = guided_atpg(nl, gopt);
    bool any_x = false;
    for (const TestPattern& p : g.patterns) any_x |= !p.fully_specified();
    EXPECT_TRUE(any_x) << "expected X-bearing PODEM cubes";
    const CompactionResult c = compact_patterns(nl, g.faults, g.patterns, {fill});
    EXPECT_EQ(replay_detect(nl, g.faults, c.patterns), c.detected)
        << "fill " << fill;
    EXPECT_EQ(c.detected_count, g.detected);
  }
}

TEST(Compact, ReverseElectionIsIdempotent) {
  // Each kept pattern is some fault's latest detector, so compacting the
  // kept (fully specified) set again changes nothing.
  Netlist nl = make_benchmark("add8");
  GuidedAtpgOptions gopt;
  gopt.backtrack_limit = 0;
  const GuidedAtpgResult g = guided_atpg(nl, gopt);
  const CompactionResult once =
      compact_patterns(nl, g.faults, g.patterns, {gopt.fill_seed});
  const CompactionResult twice =
      compact_patterns(nl, g.faults, once.patterns, {gopt.fill_seed});
  EXPECT_EQ(twice.patterns, once.patterns);
  EXPECT_EQ(twice.detected, once.detected);
}

}  // namespace
}  // namespace compsyn
