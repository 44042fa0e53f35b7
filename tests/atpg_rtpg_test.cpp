// Multi-variant random TPG: seeded and byte-reproducible.
// A fixed seed must reproduce the pattern stream, the detected accounting,
// and the fsim.* counters exactly across repeated runs. Distribution variants (uniform | weighted | toggle) may change
// how many patterns reach a coverage level, never the verdict accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "atpg/guided.hpp"
#include "faults/fault_sim.hpp"
#include "gen/circuits.hpp"
#include "obs/counters.hpp"
#include "obs/obs.hpp"

namespace compsyn {
namespace {

/// Counter recording scoped to one measured region; resets on entry so each
/// snapshot starts from zero.
struct ObsGuard {
  ObsGuard() {
    Counters::reset();
    obs_set_level(ObsLevel::report);
  }
  ~ObsGuard() {
    obs_set_level(ObsLevel::off);
    Counters::reset();
  }
};

std::vector<std::pair<std::string, std::uint64_t>> counters_with_prefix(
    const std::string& prefix) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const CounterStat& c : Counters::counters()) {
    if (c.name.rfind(prefix, 0) == 0) out.emplace_back(c.name, c.value);
  }
  return out;
}

TEST(Rtpg, DirectCallIsDeterministic) {
  Netlist nl = make_benchmark("cmp8");
  const auto faults = enumerate_faults(nl, true);
  RandomTpgOptions opt;
  opt.seed = 0xFEEDull;
  opt.max_patterns = 512;
  std::vector<TestPattern> p1, p2;
  FaultSimulator s1(nl, faults);
  const RandomTpgStats r1 = random_tpg(nl, s1, opt, p1);
  FaultSimulator s2(nl, faults);
  const RandomTpgStats r2 = random_tpg(nl, s2, opt, p2);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(r1.patterns_applied, r2.patterns_applied);
  EXPECT_EQ(r1.patterns_kept, r2.patterns_kept);
  EXPECT_EQ(r1.blocks, r2.blocks);
  EXPECT_EQ(r1.detected, r2.detected);
  EXPECT_EQ(r1.patterns_kept, p1.size());
  EXPECT_LE(r1.patterns_kept, r1.patterns_applied);
  for (const TestPattern& p : p1) {
    EXPECT_EQ(p.bits.size(), nl.inputs().size());
    EXPECT_TRUE(p.fully_specified());
  }
}

TEST(Rtpg, SeedChangesTheStream) {
  Netlist nl = make_benchmark("cmp8");
  const auto faults = enumerate_faults(nl, true);
  RandomTpgOptions opt;
  opt.max_patterns = 256;
  opt.stale_blocks = 0;  // keep full streams comparable
  std::vector<TestPattern> p1, p2;
  opt.seed = 1;
  FaultSimulator s1(nl, faults);
  random_tpg(nl, s1, opt, p1);
  opt.seed = 2;
  FaultSimulator s2(nl, faults);
  random_tpg(nl, s2, opt, p2);
  EXPECT_NE(p1, p2);
}

TEST(Rtpg, StaleBlocksStopEarly) {
  // c17 saturates in the first blocks; with a stale window the phase must
  // stop well short of the budget, and kept patterns never exceed applied.
  Netlist nl = make_benchmark("c17");
  const auto faults = enumerate_faults(nl, true);
  RandomTpgOptions opt;
  opt.max_patterns = 1 << 14;
  opt.stale_blocks = 2;
  std::vector<TestPattern> pats;
  FaultSimulator sim(nl, faults);
  const RandomTpgStats st = random_tpg(nl, sim, opt, pats);
  EXPECT_LT(st.patterns_applied, opt.max_patterns);
  EXPECT_EQ(sim.remaining(), 0u);  // c17 has full random coverage
  EXPECT_LE(st.patterns_kept, st.patterns_applied);
}

TEST(Rtpg, FixedSeedIsByteStableAcrossRuns) {
  Netlist nl = make_benchmark("cmp8");
  GuidedAtpgOptions gopt;
  gopt.backtrack_limit = 0;
  gopt.rtpg.seed = 0xABCDEFull;

  struct Snapshot {
    GuidedAtpgResult g;
    std::vector<std::pair<std::string, std::uint64_t>> fsim;
  };
  const auto run = [&] {
    ObsGuard obs;
    Snapshot s{guided_atpg(nl, gopt), {}};
    s.fsim = counters_with_prefix("fsim.");
    return s;
  };

  const Snapshot a = run();
  const Snapshot b = run();
  EXPECT_EQ(a.g.patterns, b.g.patterns);
  EXPECT_EQ(a.g.status, b.g.status);
  EXPECT_EQ(a.g.detected, b.g.detected);
  EXPECT_EQ(a.g.untestable, b.g.untestable);
  EXPECT_EQ(a.g.rtpg.patterns_applied, b.g.rtpg.patterns_applied);
  EXPECT_EQ(a.g.rtpg.patterns_kept, b.g.rtpg.patterns_kept);
  EXPECT_EQ(a.g.rtpg.blocks, b.g.rtpg.blocks);
  EXPECT_EQ(a.g.rtpg.detected, b.g.rtpg.detected);
  EXPECT_EQ(a.g.podem_calls, b.g.podem_calls);
  EXPECT_EQ(a.g.backtracks, b.g.backtracks);
  EXPECT_EQ(a.fsim, b.fsim);
}

TEST(Rtpg, VariantsDivergeOnlyInPatternCounts) {
  // Same seed, three distributions: the Detected/Untestable accounting and
  // the final per-fault status are identical; only pattern volume may move.
  for (const char* name : {"s27", "add8"}) {
    Netlist nl = make_benchmark(name);
    GuidedAtpgOptions gopt;
    gopt.backtrack_limit = 0;
    std::vector<GuidedAtpgResult> results;
    for (RtpgVariant v : {RtpgVariant::Uniform, RtpgVariant::Weighted,
                          RtpgVariant::Toggle}) {
      gopt.rtpg.variant = v;
      results.push_back(guided_atpg(nl, gopt));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[i].status, results[0].status) << name;
      EXPECT_EQ(results[i].detected, results[0].detected) << name;
      EXPECT_EQ(results[i].untestable, results[0].untestable) << name;
      EXPECT_EQ(results[i].aborted, 0u) << name;
    }
  }
}

TEST(Rtpg, ToggleVariantAppliesComplementaryPairs) {
  // The toggle distribution promises complementary consecutive patterns;
  // check the kept stream honours it wherever both halves of a pair were
  // kept (an even index followed by its odd sibling).
  Netlist nl = make_benchmark("add8");
  const auto faults = enumerate_faults(nl, true);
  RandomTpgOptions opt;
  opt.variant = RtpgVariant::Toggle;
  opt.max_patterns = 128;
  opt.stale_blocks = 0;
  std::vector<TestPattern> pats;
  FaultSimulator sim(nl, faults);
  const RandomTpgStats st = random_tpg(nl, sim, opt, pats);
  ASSERT_GE(st.patterns_kept, 2u);
  for (std::size_t p = 0; p + 1 < pats.size(); p += 2) {
    for (std::size_t i = 0; i < pats[p].bits.size(); ++i) {
      EXPECT_NE(pats[p].bits[i], pats[p + 1].bits[i])
          << "pair " << p << " input " << i;
    }
  }
}

TEST(Rtpg, ParserRoundTrips) {
  for (const char* s : {"uniform", "weighted", "toggle"}) {
    const auto v = parse_rtpg_variant(s);
    ASSERT_TRUE(v.has_value()) << s;
    EXPECT_STREQ(to_string(*v), s);
  }
  EXPECT_FALSE(parse_rtpg_variant("bogus").has_value());
  for (const char* s : {"index", "hard", "cone"}) {
    const auto v = parse_fault_order(s);
    ASSERT_TRUE(v.has_value()) << s;
    EXPECT_STREQ(to_string(*v), s);
  }
  EXPECT_FALSE(parse_fault_order("").has_value());
  for (const char* s : {"legacy", "scoap"}) {
    const auto b = parse_backtrace_policy(s);
    const auto f = parse_frontier_policy(s);
    ASSERT_TRUE(b.has_value() && f.has_value()) << s;
    EXPECT_STREQ(to_string(*b), s);
    EXPECT_STREQ(to_string(*f), s);
  }
  EXPECT_FALSE(parse_backtrace_policy("level").has_value());
  EXPECT_FALSE(parse_frontier_policy("level").has_value());
}

}  // namespace
}  // namespace compsyn
