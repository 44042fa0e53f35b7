// Verdict-differential suite for the strategy-driven PODEM (DESIGN.md §16):
// search-order policies may change decisions and backtrack counts, never
// verdicts. Against a baseline unlimited-backtrack legacy PODEM, every
// (backtrace, frontier) policy combination must return the identical
// Detected/Untestable status for every fault; under a finite budget the
// only permitted difference is Aborted resolving to a real verdict.
// The guided_atpg pipeline inherits the same invariant across strategy and
// fault-order combinations.
// PinnedSearchDigests freezes the search itself: every field of every result
// under every strategy must match digests recorded from the full-sweep
// implication engine, so an implication rewrite cannot move a single
// decision.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "atpg/guided.hpp"
#include "atpg/podem.hpp"
#include "atpg/scoap.hpp"
#include "faults/fault_sim.hpp"
#include "gen/circuits.hpp"
#include "util/rng.hpp"

namespace compsyn {
namespace {

constexpr BacktracePolicy kBacktrace[] = {BacktracePolicy::Legacy,
                                          BacktracePolicy::Scoap};
constexpr FrontierPolicy kFrontier[] = {FrontierPolicy::Legacy,
                                        FrontierPolicy::Scoap};

/// Per-fault verdicts at an unlimited budget under one strategy.
std::vector<AtpgStatus> verdicts(const Netlist& nl,
                                 const std::vector<StuckFault>& faults,
                                 AtpgStrategy strategy,
                                 const AtpgGuidance* guidance,
                                 std::uint64_t backtrack_limit = 0) {
  AtpgOptions opt;
  opt.backtrack_limit = backtrack_limit;
  opt.strategy = strategy;
  opt.guidance = guidance;
  std::vector<AtpgStatus> out;
  out.reserve(faults.size());
  for (const StuckFault& f : faults) out.push_back(run_podem(nl, f, opt).status);
  return out;
}

TEST(AtpgDifferential, AllStrategyCombosMatchBaselineOnGenSuite) {
  for (const char* name : {"c17", "s27", "add8", "cmp8"}) {
    Netlist nl = make_benchmark(name);
    const auto faults = enumerate_faults(nl, true);
    const AtpgGuidance guidance = AtpgGuidance::build(nl);
    const auto ref = verdicts(nl, faults, {}, nullptr);
    for (AtpgStatus s : ref) ASSERT_NE(s, AtpgStatus::Aborted) << name;
    for (BacktracePolicy bt : kBacktrace) {
      for (FrontierPolicy fr : kFrontier) {
        const auto got = verdicts(nl, faults, {bt, fr}, &guidance);
        for (std::size_t i = 0; i < faults.size(); ++i) {
          EXPECT_EQ(got[i], ref[i])
              << name << " bt=" << to_string(bt) << " fr=" << to_string(fr)
              << " fault " << to_string(nl, faults[i]);
        }
      }
    }
  }
}

TEST(AtpgDifferential, DetectedTestsStayValidUnderEveryStrategy) {
  // Not only the verdict: each strategy's Detected result must carry a test
  // the fault simulator confirms.
  Netlist nl = make_benchmark("cmp8");
  const auto faults = enumerate_faults(nl, true);
  const AtpgGuidance guidance = AtpgGuidance::build(nl);
  for (BacktracePolicy bt : kBacktrace) {
    for (FrontierPolicy fr : kFrontier) {
      AtpgOptions opt;
      opt.backtrack_limit = 0;
      opt.strategy = {bt, fr};
      opt.guidance = &guidance;
      for (const StuckFault& f : faults) {
        const AtpgResult r = run_podem(nl, f, opt);
        if (r.status != AtpgStatus::Detected) continue;
        FaultSimulator sim(nl, {f});
        std::vector<std::uint64_t> pi(r.test.size());
        for (std::size_t i = 0; i < r.test.size(); ++i) {
          pi[i] = r.test[i] ? 1ull : 0ull;
        }
        EXPECT_FALSE(sim.simulate_block(pi, 0).empty())
            << to_string(nl, f) << " bt=" << to_string(bt)
            << " fr=" << to_string(fr);
      }
    }
  }
}

TEST(AtpgDifferential, FiniteBudgetMayOnlyResolveAborts) {
  // Random 20-gate circuits carry redundancies; at backtrack_limit=1 a
  // strategy may abort, but a non-Aborted answer must equal the unlimited
  // reference -- a budget can never flip Detected <-> Untestable.
  Rng gen(97);
  for (int trial = 0; trial < 8; ++trial) {
    Netlist nl("r");
    std::vector<NodeId> pool;
    for (int i = 0; i < 5; ++i) pool.push_back(nl.add_input());
    const GateType kinds[] = {GateType::And, GateType::Or,  GateType::Nand,
                              GateType::Nor, GateType::Not, GateType::Xor};
    for (int i = 0; i < 20; ++i) {
      const GateType t = kinds[gen.below(6)];
      const unsigned arity = t == GateType::Not ? 1 : 2;
      std::vector<NodeId> fi;
      for (unsigned j = 0; j < arity; ++j) {
        fi.push_back(pool[gen.below(pool.size())]);
      }
      pool.push_back(nl.add_gate(t, fi));
    }
    nl.mark_output(pool.back());
    nl.sweep();
    const auto faults = enumerate_faults(nl, true);
    const AtpgGuidance guidance = AtpgGuidance::build(nl);
    const auto ref = verdicts(nl, faults, {}, nullptr);
    for (BacktracePolicy bt : kBacktrace) {
      for (FrontierPolicy fr : kFrontier) {
        for (std::uint64_t limit : {1ull, 4ull}) {
          const auto got = verdicts(nl, faults, {bt, fr}, &guidance, limit);
          for (std::size_t i = 0; i < faults.size(); ++i) {
            if (got[i] == AtpgStatus::Aborted) continue;
            EXPECT_EQ(got[i], ref[i])
                << "trial " << trial << " limit " << limit
                << " bt=" << to_string(bt) << " fr=" << to_string(fr);
          }
        }
      }
    }
  }
}

TEST(AtpgDifferential, MissingGuidanceDegradesToLegacy) {
  // A non-legacy strategy without a guidance table must behave exactly like
  // the legacy engine (same verdicts, same backtrack counts) rather than
  // read stale metrics.
  Netlist nl = make_benchmark("add8");
  const auto faults = enumerate_faults(nl, true);
  for (const StuckFault& f : faults) {
    AtpgOptions legacy;
    legacy.backtrack_limit = 0;
    AtpgOptions blind;
    blind.backtrack_limit = 0;
    blind.strategy = {BacktracePolicy::Scoap, FrontierPolicy::Scoap};
    blind.guidance = nullptr;
    const AtpgResult a = run_podem(nl, f, legacy);
    const AtpgResult b = run_podem(nl, f, blind);
    EXPECT_EQ(a.status, b.status) << to_string(nl, f);
    EXPECT_EQ(a.backtracks, b.backtracks) << to_string(nl, f);
    EXPECT_EQ(a.decisions, b.decisions) << to_string(nl, f);
    EXPECT_EQ(a.test, b.test) << to_string(nl, f);
  }
}

/// FNV-1a over every field of every result (status, backtracks, decisions,
/// test, cube) for all collapsed faults under one strategy and budget.
std::uint64_t search_digest(const Netlist& nl,
                            const std::vector<StuckFault>& faults,
                            AtpgStrategy strategy, const AtpgGuidance* guidance,
                            std::uint64_t backtrack_limit) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  AtpgOptions opt;
  opt.backtrack_limit = backtrack_limit;
  opt.strategy = strategy;
  opt.guidance = guidance;
  opt.record_cube = true;
  for (const StuckFault& f : faults) {
    const AtpgResult r = run_podem(nl, f, opt);
    mix(static_cast<std::uint64_t>(r.status));
    mix(r.backtracks);
    mix(r.decisions);
    mix(r.test.size());
    for (bool b : r.test) mix(b);
    mix(r.cube.size());
    for (std::uint8_t c : r.cube) mix(c);
  }
  return h;
}

struct PinnedSearch {
  const char* circuit;
  std::uint64_t backtrack_limit;  // 0 = unlimited
  // One digest per (backtrace, frontier) pair, backtrace-major in the order
  // of kBacktrace x kFrontier.
  std::uint64_t digest[4];
};

// Recorded from the full-sweep implication engine (re-simulating the whole
// topological order on every decision). Limit 0 is run only where
// AllStrategyCombosMatchBaselineOnGenSuite proves no fault aborts.
constexpr PinnedSearch kPinned[] = {
    {"c17", 0,
     {0x25c3dbb5f004d9c0ull, 0x41bb960c5b78d260ull,
      0x208c84e509e40a40ull, 0x3c843f3b755802e0ull}},
    {"c17", 5000,
     {0x25c3dbb5f004d9c0ull, 0x41bb960c5b78d260ull,
      0x208c84e509e40a40ull, 0x3c843f3b755802e0ull}},
    {"c17", 50,
     {0x25c3dbb5f004d9c0ull, 0x41bb960c5b78d260ull,
      0x208c84e509e40a40ull, 0x3c843f3b755802e0ull}},
    {"s27", 0,
     {0xe38e3b055db401a3ull, 0xb2fe8cc4d66b00e5ull,
      0x92dab6e87acd1d63ull, 0xc2cb743e08ca7425ull}},
    {"s27", 5000,
     {0xe38e3b055db401a3ull, 0xb2fe8cc4d66b00e5ull,
      0x92dab6e87acd1d63ull, 0xc2cb743e08ca7425ull}},
    {"s27", 50,
     {0xe38e3b055db401a3ull, 0xb2fe8cc4d66b00e5ull,
      0x92dab6e87acd1d63ull, 0xc2cb743e08ca7425ull}},
    {"add8", 0,
     {0xdc1ea3f36a422726ull, 0xdc1ea3f36a422726ull,
      0x3dbc31b48ef9f626ull, 0x3dbc31b48ef9f626ull}},
    {"add8", 5000,
     {0xdc1ea3f36a422726ull, 0xdc1ea3f36a422726ull,
      0x3dbc31b48ef9f626ull, 0x3dbc31b48ef9f626ull}},
    {"add8", 50,
     {0xdc1ea3f36a422726ull, 0xdc1ea3f36a422726ull,
      0x3dbc31b48ef9f626ull, 0x3dbc31b48ef9f626ull}},
    {"cmp8", 0,
     {0x2bea31db06638021ull, 0x3f5ee6f53b2053a3ull,
      0x7992490c7b42523bull, 0xac377036ce55681aull}},
    {"cmp8", 5000,
     {0x2bea31db06638021ull, 0x3f5ee6f53b2053a3ull,
      0x7992490c7b42523bull, 0xac377036ce55681aull}},
    {"cmp8", 50,
     {0x2bea31db06638021ull, 0x3f5ee6f53b2053a3ull,
      0x7992490c7b42523bull, 0xac377036ce55681aull}},
    {"alu4", 5000,
     {0xc2d6c41cb7e2ab89ull, 0xc3c2d38137d39666ull,
      0xfb2d0e295d256ee4ull, 0xd918bf4c3ea1514bull}},
    {"alu4", 50,
     {0x1d719f026757ad20ull, 0xa9fdb4c1e9edbfcfull,
      0xce0d83d80377334dull, 0x21dfcf5eeae68562ull}},
    {"syn150", 5000,
     {0x13353a6cde80b435ull, 0xdca72dac01de6410ull,
      0x4921a762649dc48cull, 0xd6485c4e1cc437d6ull}},
    {"syn150", 50,
     {0x4958df582520f5f0ull, 0x7005f3f4c4b4b902ull,
      0x56c28c9df2e53cb4ull, 0xf2e2633d06c1d6f0ull}},
};

TEST(AtpgDifferential, PinnedSearchDigests) {
  for (const PinnedSearch& pin : kPinned) {
    Netlist nl = make_benchmark(pin.circuit);
    const auto faults = enumerate_faults(nl, true);
    const AtpgGuidance guidance = AtpgGuidance::build(nl);
    std::string got_row;
    bool match = true;
    std::size_t i = 0;
    for (BacktracePolicy bt : kBacktrace) {
      for (FrontierPolicy fr : kFrontier) {
        const std::uint64_t got =
            search_digest(nl, faults, {bt, fr}, &guidance, pin.backtrack_limit);
        char buf[32];
        std::snprintf(buf, sizeof buf, "0x%016llxull,",
                      static_cast<unsigned long long>(got));
        got_row += buf;
        EXPECT_EQ(got, pin.digest[i])
            << pin.circuit << " limit " << pin.backtrack_limit
            << " bt=" << to_string(bt) << " fr=" << to_string(fr);
        match &= got == pin.digest[i];
        ++i;
      }
    }
    if (!match) {
      ADD_FAILURE() << "observed row: {\"" << pin.circuit << "\", "
                    << pin.backtrack_limit << ", {" << got_row << "}},";
    }
  }
}

TEST(AtpgDifferential, GuidedPipelineVerdictInvariant) {
  // The full pipeline (RTPG + ordering + PODEM + X-fill dropping) keeps the
  // per-fault Detected/Untestable vector identical across every strategy and
  // fault-order combination at an unlimited budget.
  const FaultOrderPolicy orders[] = {FaultOrderPolicy::Index,
                                     FaultOrderPolicy::HardFirst,
                                     FaultOrderPolicy::Cone};
  for (const char* name : {"s27", "cmp8"}) {
    Netlist nl = make_benchmark(name);
    GuidedAtpgOptions base;
    base.backtrack_limit = 0;
    const GuidedAtpgResult ref = guided_atpg(nl, base);
    EXPECT_EQ(ref.aborted, 0u);
    for (BacktracePolicy bt : kBacktrace) {
      for (FrontierPolicy fr : kFrontier) {
        for (FaultOrderPolicy ord : orders) {
          GuidedAtpgOptions opt = base;
          opt.strategy = {bt, fr};
          opt.order = ord;
          const GuidedAtpgResult got = guided_atpg(nl, opt);
          EXPECT_EQ(got.faults.size(), ref.faults.size()) << name;
          EXPECT_EQ(got.status, ref.status)
              << name << " bt=" << to_string(bt) << " fr=" << to_string(fr)
              << " ord=" << to_string(ord);
          EXPECT_EQ(got.detected, ref.detected) << name;
          EXPECT_EQ(got.untestable, ref.untestable) << name;
          EXPECT_EQ(got.aborted, 0u) << name;
        }
      }
    }
  }
}

}  // namespace
}  // namespace compsyn
