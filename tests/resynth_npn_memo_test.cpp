// Memo-on vs memo-off differential: the NPN-orbit identification cache
// (core/comparison.cpp, IdentifyOptions::npn_memo) must be invisible in
// results -- identical resynthesized netlists, stats, and path counts on
// real Table 2 suite circuits, with the memo only changing how much search
// runs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_io/bench_io.hpp"
#include "core/comparison.hpp"
#include "core/resynth.hpp"
#include "gen/circuits.hpp"
#include "paths/paths.hpp"

namespace compsyn {
namespace {

struct RunOut {
  std::string bench;
  std::uint64_t gates = 0;
  std::uint64_t paths = 0;
  unsigned passes = 0;
  std::uint64_t replacements = 0;
};

RunOut run_one(const std::string& name, bool npn_memo,
               ResynthObjective objective) {
  // Fresh memo state per run so hit/miss history cannot leak between the
  // on and off arms (results must not depend on it either way).
  clear_exact_identification_memo();
  Netlist nl = make_benchmark(name);
  ResynthOptions opt;
  opt.objective = objective;
  opt.k = 5;
  opt.identify.npn_memo = npn_memo;
  const ResynthStats st = resynthesize(nl, opt);
  RunOut out;
  out.bench = write_bench_string(nl.compacted());
  out.gates = nl.equivalent_gate_count();
  out.paths = count_paths(nl).total;
  out.passes = st.passes;
  out.replacements = st.replacements;
  return out;
}

class NpnMemoDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(NpnMemoDifferential, IdenticalNetlistsWithMemoOnAndOff) {
  const std::string name = GetParam();
  for (const ResynthObjective objective :
       {ResynthObjective::Gates, ResynthObjective::Paths}) {
    const RunOut off = run_one(name, /*npn_memo=*/false, objective);
    const RunOut on = run_one(name, /*npn_memo=*/true, objective);
    EXPECT_EQ(on.bench, off.bench)
        << name << ": netlist differs with npn_memo on";
    EXPECT_EQ(on.gates, off.gates) << name;
    EXPECT_EQ(on.paths, off.paths) << name;
    EXPECT_EQ(on.passes, off.passes) << name;
    EXPECT_EQ(on.replacements, off.replacements) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Table2, NpnMemoDifferential,
                         ::testing::Values("c17", "s27", "dec5", "mux4",
                                           "cmp8", "add8"));

TEST(NpnMemoStats, OrbitTierActuallyEngages) {
  // Sanity that the differential above is not vacuous: the on-arm must
  // canonicalize and reuse. Stats are process-global monotone tallies, so
  // compare snapshots around a fresh-memo run.
  clear_exact_identification_memo();
  const NpnIdentifyStats before = npn_identify_stats();
  Netlist nl = make_benchmark("cmp8");
  ResynthOptions opt;
  opt.k = 5;
  resynthesize(nl, opt);
  const NpnIdentifyStats after = npn_identify_stats();
  EXPECT_GT(after.canonicalizations, before.canonicalizations);
  EXPECT_GT(after.exact_searches, before.exact_searches);
  // Reuse happened (negative or polarity-transform): fewer searches than
  // canonicalizations means some tier-1 misses were served by the orbit.
  EXPECT_GT(after.orbit_hits, before.orbit_hits);
}

}  // namespace
}  // namespace compsyn
