// Cold-vs-warm repeat suite: every pipeline run twice in one process must
// produce byte-identical results -- netlists, stats, detection records, and
// run reports (timings masked). The second run finds the thread-local
// identification memos and the cone-enumeration and cone-function scratch
// buffers warm, so a result that leaked state from an earlier run shows up
// here.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "atpg/redundancy.hpp"
#include "bench_io/bench_io.hpp"
#include "core/comparison.hpp"
#include "core/resynth.hpp"
#include "core/sdc.hpp"
#include "delay/robust.hpp"
#include "faults/fault.hpp"
#include "faults/fault_sim.hpp"
#include "gen/circuits.hpp"
#include "obs/counters.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "report_mask.hpp"
#include "util/rng.hpp"

namespace compsyn {
namespace {

/// Clears recorded observability around a test.
struct ObsGuard {
  ~ObsGuard() {
    Counters::reset();
    Trace::reset();
    obs_set_level(ObsLevel::off);
  }
};

/// Runs `body` twice, the first time with the identification memo cleared,
/// and asserts both runs returned the same string.
template <typename Body>
void expect_repeatable(const char* what, Body&& body) {
  clear_exact_identification_memo();
  const std::string cold = body();
  ASSERT_FALSE(cold.empty()) << what;
  EXPECT_EQ(body(), cold) << what << " differs on the warm repeat";
}

std::string resynth_fingerprint(const std::string& circuit, ResynthObjective obj,
                                bool use_sdc) {
  Netlist nl = make_benchmark(circuit);
  ResynthOptions opt;
  opt.objective = obj;
  opt.k = 5;
  opt.use_sdc = use_sdc;
  const ResynthStats st = resynthesize(nl, opt);
  std::ostringstream os;
  os << "passes=" << st.passes << " repl=" << st.replacements
     << " cones=" << st.cones_considered << " cmp=" << st.comparison_cones
     << " gates=" << st.gates_before << "->" << st.gates_after
     << " paths=" << st.paths_before << "->" << st.paths_after << "\n"
     << write_bench_string(nl.compacted());
  return os.str();
}

TEST(RepeatDeterminism, ResynthGatesObjective) {
  for (const char* c : {"c17", "s27", "add8", "syn150"}) {
    expect_repeatable(c, [&] {
      return resynth_fingerprint(c, ResynthObjective::Gates, /*use_sdc=*/false);
    });
  }
}

TEST(RepeatDeterminism, ResynthPathsObjective) {
  for (const char* c : {"cmp8", "mux4"}) {
    expect_repeatable(c, [&] {
      return resynth_fingerprint(c, ResynthObjective::Paths, /*use_sdc=*/false);
    });
  }
}

TEST(RepeatDeterminism, ResynthWithSdcOracle) {
  // use_sdc routes cone evaluation through a reachability oracle; the
  // few-input circuits get the exact table.
  for (const char* c : {"s27", "mux4"}) {
    expect_repeatable(c, [&] {
      return resynth_fingerprint(c, ResynthObjective::Gates, /*use_sdc=*/true);
    });
  }
}

TEST(RepeatDeterminism, FaultSimulation) {
  for (const char* c : {"c17", "add8", "syn150"}) {
    expect_repeatable(c, [&] {
      Netlist nl = make_benchmark(c);
      Rng rng(0xFA571);
      const SafExperimentResult res =
          random_saf_experiment(nl, rng, /*max_patterns=*/1 << 12);
      // Include every fault's first detecting pattern, not just the summary.
      FaultSimulator sim(nl, enumerate_faults(nl, /*collapse=*/true));
      Rng rng2(0xFA571);
      std::vector<std::uint64_t> pi(nl.inputs().size());
      std::ostringstream os;
      os << "total=" << res.total_faults << " remaining=" << res.remaining
         << " last_eff=" << res.last_effective_pattern
         << " applied=" << res.patterns_applied << "\n";
      for (unsigned b = 0; b < 8; ++b) {
        for (auto& w : pi) w = rng2.next();
        for (std::size_t fi : sim.simulate_block(pi, 64ull * b)) {
          os << fi << "@" << sim.detecting_pattern(fi) << " ";
        }
        os << "\n";
      }
      return os.str();
    });
  }
}

TEST(RepeatDeterminism, RedundancyRemoval) {
  for (const char* c : {"s27", "add8", "syn150"}) {
    expect_repeatable(c, [&] {
      Netlist nl = make_benchmark(c);
      const RedundancyRemovalStats st = remove_redundancies(nl);
      std::ostringstream os;
      os << "removed=" << st.removed << " checked=" << st.faults_checked
         << " aborted=" << st.aborted
         << " sat_proofs=" << st.sat_proved_untestable
         << " sat_tests=" << st.sat_found_tests << " sat_unknown=" << st.sat_unknown
         << " unresolved=" << st.aborted_unresolved
         << " irredundant=" << st.irredundant << "\n"
         << write_bench_string(nl.compacted());
      return os.str();
    });
  }
}

TEST(RepeatDeterminism, RobustPathDelayTestability) {
  for (const char* c : {"c17", "s27", "cmp8"}) {
    expect_repeatable(c, [&] {
      Netlist nl = make_benchmark(c);
      const PdfTestability t = count_robustly_testable(nl, /*exhaustive_limit=*/10);
      std::ostringstream os;
      os << "faults=" << t.total_faults << " testable=" << t.testable;
      return os.str();
    });
  }
}

// masked_report_dump lives in report_mask.hpp, shared with the
// golden-reference flow tests.

TEST(RepeatDeterminism, RunReportCountersAndTables) {
  // The full observability surface: counters, spans (masked), and report
  // records. The identification memo is cleared before each run, as the
  // serve daemon does between jobs, because its hit/miss counters depend
  // on memo state; everything else starts warm on the repeat.
  ObsGuard guard;
  expect_repeatable("report", [&] {
    Counters::reset();
    Trace::reset();
    clear_exact_identification_memo();
    obs_set_level(ObsLevel::report);
    RunReport report("repeat_determinism");

    Netlist nl = make_benchmark("syn150");
    remove_redundancies(nl);
    ResynthOptions opt;
    opt.k = 5;
    resynthesize(nl, opt);
    Rng rng(0xBEEF);
    random_saf_experiment(nl, rng, 1 << 10);

    return label_ordered_spans(masked_report_dump(report.to_json()));
  });
}

}  // namespace
}  // namespace compsyn
