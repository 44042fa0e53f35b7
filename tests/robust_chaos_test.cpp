// Chaos suite for the robustness layer: every degraded or interrupted path
// must still hand back a verified, function-equivalent netlist, budget stops
// must land at the same place on every run, and scripted fault injection
// must never corrupt a result. The CI chaos job runs this suite under
// ASan/UBSan.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "atpg/redundancy.hpp"
#include "bench_io/bench_io.hpp"
#include "core/resynth.hpp"
#include "gen/circuits.hpp"
#include "netlist/equivalence.hpp"
#include "obs/counters.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "robust/guard.hpp"
#include "robust/inject.hpp"
#include "robust/robust.hpp"
#include "sat/cec.hpp"
#include "util/rng.hpp"

namespace compsyn {
namespace {

/// Clears cancellation and resets observability around each scenario so
/// chaos from one test never leaks into the next.
struct ChaosGuard {
  ChaosGuard() { robust::clear_cancel(); }
  ~ChaosGuard() {
    robust::clear_cancel();
    Counters::reset();
    Trace::reset();
    obs_set_level(ObsLevel::off);
  }
};

/// SAT-certifies that `got` still computes `want`'s function: the chaos
/// contract is *proven* equivalence, not just "no random vector disagreed".
void expect_certified_equivalent(const Netlist& want, const Netlist& got,
                                 const std::string& what) {
  Rng rng(0xC0FFEE);
  const EquivalenceResult res =
      check_equivalent_mode(want, got, rng, VerifyMode::Both);
  EXPECT_TRUE(res.equivalent) << what << ": " << res.message;
  EXPECT_TRUE(res.proven) << what << ": " << res.message;
}

/// One resynthesis run of syn150 under a fresh budget of `limit` ticks.
/// Returns the stats and leaves the resulting netlist in `out`.
ResynthStats budgeted_resynth(std::uint64_t limit, Netlist& out) {
  out = make_benchmark("syn150");
  robust::Budget budget(limit);
  robust::BudgetScope scope(budget);
  ResynthOptions opt;
  opt.k = 5;
  return resynthesize(out, opt);
}

TEST(ChaosBudget, EveryBudgetYieldsCertifiedNetlist) {
  ChaosGuard guard;
  const Netlist original = make_benchmark("syn150");
  for (std::uint64_t limit : {1ull, 50ull, 200ull, 1000ull, 5000ull}) {
    Netlist nl;
    const ResynthStats st = budgeted_resynth(limit, nl);
    // A budget stop is Degraded with reason Budget; a natural finish is
    // Complete. Nothing else is acceptable from a budget-only run.
    if (st.status == robust::RunStatus::Complete) {
      EXPECT_EQ(st.stop_reason, robust::StopReason::None) << "limit " << limit;
    } else {
      EXPECT_EQ(st.status, robust::RunStatus::Degraded) << "limit " << limit;
      EXPECT_EQ(st.stop_reason, robust::StopReason::Budget)
          << "limit " << limit;
    }
    expect_certified_equivalent(original, nl,
                                "budget=" + std::to_string(limit));
  }
}

TEST(ChaosBudget, TinyBudgetDegrades) {
  ChaosGuard guard;
  Netlist nl;
  const ResynthStats st = budgeted_resynth(1, nl);
  EXPECT_EQ(st.status, robust::RunStatus::Degraded);
  EXPECT_EQ(st.stop_reason, robust::StopReason::Budget);
}

TEST(ChaosBudget, StopPointIsRepeatable) {
  ChaosGuard guard;
  for (std::uint64_t limit : {200ull, 1000ull}) {
    std::string reference;
    for (int run = 0; run < 2; ++run) {
      Netlist nl;
      const ResynthStats st = budgeted_resynth(limit, nl);
      std::ostringstream os;
      os << write_bench_string(nl.compacted()) << "passes=" << st.passes
         << " repl=" << st.replacements << " cones=" << st.cones_considered
         << " gates=" << st.gates_after << " paths=" << st.paths_after
         << " status=" << robust::to_string(st.status)
         << " reason=" << robust::to_string(st.stop_reason);
      if (run == 0) {
        reference = os.str();
      } else {
        EXPECT_EQ(os.str(), reference)
            << "budget=" << limit << " differs on the repeat";
      }
    }
  }
}

TEST(ChaosBudget, RedundancyRemovalDegradesGracefully) {
  ChaosGuard guard;
  const Netlist original = make_benchmark("syn300");
  Netlist nl = original;
  robust::Budget budget(1);
  robust::BudgetScope scope(budget);
  const RedundancyRemovalStats st = remove_redundancies(nl);
  EXPECT_EQ(st.status, robust::RunStatus::Degraded);
  EXPECT_EQ(st.stop_reason, robust::StopReason::Budget);
  // A degraded sweep may not claim irredundance...
  EXPECT_FALSE(st.irredundant);
  // ...but whatever it committed must still be the same function.
  expect_certified_equivalent(original, nl, "degraded redundancy removal");
}

TEST(ChaosInject, SatFailuresPreserveEquivalence) {
  ChaosGuard guard;
  std::string err;
  // Fail a scattering of early SAT solves: the engines must treat each
  // Unknown as "don't know, keep the conservative answer".
  const auto plan = robust::FaultPlan::parse("sat:1,sat:2,sat:3,sat:5", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  robust::InjectScope scope(*plan);
  const Netlist original = make_benchmark("syn150");
  Netlist nl = original;
  remove_redundancies(nl);
  ResynthOptions opt;
  opt.k = 5;
  resynthesize(nl, opt);
  expect_certified_equivalent(original, nl, "sat fault injection");
}

TEST(ChaosInject, OracleTimeoutsPreserveEquivalence) {
  ChaosGuard guard;
  std::string err;
  const auto plan = robust::FaultPlan::parse("oracle:1,oracle:2,oracle:4", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  robust::InjectScope scope(*plan);
  const Netlist original = make_benchmark("syn150");
  Netlist nl = original;
  ResynthOptions opt;
  opt.k = 5;
  opt.use_sdc = true;      // exercise the reachability oracle
  opt.sdc_max_inputs = 4;  // force the SAT-oracle path for this 24-PI circuit
  resynthesize(nl, opt);
  expect_certified_equivalent(original, nl, "oracle fault injection");
}

TEST(ChaosInject, ScriptedBudgetTripReportsInjected) {
  ChaosGuard guard;
  std::string err;
  const auto plan = robust::FaultPlan::parse("budget:50", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  const robust::RunControls controls(0, 0.0, plan);
  const Netlist original = make_benchmark("syn150");
  Netlist nl = original;
  ResynthOptions opt;
  opt.k = 5;
  const ResynthStats st = resynthesize(nl, opt);
  EXPECT_EQ(st.status, robust::RunStatus::Degraded);
  EXPECT_EQ(st.stop_reason, robust::StopReason::Injected);
  expect_certified_equivalent(original, nl, "injected budget trip");
}

TEST(ChaosCancel, PreCancelledRunInterruptsAndStaysEquivalent) {
  ChaosGuard guard;
  const Netlist original = make_benchmark("syn150");
  Netlist nl = original;
  robust::request_cancel(robust::StopReason::Signal, 15);
  ResynthOptions opt;
  opt.k = 5;
  const ResynthStats st = resynthesize(nl, opt);
  robust::clear_cancel();
  EXPECT_EQ(st.status, robust::RunStatus::Interrupted);
  EXPECT_EQ(st.stop_reason, robust::StopReason::Signal);
  expect_certified_equivalent(original, nl, "pre-cancelled resynthesis");
}

TEST(ChaosCancel, RedundancyRemovalHonoursCancellation) {
  ChaosGuard guard;
  const Netlist original = make_benchmark("syn300");
  Netlist nl = original;
  robust::request_cancel(robust::StopReason::Deadline);
  const RedundancyRemovalStats st = remove_redundancies(nl);
  robust::clear_cancel();
  EXPECT_EQ(st.status, robust::RunStatus::Interrupted);
  EXPECT_EQ(st.stop_reason, robust::StopReason::Deadline);
  EXPECT_FALSE(st.irredundant);
  expect_certified_equivalent(original, nl, "cancelled redundancy removal");
}

}  // namespace
}  // namespace compsyn
