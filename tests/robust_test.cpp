// Unit tests for the robustness layer: budgets, cancellation, fault plans,
// flow checkpoint serialization, and the guard's exit-code mapping.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>

#include "flow/checkpoint.hpp"
#include "netlist/netlist.hpp"
#include "obs/json.hpp"
#include "paths/paths.hpp"
#include "robust/guard.hpp"
#include "robust/inject.hpp"
#include "robust/robust.hpp"
#include "util/errors.hpp"
#include "temp_path.hpp"

namespace compsyn::robust {
namespace {

/// Clears cancellation state around each test so scenarios don't leak.
struct CancelGuard {
  CancelGuard() { clear_cancel(); }
  ~CancelGuard() { clear_cancel(); }
};

TEST(RobustStatus, ToStringAndMapping) {
  EXPECT_STREQ(to_string(RunStatus::Complete), "ok");
  EXPECT_STREQ(to_string(RunStatus::Degraded), "degraded");
  EXPECT_STREQ(to_string(RunStatus::Interrupted), "interrupted");
  EXPECT_STREQ(to_string(RunStatus::Error), "error");
  for (RunStatus s : {RunStatus::Complete, RunStatus::Degraded,
                      RunStatus::Interrupted, RunStatus::Error}) {
    EXPECT_EQ(parse_run_status(to_string(s)), s);
  }
  EXPECT_FALSE(parse_run_status("complete").has_value());
  EXPECT_STREQ(to_string(StopReason::None), "none");
  EXPECT_STREQ(to_string(StopReason::Budget), "budget");
  EXPECT_STREQ(to_string(StopReason::Deadline), "deadline");
  EXPECT_STREQ(to_string(StopReason::Signal), "signal");
  EXPECT_STREQ(to_string(StopReason::Injected), "injected");

  EXPECT_EQ(run_status_for(StopReason::None), RunStatus::Complete);
  EXPECT_EQ(run_status_for(StopReason::Budget), RunStatus::Degraded);
  EXPECT_EQ(run_status_for(StopReason::Injected), RunStatus::Degraded);
  EXPECT_EQ(run_status_for(StopReason::Signal), RunStatus::Interrupted);
  EXPECT_EQ(run_status_for(StopReason::Deadline), RunStatus::Interrupted);
}

TEST(RobustBudget, CountsAndTrips) {
  Budget b(10);
  EXPECT_EQ(b.limit(), 10u);
  EXPECT_FALSE(b.exhausted());
  b.charge(9);
  EXPECT_FALSE(b.exhausted());
  b.charge(1);
  EXPECT_TRUE(b.exhausted());
  EXPECT_EQ(b.ticks(), 10u);
}

TEST(RobustBudget, LimitZeroCountsWithoutTripping) {
  Budget b(0);
  b.charge(1'000'000);
  EXPECT_EQ(b.ticks(), 1'000'000u);
  EXPECT_FALSE(b.exhausted());
}

TEST(RobustBudget, ResumeSeedsConsumedTicks) {
  Budget b(100, 60);
  EXPECT_EQ(b.ticks(), 60u);
  b.charge(40);
  EXPECT_TRUE(b.exhausted());
}

TEST(RobustBudget, FreeFunctionsNoOpWithoutScope) {
  EXPECT_FALSE(budget_installed());
  charge(5);  // must not crash
  EXPECT_EQ(ticks_consumed(), 0u);
  EXPECT_FALSE(budget_exhausted());
}

TEST(RobustBudget, ScopeInstallsAndUninstalls) {
  Budget b(3);
  {
    BudgetScope scope(b);
    EXPECT_TRUE(budget_installed());
    charge(2);
    EXPECT_FALSE(budget_exhausted());
    charge(1);
    EXPECT_TRUE(budget_exhausted());
    EXPECT_EQ(ticks_consumed(), 3u);
    EXPECT_TRUE(should_stop());
    EXPECT_EQ(stop_reason(), StopReason::Budget);
  }
  EXPECT_FALSE(budget_installed());
  EXPECT_FALSE(should_stop());
}

TEST(RobustCancel, FirstReasonWins) {
  CancelGuard guard;
  EXPECT_FALSE(cancel_requested());
  request_cancel(StopReason::Deadline);
  request_cancel(StopReason::Signal, 2);  // too late: deadline already won
  EXPECT_TRUE(cancel_requested());
  EXPECT_EQ(cancel_reason(), StopReason::Deadline);
  EXPECT_EQ(cancel_signal(), 0);
  clear_cancel();
  EXPECT_FALSE(cancel_requested());
}

TEST(RobustCancel, PollThrowsWithReason) {
  CancelGuard guard;
  EXPECT_NO_THROW(poll_cancellation());
  request_cancel(StopReason::Signal, 15);
  EXPECT_EQ(cancel_signal(), 15);
  try {
    poll_cancellation();
    FAIL() << "poll_cancellation did not throw";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason, StopReason::Signal);
  }
}

TEST(RobustCancel, CancelOutranksBudgetInStopReason) {
  CancelGuard guard;
  Budget b(1);
  BudgetScope scope(b);
  charge(2);
  EXPECT_EQ(stop_reason(), StopReason::Budget);
  request_cancel(StopReason::Signal, 2);
  EXPECT_EQ(stop_reason(), StopReason::Signal);
}

TEST(RobustDeadline, InertForNonPositiveSeconds) {
  CancelGuard guard;
  {
    DeadlineWatchdog w(0.0);
    DeadlineWatchdog w2(-1.0);
  }
  EXPECT_FALSE(cancel_requested());
}

TEST(RobustDeadline, FiresAndCancels) {
  CancelGuard guard;
  DeadlineWatchdog w(0.02);
  for (int i = 0; i < 500 && !cancel_requested(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(cancel_requested());
  EXPECT_EQ(cancel_reason(), StopReason::Deadline);
}

TEST(RobustDeadline, DestructionBeforeExpiryLeavesNoCancel) {
  CancelGuard guard;
  { DeadlineWatchdog w(30.0); }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(cancel_requested());
}

TEST(FaultPlanParse, AcceptsFullGrammar) {
  std::string err;
  auto plan = FaultPlan::parse("sat:3,oracle:2,write:1,budget:5000,halt:4", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  EXPECT_EQ(plan->sat_failures, std::vector<std::uint64_t>{3});
  EXPECT_EQ(plan->oracle_timeouts, std::vector<std::uint64_t>{2});
  EXPECT_EQ(plan->write_failures, std::vector<std::uint64_t>{1});
  EXPECT_EQ(plan->halts, std::vector<std::uint64_t>{4});
  EXPECT_EQ(plan->budget_trip, 5000u);
}

TEST(FaultPlanParse, RepeatedKindsAccumulate) {
  std::string err;
  auto plan = FaultPlan::parse("sat:1,sat:5,sat:9", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  EXPECT_EQ(plan->sat_failures, (std::vector<std::uint64_t>{1, 5, 9}));
}

TEST(FaultPlanParse, RejectsBadSpecs) {
  std::string err;
  EXPECT_FALSE(FaultPlan::parse("", &err).has_value());
  EXPECT_FALSE(FaultPlan::parse("sat", &err).has_value());
  EXPECT_FALSE(FaultPlan::parse("sat:", &err).has_value());
  EXPECT_FALSE(FaultPlan::parse("sat:x", &err).has_value());
  EXPECT_FALSE(FaultPlan::parse("sat:1x", &err).has_value());
  EXPECT_FALSE(FaultPlan::parse("frob:1", &err).has_value());
  EXPECT_FALSE(FaultPlan::parse("sat:1,,halt:2", &err).has_value());
  EXPECT_FALSE(FaultPlan::parse("sat:1 halt:2", &err).has_value());
}

TEST(FaultInject, HooksFireAtScriptedOrdinals) {
  std::string err;
  auto plan = FaultPlan::parse("sat:2,oracle:1,write:3", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  EXPECT_FALSE(inject_active());
  {
    InjectScope scope(*plan);
    EXPECT_TRUE(inject_active());
    EXPECT_FALSE(inject_sat_failure());  // 1st call: not scripted
    EXPECT_TRUE(inject_sat_failure());   // 2nd call: fails
    EXPECT_FALSE(inject_sat_failure());  // 3rd call: clean again
    EXPECT_TRUE(inject_oracle_timeout());
    EXPECT_FALSE(inject_oracle_timeout());
    EXPECT_FALSE(inject_write_failure());
    EXPECT_FALSE(inject_write_failure());
    EXPECT_TRUE(inject_write_failure());
  }
  EXPECT_FALSE(inject_active());
  // With no plan installed every hook reports "no fault".
  EXPECT_FALSE(inject_sat_failure());
  EXPECT_FALSE(inject_oracle_timeout());
  EXPECT_FALSE(inject_write_failure());
}

TEST(FaultInject, ScopeResetsCounters) {
  std::string err;
  auto plan = FaultPlan::parse("sat:1", &err);
  ASSERT_TRUE(plan.has_value());
  {
    InjectScope scope(*plan);
    EXPECT_TRUE(inject_sat_failure());
    EXPECT_FALSE(inject_sat_failure());
  }
  {
    InjectScope scope(*plan);
    EXPECT_TRUE(inject_sat_failure());  // ordinal counter restarted
  }
}

TEST(FaultInject, InjectedBudgetTripReportsInjected) {
  CancelGuard guard;
  std::string err;
  auto plan = FaultPlan::parse("budget:4", &err);
  ASSERT_TRUE(plan.has_value());
  const RunControls controls(0, 0.0, plan);
  EXPECT_EQ(injected_budget_trip(), 4u);
  charge(4);
  EXPECT_TRUE(should_stop());
  EXPECT_EQ(stop_reason(), StopReason::Injected);
}

TEST(RunControlsTest, StopReasonNamesTheLimitThatBinds) {
  CancelGuard guard;
  std::string err;
  struct Case {
    std::uint64_t budget;
    const char* inject;
    std::uint64_t trips_at;
    StopReason reason;
  };
  for (const Case& c :
       {Case{500, "budget:100000000", 500, StopReason::Budget},
        Case{100000000, "budget:500", 500, StopReason::Injected},
        Case{500, "budget:500", 500, StopReason::Budget},
        Case{0, "budget:7", 7, StopReason::Injected},
        Case{9, "sat:1", 9, StopReason::Budget}}) {
    const RunControls controls(c.budget, 0.0, FaultPlan::parse(c.inject, &err));
    EXPECT_TRUE(controls.active());
    charge(c.trips_at - 1);
    EXPECT_FALSE(should_stop()) << c.inject;
    charge(1);
    EXPECT_EQ(stop_reason(), c.reason) << c.budget << " " << c.inject;
  }
}

TEST(RunControlsTest, InstalledPlanTripsARunWithoutItsOwnPlan) {
  // The serve daemon's --inject: one plan for the process, and each job's
  // controls take its budget:T trip without installing a plan of their own.
  CancelGuard guard;
  std::string err;
  const auto plan = FaultPlan::parse("budget:3", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  InjectScope daemon(*plan);
  for (int job = 0; job < 2; ++job) {
    const RunControls controls(0, 0.0);
    EXPECT_FALSE(controls.active());
    charge(3);
    EXPECT_EQ(stop_reason(), StopReason::Injected);
  }
}

TEST(RunControlsTest, StatusMetaOnlyWhenActiveOrStopped) {
  CancelGuard guard;
  auto meta = [](const RunReport& r) {
    return r.to_json().find("meta")->dump();
  };
  {
    const RunControls quiet(0, 0.0);
    RunReport r("t");
    quiet.write_meta(r, RunStatus::Complete, StopReason::None, true);
    EXPECT_EQ(meta(r), "{}");
    quiet.write_meta(r, RunStatus::Degraded, StopReason::Budget, true);
    EXPECT_EQ(meta(r),
              R"({"status":"degraded","stop_reason":"budget","ticks":0})");
  }
  const RunControls resumed(40, 0.0, std::nullopt, 12);
  EXPECT_EQ(ticks_consumed(), 12u);
  RunReport r("t");
  resumed.write_meta(r, RunStatus::Complete, StopReason::None, false);
  EXPECT_EQ(meta(r), R"({"status":"ok","ticks":12})");
  resumed.write_meta(r, RunStatus::Complete, StopReason::None, true);
  EXPECT_EQ(meta(r), R"({"status":"ok","ticks":12,"budget":40})");
}

TEST(RunControlsTest, ExitCodeOfEachStatus) {
  EXPECT_EQ(exit_code(RunStatus::Complete), kExitOk);
  EXPECT_EQ(exit_code(RunStatus::Degraded), kExitDegraded);
  EXPECT_EQ(exit_code(RunStatus::Interrupted), kExitDeadline);
  EXPECT_EQ(exit_code(RunStatus::Interrupted, StopReason::Signal, 15), 143);
  EXPECT_EQ(exit_code(RunStatus::Interrupted, StopReason::Signal), 130);
  EXPECT_EQ(exit_code(RunStatus::Error), kExitVerifyFailed);
}

TEST(Checkpoint, Fnv1a64KnownValues) {
  // Standard FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_NE(fnv1a64("INPUT(a)"), fnv1a64("INPUT(b)"));
}

/// A checkpoint whose netlist has what only a lossless snapshot keeps: a
/// gate redefined to read a node with a higher id, a dead node, and outputs
/// marked out of id order.
FlowCheckpoint sample_checkpoint() {
  FlowCheckpoint cp;
  cp.circuit = "syn150";
  cp.spec.proc = "combined";
  cp.spec.k = 5;
  cp.spec.weight_paths = 0.25;
  cp.spec.verify = "both";
  cp.spec.budget = 4000;
  cp.ticks = 1234;
  Netlist nl("sample");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(GateType::And, {a, b}, "g");
  const NodeId h = nl.add_gate(GateType::Not, {g}, "h");
  const NodeId x = nl.add_gate(GateType::Xor, {a, b});
  nl.mark_output(h);
  nl.mark_output(x);
  const NodeId y = nl.add_gate(GateType::Or, {a, b}, "y");
  nl.redefine(h, GateType::Nor, {y, b});  // h now reads a later id
  nl.sweep();                             // g dies
  cp.original = nl.compacted();
  cp.netlist = nl;
  cp.stats.gates_before = 4;
  cp.stats.paths_before = 6;
  cp.stats.passes = 2;
  cp.stats.replacements = 1;
  cp.stats.cones_considered = 17;
  cp.stats.comparison_cones = 5;
  cp.stats.history = {{1, 1, 3, 5}, {2, 0, 3, kPathCountSaturated}};
  cp.obs = Json::object();
  cp.obs.set("spans", Json::array());
  cp.obs.set("counters", Json::object());
  cp.obs.set("distributions", Json::array());
  return cp;
}

void expect_same_netlist(const Netlist& a, const Netlist& b) {
  EXPECT_EQ(a.name(), b.name());
  ASSERT_EQ(a.size(), b.size());
  for (NodeId id = 0; id < a.size(); ++id) {
    EXPECT_EQ(a.node(id).type, b.node(id).type) << id;
    EXPECT_EQ(a.node(id).fanins, b.node(id).fanins) << id;
    EXPECT_EQ(a.node(id).name, b.node(id).name) << id;
    EXPECT_EQ(a.node(id).dead, b.node(id).dead) << id;
    EXPECT_EQ(a.node(id).is_output, b.node(id).is_output) << id;
  }
  EXPECT_EQ(a.inputs(), b.inputs());
  EXPECT_EQ(a.outputs(), b.outputs());
  EXPECT_EQ(a.fanouts(), b.fanouts());
  EXPECT_EQ(a.topo_order(), b.topo_order());
}

/// The checkpoint's JSON with `from` replaced by `to` in its state text, the
/// hash recomputed when `rehash` (so only the snapshot checks can object).
Json tampered(const FlowCheckpoint& cp, const std::string& from,
              const std::string& to, bool rehash) {
  const Json j = cp.to_json();
  std::string text = j.find("state")->dump();
  const std::size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  const std::optional<Json> state = Json::parse(text);
  EXPECT_TRUE(state.has_value()) << text;
  Json out = Json::object();
  out.set("format", *j.find("format"));
  out.set("hash", rehash ? fnv1a64(text) : j.find("hash")->as_u64());
  out.set("state", state.value_or(Json()));
  return out;
}

TEST(Checkpoint, JsonRoundTripIsLossless) {
  const FlowCheckpoint cp = sample_checkpoint();
  FlowCheckpoint back;
  std::string err;
  ASSERT_TRUE(back.from_json(cp.to_json(), &err)) << err;
  EXPECT_EQ(back.circuit, cp.circuit);
  EXPECT_TRUE(back.spec == cp.spec);
  EXPECT_EQ(back.ticks, cp.ticks);
  expect_same_netlist(back.original, cp.original);
  expect_same_netlist(back.netlist, cp.netlist);
  EXPECT_EQ(back.stats.gates_before, cp.stats.gates_before);
  EXPECT_EQ(back.stats.paths_before, cp.stats.paths_before);
  EXPECT_EQ(back.stats.passes, cp.stats.passes);
  EXPECT_EQ(back.stats.replacements, cp.stats.replacements);
  EXPECT_EQ(back.stats.cones_considered, cp.stats.cones_considered);
  EXPECT_EQ(back.stats.comparison_cones, cp.stats.comparison_cones);
  ASSERT_EQ(back.stats.history.size(), 2u);
  EXPECT_EQ(back.stats.history[1].paths, kPathCountSaturated);
  EXPECT_EQ(back.obs.dump(), cp.obs.dump());
}

TEST(Checkpoint, RejectsTamperedState) {
  FlowCheckpoint back;
  std::string err;
  EXPECT_FALSE(back.from_json(
      tampered(sample_checkpoint(), "\"y\"", "\"z\"", false), &err));
  EXPECT_NE(err.find("hash"), std::string::npos) << err;
}

TEST(Checkpoint, RejectsSnapshotsThatAreNoNetlist) {
  // Node 5 (y = OR(a, b)) is live; a fanin past the end, or one that closes
  // a cycle through h (node 3, which reads y), is refused even when the
  // hash matches.
  const FlowCheckpoint cp = sample_checkpoint();
  FlowCheckpoint back;
  std::string err;
  EXPECT_FALSE(back.from_json(tampered(cp, "[7,[0,1],\"y\",",
                                       "[7,[0,99],\"y\",", true),
                              &err));
  EXPECT_NE(err.find("out-of-range"), std::string::npos) << err;
  EXPECT_FALSE(back.from_json(tampered(cp, "[7,[0,1],\"y\",",
                                       "[7,[0,3],\"y\",", true),
                              &err));
  EXPECT_NE(err.find("cycle"), std::string::npos) << err;
  // The checkpoint is not loaded: `back` keeps what it had.
  EXPECT_EQ(back.netlist.size(), 0u);
}

TEST(Checkpoint, RejectsWrongFormatAndMissingFields) {
  FlowCheckpoint back;
  std::string err;
  Json j = sample_checkpoint().to_json();
  j.set("format", "compsyn-checkpoint-v1");
  EXPECT_FALSE(back.from_json(j, &err));

  Json empty = Json::object();
  EXPECT_FALSE(back.from_json(empty, &err));
}

TEST(Checkpoint, FileRoundTripAndTruncationDetected) {
  const std::string path = test_temp_path("ckpt_test.json");
  const FlowCheckpoint cp = sample_checkpoint();
  std::string err;
  ASSERT_TRUE(cp.save(path, &err)) << err;

  FlowCheckpoint back;
  ASSERT_TRUE(back.load(path, &err)) << err;
  expect_same_netlist(back.netlist, cp.netlist);

  // Truncate the file: the strict JSON parser must reject it.
  std::ifstream is(path);
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  is.close();
  for (double frac : {0.1, 0.5, 0.9}) {
    std::ofstream os(path, std::ios::trunc);
    os << text.substr(0, static_cast<std::size_t>(text.size() * frac));
    os.close();
    EXPECT_FALSE(back.load(path, &err)) << "fraction " << frac;
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, InjectedWriteFailureIsReported) {
  const std::string path = test_temp_path("ckpt_fail.json");
  std::string perr;
  auto plan = FaultPlan::parse("write:1", &perr);
  ASSERT_TRUE(plan.has_value());
  InjectScope scope(*plan);
  const FlowCheckpoint cp = sample_checkpoint();
  std::string err;
  EXPECT_FALSE(cp.save(path, &err));
  EXPECT_FALSE(err.empty());
  // The second write (ordinal 2) is not scripted and succeeds.
  EXPECT_TRUE(cp.save(path, &err)) << err;
  std::remove(path.c_str());
}

TEST(Guard, ExitCodesForCancellation) {
  CancelGuard guard;
  request_cancel(StopReason::Signal, 2);
  EXPECT_EQ(exit_code_for_cancel(), 130);
  clear_cancel();
  request_cancel(StopReason::Signal, 15);
  EXPECT_EQ(exit_code_for_cancel(), 143);
  clear_cancel();
  request_cancel(StopReason::Deadline);
  EXPECT_EQ(exit_code_for_cancel(), kExitDeadline);
  clear_cancel();
  request_cancel(StopReason::Injected);
  EXPECT_EQ(exit_code_for_cancel(), kExitDegraded);
}

TEST(Guard, ReportPathScan) {
  const char* argv1[] = {"prog", "--report=/tmp/r.json", "syn150"};
  EXPECT_EQ(report_path_from_args(3, const_cast<char**>(argv1)), "/tmp/r.json");
  const char* argv2[] = {"prog", "syn150"};
  EXPECT_EQ(report_path_from_args(2, const_cast<char**>(argv2)), "");
}

TEST(Guard, MapsExceptionsToDocumentedExitCodes) {
  const char* argv[] = {"prog"};
  char** av = const_cast<char**>(argv);
  EXPECT_EQ(guard_main("t", 1, av, [] { return 0; }), 0);
  EXPECT_EQ(guard_main("t", 1, av, [] { return 7; }), 7);
  EXPECT_EQ(guard_main("t", 1, av,
                       []() -> int { throw InputError("bad input"); }),
            kExitInputError);
  EXPECT_EQ(guard_main("t", 1, av,
                       []() -> int { throw std::invalid_argument("bad"); }),
            kExitInputError);
  EXPECT_EQ(guard_main("t", 1, av,
                       []() -> int { throw std::runtime_error("boom"); }),
            kExitInternalError);
  {
    CancelGuard guard;
    EXPECT_EQ(guard_main("t", 1, av,
                         []() -> int {
                           request_cancel(StopReason::Signal, 2);
                           throw CancelledError(StopReason::Signal);
                         }),
              130);
  }
}

TEST(Guard, WritesErrorReportOnFailure) {
  CancelGuard guard;
  const std::string path = test_temp_path("guard_report.json");
  const std::string flag = "--report=" + path;
  const char* argv[] = {"prog", flag.c_str()};
  char** av = const_cast<char**>(argv);
  EXPECT_EQ(guard_main("guard_test", 2, av,
                       []() -> int { throw InputError("no such circuit"); }),
            kExitInputError);
  std::ifstream is(path);
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  std::string jerr;
  auto j = Json::parse(text, &jerr);
  ASSERT_TRUE(j.has_value()) << jerr;
  const Json* meta = j->find("meta");
  ASSERT_NE(meta, nullptr);
  ASSERT_NE(meta->find("status"), nullptr);
  EXPECT_EQ(meta->find("status")->as_string(), "error");
  ASSERT_NE(meta->find("error"), nullptr);
  EXPECT_NE(meta->find("error")->as_string().find("no such circuit"),
            std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace compsyn::robust
