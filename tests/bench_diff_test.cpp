// Drives the bench_diff tool as a subprocess (path injected by CMake): the
// perf-regression gate must stay silent on identical reports, fire on a
// synthetic 2x span slowdown, and enforce counter determinism under
// --strict-counters. This is the in-repo proof that the CI
// perf-smoke job's gate actually trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include <sys/wait.h>

#include "obs/bench_schema.hpp"
#include "obs/json.hpp"
#include "report_mask.hpp"
#include "temp_path.hpp"

#ifndef BENCH_DIFF_PATH
#error "BENCH_DIFF_PATH must be defined by the build"
#endif
#ifndef TABLE_ATPG_PATH
#error "TABLE_ATPG_PATH must be defined by the build"
#endif

namespace compsyn {
namespace {

std::string temp_path(const std::string& leaf) {
  return test_temp_path("bench_diff_" + leaf);
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << text;
  ASSERT_TRUE(os.good()) << path;
}

struct RunResult {
  int exit_code = -1;
  std::string out;
};

RunResult run_diff(const std::string& args) {
  static int serial = 0;
  const std::string out_path = temp_path("out" + std::to_string(serial++));
  const std::string cmd =
      std::string(BENCH_DIFF_PATH) + " " + args + " >" + out_path + " 2>&1";
  const int raw = std::system(cmd.c_str());
  RunResult r;
  r.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  r.out = slurp(out_path);
  std::remove(out_path.c_str());
  return r;
}

/// A small v2-shaped report. `resynth_ns` scales the hot span; `extra`
/// perturbs one counter.
std::string report_json(std::uint64_t resynth_ns, std::uint64_t atpg_calls,
                        bool tagged = true) {
  Json doc = Json::object();
  if (tagged) doc.set("schema", std::string(kBenchSchemaV2));
  doc.set("name", "table2_proc2");
  doc.set("meta", Json::object());
  doc.set("wall_seconds", static_cast<double>(resynth_ns) / 1e9 + 1.0);
  Json spans = Json::array();
  auto span = [](const char* label, std::uint64_t total) {
    Json s = Json::object();
    s.set("label", label);
    s.set("count", std::uint64_t{10});
    s.set("total_ns", total);
    s.set("self_ns", total);
    s.set("min_ns", std::uint64_t{100});
    s.set("max_ns", total);
    return s;
  };
  spans.push(span("resynth", resynth_ns));
  spans.push(span("fsim.block", 50'000'000));
  spans.push(span("tiny", 5'000));  // below --min-ns: never part of a verdict
  doc.set("spans", std::move(spans));
  Json counters = Json::object();
  counters.set("atpg.calls", atpg_calls);
  counters.set("resynth.replacements", std::uint64_t{306});
  doc.set("counters", std::move(counters));
  return doc.dump(2) + "\n";
}

TEST(BenchDiff, IdenticalReportsPass) {
  const std::string a = temp_path("same_a.json");
  const std::string b = temp_path("same_b.json");
  spit(a, report_json(2'000'000'000, 233));
  spit(b, report_json(2'000'000'000, 233));
  const RunResult r = run_diff(a + " " + b);
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("verdict: ok"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("counters identical"), std::string::npos) << r.out;
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(BenchDiff, TwoXSlowdownFailsTheGate) {
  const std::string a = temp_path("slow_a.json");
  const std::string b = temp_path("slow_b.json");
  const std::string v = temp_path("slow_verdict.json");
  spit(a, report_json(2'000'000'000, 233));
  spit(b, report_json(4'000'000'000, 233));  // resynth doubled
  const RunResult r = run_diff("--json=" + v + " " + a + " " + b);
  EXPECT_EQ(r.exit_code, 1) << r.out;
  EXPECT_NE(r.out.find("REGRESSION"), std::string::npos) << r.out;

  std::string err;
  auto verdict = Json::parse(slurp(v), &err);
  ASSERT_TRUE(verdict.has_value()) << err;
  EXPECT_EQ(verdict->find("verdict")->as_string(), "regression");
  const Json* regs = verdict->find("regressions");
  ASSERT_NE(regs, nullptr);
  ASSERT_GE(regs->size(), 1u);
  bool saw_resynth = false;
  for (std::size_t i = 0; i < regs->size(); ++i) {
    if (regs->at(i).find("metric")->as_string() == "span:resynth") {
      saw_resynth = true;
    }
  }
  EXPECT_TRUE(saw_resynth);
  std::remove(a.c_str());
  std::remove(b.c_str());
  std::remove(v.c_str());
}

TEST(BenchDiff, ImprovementIsNotARegression) {
  const std::string a = temp_path("fast_a.json");
  const std::string b = temp_path("fast_b.json");
  spit(a, report_json(4'000'000'000, 233));
  spit(b, report_json(2'000'000'000, 233));
  const RunResult r = run_diff(a + " " + b);
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("improved"), std::string::npos) << r.out;
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(BenchDiff, ToleranceAbsorbsNoise) {
  const std::string a = temp_path("noise_a.json");
  const std::string b = temp_path("noise_b.json");
  spit(a, report_json(2'000'000'000, 233));
  spit(b, report_json(2'100'000'000, 233));  // +5%, under the 10% default
  EXPECT_EQ(run_diff(a + " " + b).exit_code, 0);
  // A tighter tolerance flags the same pair.
  EXPECT_EQ(run_diff("--tolerance=0.02 " + a + " " + b).exit_code, 1);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(BenchDiff, StrictCountersEnforceDeterminism) {
  const std::string a = temp_path("cnt_a.json");
  const std::string b = temp_path("cnt_b.json");
  spit(a, report_json(2'000'000'000, 233));
  spit(b, report_json(2'000'000'000, 234));
  // Counter drift alone is informational by default...
  EXPECT_EQ(run_diff(a + " " + b).exit_code, 0);
  // ...and fatal under --strict-counters, even with times ignored.
  const RunResult r =
      run_diff("--strict-counters --tolerance=1000 " + a + " " + b);
  EXPECT_EQ(r.exit_code, 1) << r.out;
  EXPECT_NE(r.out.find("atpg.calls"), std::string::npos) << r.out;
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(BenchDiff, AcceptsLegacyUntaggedReports) {
  const std::string a = temp_path("legacy_a.json");
  const std::string b = temp_path("legacy_b.json");
  spit(a, report_json(2'000'000'000, 233, /*tagged=*/false));
  spit(b, report_json(2'000'000'000, 233, /*tagged=*/true));
  EXPECT_EQ(run_diff(a + " " + b).exit_code, 0);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(BenchDiff, RejectsGarbageInputs) {
  const std::string a = temp_path("garbage.json");
  const std::string ok = temp_path("ok.json");
  spit(a, "not json");
  spit(ok, report_json(1'000'000'000, 1));
  EXPECT_EQ(run_diff(a + " " + ok).exit_code, 2);
  EXPECT_EQ(run_diff(ok + " " + temp_path("missing.json")).exit_code, 2);
  EXPECT_EQ(run_diff(ok).exit_code, 2);  // usage: needs two positionals
  std::remove(a.c_str());
  std::remove(ok.c_str());
}

TEST(BenchDiff, TrajectoryAppendsOneRecordPerRun) {
  const std::string a = temp_path("traj_a.json");
  const std::string t = temp_path("traj.jsonl");
  std::remove(t.c_str());
  spit(a, report_json(2'000'000'000, 233));
  EXPECT_EQ(run_diff("--trajectory=" + t + " " + a + " " + a).exit_code, 0);
  EXPECT_EQ(run_diff("--trajectory=" + t + " " + a + " " + a).exit_code, 0);
  std::istringstream lines(slurp(t));
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    std::string err;
    auto j = Json::parse(line, &err);
    ASSERT_TRUE(j.has_value()) << line << ": " << err;
    EXPECT_EQ(j->find("schema")->as_string(), "compsyn-bench-trajectory-v1");
    EXPECT_EQ(j->find("name")->as_string(), "table2_proc2");
    ++n;
  }
  EXPECT_EQ(n, 2);
  std::remove(a.c_str());
  std::remove(t.c_str());
}

// Two runs of one bench binary must compare equal once the wall-clock
// fields are masked, or no report diff can tell a change from noise.
// table_atpg records a wall time per run in its "runs" section.
TEST(BenchReports, TableAtpgReportRepeatsAfterMasking) {
  const std::string report = temp_path("table_atpg.json");
  std::string masked[2];
  for (std::string& m : masked) {
    const std::string cmd = std::string(TABLE_ATPG_PATH) + " --report=" + report +
                            " >/dev/null 2>&1";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
    std::string err;
    const std::optional<Json> j = Json::parse(slurp(report), &err);
    ASSERT_TRUE(j.has_value()) << err;
    ASSERT_NE(j->find("runs"), nullptr);
    m = label_ordered_spans(masked_report_dump(*j));
  }
  EXPECT_EQ(masked[0], masked[1]);
  std::remove(report.c_str());
}

}  // namespace
}  // namespace compsyn
