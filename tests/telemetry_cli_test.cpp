// End-to-end telemetry CLI tests: resynth_flow with --trace-out / --events /
// --progress produces artifacts that pass the in-repo validators, keeps
// every slice of the one-thread flow on one track, and -- critically --
// leaves stdout and the report byte-identical when none of the new flags
// are passed.
//
// In a -DCOMPSYN_TRACE=0 build the flags still work (empty-but-valid trace,
// minimal event log); the instrumentation-content assertions are gated.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "temp_path.hpp"
#include "trace_check.hpp"

#ifndef RESYNTH_FLOW_PATH
#error "RESYNTH_FLOW_PATH must be defined by the build"
#endif

namespace compsyn {
namespace {

std::string temp_path(const std::string& leaf) {
  return test_temp_path("telemetry_cli_" + leaf);
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

struct RunResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

RunResult run_flow(const std::string& args) {
  static int serial = 0;
  const std::string out_path = temp_path("out" + std::to_string(serial));
  const std::string err_path = temp_path("err" + std::to_string(serial));
  ++serial;
  const std::string cmd = std::string(RESYNTH_FLOW_PATH) + " " + args + " >" +
                          out_path + " 2>" + err_path;
  const int raw = std::system(cmd.c_str());
  RunResult r;
  r.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  r.out = slurp(out_path);
  r.err = slurp(err_path);
  std::remove(out_path.c_str());
  std::remove(err_path.c_str());
  return r;
}

TEST(TelemetryCli, TraceOutPassesTheChecker) {
  const std::string trace = temp_path("trace.json");
  const RunResult r = run_flow("--trace-out=" + trace + " syn150");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  const TraceCheckResult c = check_chrome_trace(slurp(trace));
  EXPECT_TRUE(c.ok) << (c.errors.empty() ? "" : c.errors.front());
#if COMPSYN_TRACE
  // Real instrumentation: nested spans and the per-cone X slices, all on
  // the one track of the thread that runs the flow.
  EXPECT_GT(c.span_pairs, 0u);
  EXPECT_EQ(c.thread_tracks, 1u);
#endif
  std::remove(trace.c_str());
}

TEST(TelemetryCli, EventsLogIsSchemaValid) {
  const std::string events = temp_path("events.jsonl");
  const RunResult r = run_flow("--events=" + events + " mux4");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  std::ifstream is(events);
  std::vector<Json> records;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::string perr;
    auto j = Json::parse(line, &perr);
    ASSERT_TRUE(j.has_value()) << line << ": " << perr;
    records.push_back(std::move(*j));
  }
  ASSERT_GE(records.size(), 2u);
  EXPECT_EQ(records.front().find("type")->as_string(), "start");
  EXPECT_EQ(records.front().find("schema")->as_string(), "compsyn-events-v1");
  EXPECT_EQ(records.back().find("type")->as_string(), "finish");
  EXPECT_EQ(records.back().find("status")->as_string(), "ok");
#if COMPSYN_TRACE
  // The flow's top-level phases bracket the run.
  bool saw_phase = false;
  for (const Json& rec : records) {
    if (rec.find("type")->as_string() == "phase") saw_phase = true;
  }
  EXPECT_TRUE(saw_phase);
#endif
  std::remove(events.c_str());
}

TEST(TelemetryCli, ProgressHeartbeatStaysOnStderr) {
  const RunResult with = run_flow("--progress=0.0001 syn150");
  ASSERT_EQ(with.exit_code, 0) << with.err;
#if COMPSYN_TRACE
  EXPECT_NE(with.err.find("[resynth_flow]"), std::string::npos) << with.err;
#endif
  // stdout is identical to a flag-free run either way.
  const RunResult without = run_flow("syn150");
  ASSERT_EQ(without.exit_code, 0) << without.err;
  EXPECT_EQ(with.out, without.out);
}

TEST(TelemetryCli, ExtendedReportSectionsAppearOnlyWithTelemetryFlags) {
  const std::string plain = temp_path("plain.json");
  const std::string extended = temp_path("extended.json");
  const std::string trace = temp_path("sections_trace.json");
  ASSERT_EQ(run_flow("--report=" + plain + " mux4").exit_code, 0);
  ASSERT_EQ(run_flow("--report=" + extended + " --trace-out=" + trace +
                     " mux4")
                .exit_code,
            0);
  std::string err;
  auto p = Json::parse(slurp(plain), &err);
  ASSERT_TRUE(p.has_value()) << err;
  auto e = Json::parse(slurp(extended), &err);
  ASSERT_TRUE(e.has_value()) << err;
  // Plain --report: no new sections, guaranteed byte-compat with earlier
  // releases (the golden tests pin the exact bytes; this pins the reason).
  EXPECT_EQ(p->find("histograms"), nullptr);
  EXPECT_EQ(p->find("phases"), nullptr);
  EXPECT_EQ(p->find("hot_cones"), nullptr);
  EXPECT_EQ(p->find("peak_rss_bytes"), nullptr);
#if COMPSYN_TRACE
  EXPECT_NE(e->find("histograms"), nullptr);
  EXPECT_NE(e->find("phases"), nullptr);
  EXPECT_NE(e->find("hot_cones"), nullptr);
  EXPECT_NE(e->find("peak_rss_bytes"), nullptr);
#endif
  std::remove(plain.c_str());
  std::remove(extended.c_str());
  std::remove(trace.c_str());
}

TEST(TelemetryCli, TraceOutDoesNotChangeDefaultStdout) {
  const std::string trace = temp_path("stdout_trace.json");
  const RunResult plain = run_flow("syn150");
  const RunResult traced = run_flow("--trace-out=" + trace + " syn150");
  ASSERT_EQ(plain.exit_code, 0);
  ASSERT_EQ(traced.exit_code, 0);
  // Telemetry flags never leak into stdout.
  EXPECT_EQ(plain.out, traced.out);
  std::remove(trace.c_str());
}

}  // namespace
}  // namespace compsyn
