// End-to-end CLI tests of resynth_flow as a subprocess: documented exit
// codes, degraded-run reports, checkpoint/halt/resume byte-identity, signal
// handling, and the saturated path-count formatting at the binary boundary.
// The binary path is injected by CMake as RESYNTH_FLOW_PATH.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/json.hpp"
#include "report_mask.hpp"
#include "robust/robust.hpp"
#include "temp_path.hpp"

namespace compsyn {
namespace {

#ifndef RESYNTH_FLOW_PATH
#error "RESYNTH_FLOW_PATH must be defined by the build"
#endif

std::string temp_path(const std::string& leaf) {
  return test_temp_path("cli_" + leaf);
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
  std::string err;
};

/// Runs the flow binary with `args`, capturing stdout/stderr and the real
/// exit code (std::system + WEXITSTATUS).
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

/// Parses a report file; fails the test on parse errors.
Json parse_report(const std::string& path) {
  std::string err;
  auto j = Json::parse(slurp(path), &err);
  EXPECT_TRUE(j.has_value()) << path << ": " << err;
  return j.has_value() ? *j : Json();
}

const Json* meta_of(const Json& report, const char* key) {
  const Json* meta = report.find("meta");
  return meta == nullptr ? nullptr : meta->find(key);
}

/// A 3-rail XOR ladder whose per-level linear map T = [[1,1,0],[0,1,1],
/// [1,1,1]] over GF(2) is invertible, so the outputs depend on all inputs
/// while the path count grows geometrically: 80 levels push it far past
/// 2^63. Three primary inputs keep exhaustive verification instant.
std::string xor_ladder_bench(unsigned levels) {
  std::ostringstream os;
  os << "INPUT(a0)\nINPUT(b0)\nINPUT(c0)\n";
  os << "OUTPUT(a" << levels << ")\nOUTPUT(b" << levels << ")\nOUTPUT(c"
     << levels << ")\n";
  for (unsigned i = 0; i < levels; ++i) {
    os << "a" << i + 1 << " = XOR(a" << i << ", b" << i << ")\n";
    os << "b" << i + 1 << " = XOR(b" << i << ", c" << i << ")\n";
    os << "c" << i + 1 << " = XOR(a" << i << ", b" << i << ", c" << i << ")\n";
  }
  return os.str();
}

TEST(FlowCli, DefaultRunSucceeds) {
  const RunResult r = run_flow("syn150");
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("function preserved: yes"), std::string::npos) << r.out;
}

TEST(FlowCli, UsageErrorsExit2) {
  EXPECT_EQ(run_flow("").exit_code, 2);
  EXPECT_EQ(run_flow("--verify=maybe syn150").exit_code, 2);
  EXPECT_EQ(run_flow("--inject=frob:1 syn150").exit_code, 2);
  EXPECT_EQ(run_flow("--k=0 syn150").exit_code, 2);
  EXPECT_EQ(run_flow("--k=9 syn150").exit_code, 2);
  EXPECT_EQ(run_flow("--k=4294967302 syn150").exit_code, 2);
  EXPECT_EQ(run_flow("--proc=7 syn150").exit_code, 2);
  EXPECT_EQ(run_flow("--proc= syn150").exit_code, 2);
  // Numeric flags parse whole values or not at all.
  EXPECT_EQ(run_flow("--budget=abc syn150").exit_code, 2);
  EXPECT_EQ(run_flow("--budget=-1 syn150").exit_code, 2);
  EXPECT_EQ(run_flow("--budget= syn150").exit_code, 2);
  EXPECT_EQ(run_flow("--k=5x syn150").exit_code, 2);
  EXPECT_EQ(run_flow("--weight-gates=x --proc=combined syn150").exit_code, 2);
  EXPECT_EQ(run_flow("--deadline=soon syn150").exit_code, 2);
}

TEST(FlowCli, UnknownCircuitExit3WithErrorReport) {
  const std::string report = temp_path("bad_circuit.json");
  const RunResult r =
      run_flow("--report=" + report + " no_such_circuit_anywhere");
  EXPECT_EQ(r.exit_code, 3) << r.err;
  const Json j = parse_report(report);
  ASSERT_NE(meta_of(j, "status"), nullptr);
  EXPECT_EQ(meta_of(j, "status")->as_string(), "error");
  EXPECT_NE(meta_of(j, "error"), nullptr);
  std::remove(report.c_str());
}

TEST(FlowCli, TinyBudgetDegradesWithVerifiedResult) {
  const std::string report = temp_path("degraded.json");
  const RunResult r = run_flow("--budget=1 --report=" + report + " syn150");
  EXPECT_EQ(r.exit_code, 20) << r.err;
  EXPECT_NE(r.out.find("degraded"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("function preserved: yes"), std::string::npos) << r.out;
  const Json j = parse_report(report);
  ASSERT_NE(meta_of(j, "status"), nullptr);
  EXPECT_EQ(meta_of(j, "status")->as_string(), "degraded");
  ASSERT_NE(meta_of(j, "stop_reason"), nullptr);
  EXPECT_EQ(meta_of(j, "stop_reason")->as_string(), "budget");
  ASSERT_NE(meta_of(j, "function_preserved"), nullptr);
  EXPECT_TRUE(meta_of(j, "function_preserved")->as_bool());
  std::remove(report.c_str());
}

TEST(FlowCli, StopReasonNamesTheBindingLimit) {
  // The tighter of --budget and --inject=budget:T stops the run, and the
  // report names that one, whichever else is installed.
  struct Case {
    const char* flags;
    const char* reason;
  };
  for (const Case& c :
       {Case{"--budget=500 --inject=budget:100000000", "budget"},
        Case{"--budget=100000000 --inject=budget:500", "injected"}}) {
    const std::string report = temp_path("binding.json");
    const RunResult r =
        run_flow(std::string(c.flags) + " --report=" + report + " syn150");
    EXPECT_EQ(r.exit_code, 20) << c.flags << ": " << r.err;
    EXPECT_NE(r.out.find(std::string("resynthesis degraded (") + c.reason),
              std::string::npos)
        << c.flags << ": " << r.out;
    const Json j = parse_report(report);
    ASSERT_NE(meta_of(j, "stop_reason"), nullptr) << c.flags;
    EXPECT_EQ(meta_of(j, "stop_reason")->as_string(), c.reason) << c.flags;
    std::remove(report.c_str());
  }
}

/// A run's masked report with the spans in label order (their order is by
/// measured time) and, when `drop_memo`, without the identification memo's
/// counters: the memo is a cache of the process, which a resumed process
/// starts cold.
std::string comparable_report(const std::string& path, bool drop_memo) {
  Json j = parse_report(path);
  if (drop_memo && j.find("counters") != nullptr) {
    Json kept = Json::object();
    for (const auto& [name, value] : j.find("counters")->items()) {
      if (name.rfind("identify.memo.", 0) != 0 &&
          name.rfind("identify.npn.", 0) != 0) {
        kept.set(name, value);
      }
    }
    j.set("counters", std::move(kept));
  }
  return label_ordered_spans(masked_report_dump(j));
}

TEST(FlowCli, HaltResumeReproducesUninterruptedRun) {
  const std::string ck = temp_path("resume.ck.json");
  const std::string out = temp_path("resume.bench");
  const std::string report = temp_path("resume.json");
  // halt:1 fires at the boundary before the first pass (and the budget then
  // trips in pass 1); halt:2 after pass 1, with a budget that never trips.
  for (const auto& [halt, budget] :
       {std::pair{1, "--budget=2000"}, std::pair{2, "--budget=1000000"}}) {
    const std::string flags = std::string(budget) + " --k=5 --out=" + out +
                              " --report=" + report + " ";
    // Reference: the uninterrupted run, with no checkpoint.
    const RunResult ref = run_flow(flags + "syn150");
    EXPECT_TRUE(ref.exit_code == 0 || ref.exit_code == 20) << ref.err;
    const std::string bench_ref = slurp(out);
    const std::string report_ref = comparable_report(report, halt > 1);
    ASSERT_FALSE(bench_ref.empty());
    std::remove(out.c_str());

    // The scripted halt kills the run (exit 137) right after its halt-th
    // checkpoint write...
    const RunResult halted = run_flow(flags + "--checkpoint=" + ck +
                                      " --inject=halt:" + std::to_string(halt) +
                                      " syn150");
    EXPECT_EQ(halted.exit_code, 137) << halted.err;

    // ...and the resume ends where the uninterrupted run did.
    const RunResult resumed = run_flow(flags + "--resume=" + ck + " syn150");
    EXPECT_EQ(resumed.exit_code, ref.exit_code) << resumed.err;
    EXPECT_NE(resumed.out.find("resumed from"), std::string::npos) << resumed.out;
    EXPECT_EQ(slurp(out), bench_ref) << "halt:" << halt;
    EXPECT_EQ(comparable_report(report, halt > 1), report_ref) << "halt:" << halt;
  }
  for (const std::string& p : {ck, out, report}) std::remove(p.c_str());
}

TEST(FlowCli, CheckpointedRunIsTheDefaultRun) {
  const std::string ck = temp_path("same.ck.json");
  const std::string out = temp_path("same.bench");
  const std::string report = temp_path("same.json");
  for (const char* proc : {"2", "3", "combined"}) {
    const std::string flags = std::string("--proc=") + proc + " --out=" + out +
                              " --report=" + report + " ";
    const RunResult plain = run_flow(flags + "syn150");
    ASSERT_EQ(plain.exit_code, 0) << plain.err;
    const std::string bench_plain = slurp(out);
    Json report_plain = parse_report(report);
    const RunResult ckpt = run_flow(flags + "--checkpoint=" + ck + " syn150");
    ASSERT_EQ(ckpt.exit_code, 0) << ckpt.err;
    EXPECT_EQ(ckpt.out, plain.out) << proc;
    EXPECT_EQ(slurp(out), bench_plain) << proc;
    // The reports differ only in the robust meta a robust flag adds.
    Json report_ckpt = parse_report(report);
    Json meta = Json::object();
    for (const auto& [key, value] : report_ckpt.find("meta")->items()) {
      if (key != "status" && key != "ticks") meta.set(key, value);
    }
    report_ckpt.set("meta", std::move(meta));
    EXPECT_EQ(label_ordered_spans(masked_report_dump(report_ckpt)),
              label_ordered_spans(masked_report_dump(report_plain)))
        << proc;
  }
  for (const std::string& p : {ck, out, report}) std::remove(p.c_str());
}

TEST(FlowCli, ResumeFlagMismatchExit3) {
  const std::string ck = temp_path("mismatch.ck.json");
  const RunResult ref =
      run_flow("--budget=2000 --k=5 --checkpoint=" + ck + " syn150");
  EXPECT_TRUE(ref.exit_code == 0 || ref.exit_code == 20) << ref.err;
  // Same checkpoint, different K: the continuation would not match any
  // uninterrupted run, so the flow must refuse.
  const RunResult r = run_flow("--budget=2000 --k=6 --resume=" + ck + " syn150");
  EXPECT_EQ(r.exit_code, 3) << r.err;
  std::remove(ck.c_str());
}

/// The checkpoint `text` with the first fanin of its netlist's first live
/// gate replaced by `fanin` (0xffffffff: the gate itself), re-hashed so that
/// only the snapshot checks can object.
std::string rewired_checkpoint(const std::string& text, std::uint64_t fanin) {
  Json root = *Json::parse(text);
  Json state = *root.find("state");
  Json netlist = *state.find("netlist");
  const Json& nodes = *netlist.find("nodes");  // [type, fanins, name, dead]
  Json rewired = Json::array();
  bool done = false;
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    const Json& rec = nodes.at(id);
    if (done || rec.at(3).as_bool() || rec.at(1).size() == 0) {
      rewired.push(rec);
      continue;
    }
    Json fanins = Json::array();
    fanins.push(fanin == 0xffffffffu ? std::uint64_t{id} : fanin);
    for (std::size_t i = 1; i < rec.at(1).size(); ++i) fanins.push(rec.at(1).at(i));
    Json node = Json::array();
    node.push(rec.at(0));
    node.push(std::move(fanins));
    node.push(rec.at(2));
    node.push(rec.at(3));
    rewired.push(std::move(node));
    done = true;
  }
  netlist.set("nodes", std::move(rewired));
  state.set("netlist", std::move(netlist));
  root.set("hash", robust::fnv1a64(state.dump()));
  root.set("state", std::move(state));
  return root.dump();
}

TEST(FlowCli, CorruptCheckpointExit3) {
  const std::string ck = temp_path("corrupt.ck.json");
  const std::string flags = "--budget=2000 --k=5 --resume=" + ck + " syn150";
  const RunResult ref =
      run_flow("--budget=2000 --k=5 --checkpoint=" + ck + " syn150");
  EXPECT_TRUE(ref.exit_code == 0 || ref.exit_code == 20) << ref.err;
  const std::string text = slurp(ck);
  ASSERT_FALSE(text.empty());
  // The untouched checkpoint resumes.
  EXPECT_EQ(run_flow(flags).exit_code, ref.exit_code);

  // Truncated file: the strict JSON parser rejects it.
  spit(ck, text.substr(0, text.size() / 2));
  EXPECT_EQ(run_flow(flags).exit_code, 3);

  // Valid JSON, edited state: the integrity hash rejects it.
  std::string tampered = text;
  const auto pos = tampered.find("\"ticks\":");
  ASSERT_NE(pos, std::string::npos);
  tampered.insert(pos + 8, "1");
  spit(ck, tampered);
  RunResult r = run_flow(flags);
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_NE(r.err.find("hash"), std::string::npos) << r.err;

  // A matching hash over a node graph that is no netlist: a fanin out of
  // range, or a gate reading itself.
  spit(ck, rewired_checkpoint(text, 1u << 30));
  r = run_flow(flags);
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_NE(r.err.find("out-of-range"), std::string::npos) << r.err;
  spit(ck, rewired_checkpoint(text, 0xffffffffu));
  r = run_flow(flags);
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_NE(r.err.find("cycle"), std::string::npos) << r.err;
  std::remove(ck.c_str());
}

TEST(FlowCli, InjectedCheckpointWriteFailureWarnsAndContinues) {
  const std::string ck = temp_path("wfail.ck.json");
  const RunResult r =
      run_flow("--inject=write:1 --checkpoint=" + ck + " --k=5 syn150");
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.err.find("checkpoint"), std::string::npos) << r.err;
  EXPECT_NE(r.out.find("function preserved: yes"), std::string::npos);
  std::remove(ck.c_str());
}

TEST(FlowCli, SigintInterruptsWithParseableReport) {
  const std::string report = temp_path("sigint.json");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: a long run (about 2 s), stdout/stderr silenced.
    FILE* sink = std::fopen("/dev/null", "w");
    if (sink != nullptr) {
      dup2(fileno(sink), STDOUT_FILENO);
      dup2(fileno(sink), STDERR_FILENO);
    }
    const std::string report_flag = "--report=" + report;
    execl(RESYNTH_FLOW_PATH, RESYNTH_FLOW_PATH, report_flag.c_str(), "--k=7",
          "syn1000", static_cast<char*>(nullptr));
    _exit(99);  // exec failed
  }
  // Give the run time to get going, then interrupt it.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  ASSERT_EQ(kill(pid, SIGINT), 0);
  int raw = 0;
  ASSERT_EQ(waitpid(pid, &raw, 0), pid);
  ASSERT_TRUE(WIFEXITED(raw));
  EXPECT_EQ(WEXITSTATUS(raw), 130);
  const Json j = parse_report(report);
  ASSERT_NE(meta_of(j, "status"), nullptr);
  EXPECT_EQ(meta_of(j, "status")->as_string(), "interrupted");
  std::remove(report.c_str());
}

TEST(FlowCli, DeadlineInterruptsExit21) {
  const RunResult r = run_flow("--deadline=0.05 syn1000");
  EXPECT_EQ(r.exit_code, 21) << r.out << r.err;
}

TEST(FlowCli, WidestKStopsPromptlyAtDeadline) {
  // K = 8 on the largest suite circuit: about 1,000 cones per root, each
  // simulated rather than read from a cut word. The cut database build and
  // the per-cone scoring are both poll points, so the run ends soon after
  // the deadline instead of finishing its pass.
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult r = run_flow("--deadline=0.5 --k=8 syn1500");
  const double ran =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_EQ(r.exit_code, 21) << r.out << r.err;
  EXPECT_LT(ran, 3.0);
}

TEST(FlowCli, InterruptedReportCoversTheWholeRun) {
  // The error report of an interrupted run times the run, not the report:
  // wall_seconds spans at least the deadline and at most the process.
  const std::string report = temp_path("deadline.json");
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult r = run_flow("--deadline=0.3 --k=7 --report=" + report + " syn1000");
  const double ran =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  ASSERT_EQ(r.exit_code, 21) << r.out << r.err;
  const Json j = parse_report(report);
  ASSERT_NE(meta_of(j, "status"), nullptr);
  EXPECT_EQ(meta_of(j, "status")->as_string(), "interrupted");
  const Json* wall = j.find("wall_seconds");
  ASSERT_NE(wall, nullptr);
  EXPECT_GE(wall->as_double(), 0.3);
  EXPECT_LE(wall->as_double(), ran);
  std::remove(report.c_str());
}

TEST(FlowCli, SaturatedPathCountsFormatAtBoundary) {
  const std::string bench = temp_path("ladder.bench");
  const std::string report = temp_path("ladder.json");
  spit(bench, xor_ladder_bench(80));
  const RunResult r =
      run_flow("--budget=1 --report=" + report + " " + bench);
  EXPECT_EQ(r.exit_code, 20) << r.err;
  EXPECT_NE(r.out.find(">=2^63"), std::string::npos) << r.out;
  const Json j = parse_report(report);
  ASSERT_NE(meta_of(j, "paths_before"), nullptr);
  EXPECT_EQ(meta_of(j, "paths_before")->as_string(), ">=2^63");
  std::remove(bench.c_str());
  std::remove(report.c_str());
}

}  // namespace
}  // namespace compsyn
