// Golden-reference flow tests: resynth_flow runs on committed seed circuits
// (tests/golden/*.bench) and its stdout plus masked --report JSON must match
// the committed expectation files byte for byte. Any behaviour drift in the
// default pipeline -- ordering, counters, substitutions, report layout --
// fails here first, with a diff against a file a human can read.
//
// Regenerating after an INTENDED behaviour change:
//   GOLDEN_REGEN=1 ctest -R golden_flow_test   (or tests/golden/regen.sh)
// then review the diff of tests/golden/ and commit it with the change.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "report_mask.hpp"
#include "temp_path.hpp"

namespace compsyn {
namespace {

#ifndef RESYNTH_FLOW_PATH
#error "RESYNTH_FLOW_PATH must be defined by the build"
#endif
#ifndef GOLDEN_DIR
#error "GOLDEN_DIR must be defined by the build"
#endif

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

bool regen_mode() { return std::getenv("GOLDEN_REGEN") != nullptr; }

struct RunResult {
  int exit_code = -1;
  std::string out;
};

/// Runs the flow from inside GOLDEN_DIR (so the circuit argument -- and with
/// it the report's "circuit" meta field -- is a stable relative path).
RunResult run_flow(const std::string& args) {
  static int serial = 0;
  const std::string out_path =
      test_temp_path("golden_out" + std::to_string(serial++));
  const std::string cmd = "cd " + std::string(GOLDEN_DIR) + " && " +
                          RESYNTH_FLOW_PATH + " " + args + " >" + out_path +
                          " 2>&1";
  const int raw = std::system(cmd.c_str());
  RunResult r;
  r.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  r.out = slurp(out_path);
  std::remove(out_path.c_str());
  return r;
}

/// One golden case: flow flags on a committed circuit, stdout and masked
/// report compared against (or regenerated into) tests/golden/<case>.*.
void check_case(const std::string& name, const std::string& flags,
                const std::string& circuit) {
  const std::string report_path = test_temp_path(name + ".json");
  const RunResult r =
      run_flow(flags + " --report=" + report_path + " " + circuit);
  ASSERT_EQ(r.exit_code, 0) << r.out;

  std::string err;
  const auto parsed = Json::parse(slurp(report_path), &err);
  std::remove(report_path.c_str());
  ASSERT_TRUE(parsed.has_value()) << err;
  const std::string masked = masked_report_dump(*parsed) + "\n";

  const std::string golden = std::string(GOLDEN_DIR) + "/" + name;
  if (regen_mode()) {
    spit(golden + ".stdout.txt", r.out);
    spit(golden + ".report.masked", masked);
    std::cout << "regenerated " << golden << ".{stdout.txt,report.masked}\n";
    return;
  }
  EXPECT_EQ(r.out, slurp(golden + ".stdout.txt"))
      << "stdout drift for " << name
      << " -- if intended, regenerate with GOLDEN_REGEN=1 and commit";
#if COMPSYN_TRACE
  // The committed reports are recorded by a tracing build; a trace-off build
  // compiles the counter/span surface out, so only stdout is pinned there.
  // Both sides go through label_ordered_spans: the report emits spans in
  // measured-total-time order, which machine load can flip for spans with
  // near-equal totals (the committed bytes are untouched, only the compare
  // is order-insensitive).
  EXPECT_EQ(label_ordered_spans(masked),
            label_ordered_spans(slurp(golden + ".report.masked")))
      << "report drift for " << name
      << " -- if intended, regenerate with GOLDEN_REGEN=1 and commit";
#else
  (void)masked;
#endif
}

TEST(GoldenFlow, Procedure2OnGoldenA) {
  check_case("golden_a.proc2", "--proc=2", "golden_a.bench");
}

TEST(GoldenFlow, Procedure3OnGoldenB) {
  check_case("golden_b.proc3", "--proc=3", "golden_b.bench");
}

}  // namespace
}  // namespace compsyn
