// End-to-end tests of the resynth_serve daemon and resynth_client, driven
// as subprocesses (binary paths injected by CMake).
//
// The load-bearing property is the determinism contract (DESIGN.md §13.2):
// every artifact a job returns -- resynthesized .bench, run report, stdout
// -- is byte-identical to a fresh one-shot `resynth_flow` run with the same
// flags (reports compared after masking only the wall-clock fields), at
// client concurrency 1 and 4, cache cold and hot. On top of that: protocol
// robustness (truncated frames, oversized prefixes, malformed payloads,
// mid-job disconnects never kill the daemon), the SIGTERM drain (exit 143,
// queued jobs answered, socket unlinked), and the stdio transport.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/un.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "report_mask.hpp"
#include "serve/protocol.hpp"
#include "temp_path.hpp"

namespace compsyn::serve {
namespace {

#ifndef RESYNTH_SERVE_PATH
#error "RESYNTH_SERVE_PATH must be defined by the build"
#endif
#ifndef RESYNTH_CLIENT_PATH
#error "RESYNTH_CLIENT_PATH must be defined by the build"
#endif
#ifndef RESYNTH_FLOW_PATH
#error "RESYNTH_FLOW_PATH must be defined by the build"
#endif

std::string temp_path(const std::string& leaf) {
  return test_temp_path("serve_" + leaf);
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

bool path_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

bool wait_for(const std::function<bool()>& pred, int timeout_ms) {
  for (int waited = 0; waited < timeout_ms; waited += 20) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return pred();
}

/// Runs a foreground command, returning its exit code with stdout/stderr
/// captured to strings.
struct RunResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

RunResult run_cmd(const std::string& cmd_line) {
  static int serial = 0;
  const std::string out_path = temp_path("cmd_out" + std::to_string(serial));
  const std::string err_path = temp_path("cmd_err" + std::to_string(serial));
  ++serial;
  const std::string cmd = cmd_line + " >" + out_path + " 2>" + err_path;
  const int raw = std::system(cmd.c_str());
  RunResult r;
  r.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  r.out = slurp(out_path);
  r.err = slurp(err_path);
  std::remove(out_path.c_str());
  std::remove(err_path.c_str());
  return r;
}

/// A resynth_serve daemon as a background subprocess. The shell wrapper
/// records the daemon's pid and, after it exits, its real exit code.
struct Daemon {
  std::string tag;
  std::string socket_path;
  std::string events_path;
  std::string pid_path;
  std::string rc_path;
  std::string err_path;
  pid_t pid = -1;

  explicit Daemon(const std::string& t) : tag(t) {
    socket_path = temp_path(tag + ".sock");
    events_path = temp_path(tag + ".events.jsonl");
    pid_path = temp_path(tag + ".pid");
    rc_path = temp_path(tag + ".rc");
    err_path = temp_path(tag + ".err");
    std::remove(socket_path.c_str());
    std::remove(pid_path.c_str());
    std::remove(rc_path.c_str());
  }

  void start(const std::string& extra_flags = "") {
    const std::string cmd = "( " + std::string(RESYNTH_SERVE_PATH) +
                            " --socket=" + socket_path +
                            " --events=" + events_path + " " + extra_flags +
                            " 2>" + err_path + " & echo $! > " + pid_path +
                            "; wait $!; echo $? > " + rc_path + " ) &";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
    ASSERT_TRUE(wait_for([&] { return path_exists(socket_path); }, 10000))
        << "daemon did not come up; stderr: " << slurp(err_path);
    ASSERT_TRUE(wait_for([&] { return !slurp(pid_path).empty(); }, 5000));
    pid = static_cast<pid_t>(std::stol(slurp(pid_path)));
  }

  /// Blocks until the shell wrapper records the daemon's exit code.
  int wait_exit(int timeout_ms = 60000) {
    if (!wait_for([&] { return !slurp(rc_path).empty(); }, timeout_ms)) {
      return -1;
    }
    return std::stoi(slurp(rc_path));
  }
};

/// A raw protocol connection to a daemon socket.
struct Conn {
  int fd = -1;
  ~Conn() { close(); }
  void close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  bool connect(const std::string& path) {
    sockaddr_un addr{};
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return false;
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    return ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }
  bool send(const Json& msg) {
    std::string err;
    return write_message(fd, msg, &err);
  }
  /// Reads one frame and parses it; nullopt on EOF/error.
  std::optional<Json> recv(std::string* status_text = nullptr) {
    std::string payload, err;
    const FrameStatus st = read_frame(fd, &payload, &err);
    if (st != FrameStatus::Ok) {
      if (status_text != nullptr) {
        *status_text = "frame status " + std::to_string(static_cast<int>(st)) +
                       ": " + err;
      }
      return std::nullopt;
    }
    return Json::parse(payload, status_text);
  }
};

/// The "long job" of the timing-sensitive tests. It must outlast every
/// fixed wait below -- the 0.5 s watchdog and the 300 ms settle sleeps --
/// by at least 2x: syn1000 at k=7 runs about 2.1 s (Release build, 4-core
/// x86 host; syn1500 at k=6 dropped to 0.6 s once the cut database replaced
/// per-root cone growth). Re-measure it when the flow gets faster.
constexpr const char* kLongCircuit = "syn1000";
constexpr unsigned kLongK = 7;

Json job_message(const std::string& id, const std::string& circuit,
                 unsigned k = 5, const std::string& proc = "2") {
  JobSpec spec;
  spec.id = id;
  spec.circuit = circuit;
  spec.proc = proc;
  spec.k = k;
  return spec.to_json();
}

std::string field(const Json& j, const char* key) {
  const Json* f = j.find(key);
  return f != nullptr && f->type() == Json::Type::String ? f->as_string() : "";
}

/// One-shot resynth_flow artifacts for a (circuit, proc, k) triple: bench
/// bytes, report JSON, and stdout with the nondeterministic-path "wrote "
/// line removed (the daemon has no --out flag, so its captured stdout ends
/// at the verification verdict).
struct OneShot {
  std::string bench;
  Json report;
  std::string stdout_text;
};

/// `text` without the "wrote <path>" lines --out appends.
std::string without_wrote_lines(const std::string& text) {
  std::istringstream is(text);
  std::ostringstream kept;
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("wrote ", 0) != 0) kept << line << "\n";
  }
  return kept.str();
}

/// One-shot artifacts of `resynth_flow <flags> <circuit>`, which must exit
/// with `exit_code`.
OneShot one_shot_flags(const std::string& flags, const std::string& circuit,
                       int exit_code = 0) {
  static int serial = 0;
  const std::string bench_path = temp_path("os" + std::to_string(serial) +
                                           ".bench");
  const std::string report_path = temp_path("os" + std::to_string(serial) +
                                            ".json");
  ++serial;
  const RunResult r = run_cmd(std::string(RESYNTH_FLOW_PATH) + " " + flags +
                              " --out=" + bench_path + " --report=" +
                              report_path + " " + circuit);
  EXPECT_EQ(r.exit_code, exit_code) << flags << ": " << r.err;
  OneShot os;
  os.bench = slurp(bench_path);
  std::string err;
  const std::optional<Json> rep = Json::parse(slurp(report_path), &err);
  EXPECT_TRUE(rep.has_value()) << err;
  if (rep.has_value()) os.report = *rep;
  os.stdout_text = without_wrote_lines(r.out);
  std::remove(bench_path.c_str());
  std::remove(report_path.c_str());
  return os;
}

OneShot one_shot(const std::string& circuit, unsigned k,
                 const std::string& proc = "2") {
  return one_shot_flags("--proc=" + proc + " --k=" + std::to_string(k),
                        circuit);
}

/// Asserts a daemon-produced (bench, report, stdout) triple is
/// byte-identical to the one-shot run (report masked for wall-clock only).
void expect_matches_one_shot(const OneShot& expect, const std::string& bench,
                             const Json& report, const std::string& stdout_text,
                             const std::string& what) {
  EXPECT_EQ(bench, expect.bench) << what << ": .bench differs";
  EXPECT_EQ(stdout_text, expect.stdout_text) << what << ": stdout differs";
  EXPECT_EQ(label_ordered_spans(masked_report_dump(report)),
            label_ordered_spans(masked_report_dump(expect.report)))
      << what << ": masked report differs";
}

TEST(ServeE2e, PingStatsShutdownLifecycle) {
  Daemon d("lifecycle");
  d.start();
  Conn c;
  ASSERT_TRUE(c.connect(d.socket_path));
  Json ping = Json::object();
  ping.set("type", "ping");
  ASSERT_TRUE(c.send(ping));
  std::optional<Json> reply = c.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(field(*reply, "type"), "pong");
  EXPECT_EQ(field(*reply, "schema"), kServeSchema);

  Json stats = Json::object();
  stats.set("type", "stats");
  ASSERT_TRUE(c.send(stats));
  reply = c.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(field(*reply, "type"), "stats");
  ASSERT_NE(reply->find("jobs_received"), nullptr);
  EXPECT_EQ(reply->find("jobs_received")->as_u64(), 0u);

  Json bye = Json::object();
  bye.set("type", "shutdown");
  ASSERT_TRUE(c.send(bye));
  reply = c.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(field(*reply, "type"), "bye");
  EXPECT_EQ(d.wait_exit(), 0);
  EXPECT_FALSE(path_exists(d.socket_path)) << "socket file not unlinked";
  // Event log closed with a clean finish record.
  const std::string events = slurp(d.events_path);
  EXPECT_NE(events.find("\"type\":\"finish\""), std::string::npos);
  EXPECT_NE(events.find("\"status\":\"ok\""), std::string::npos);
}

TEST(ServeE2e, DeterminismAcrossConcurrencyAndCacheState) {
  const std::vector<std::string> circuits = {"c17", "s27", "add8"};
  const unsigned k = 5;

  Daemon d("determinism");
  d.start();

  // Manifest: the three circuits; replayed twice so round 0 is cache-cold
  // and round 1 is cache-hot, at client concurrency 4.
  Json jobs = Json::array();
  for (const std::string& c : circuits) {
    Json j = Json::object();
    j.set("id", c);
    j.set("circuit", c);
    j.set("proc", "2");
    j.set("k", std::uint64_t{k});
    jobs.push(std::move(j));
  }
  Json manifest = Json::object();
  manifest.set("jobs", std::move(jobs));
  const std::string manifest_path = temp_path("det_manifest.json");
  spit(manifest_path, manifest.dump(2));

  const std::string dir4 = temp_path("det_out4");
  const std::string dir1 = temp_path("det_out1");
  ASSERT_EQ(std::system(("mkdir -p " + dir4 + " " + dir1).c_str()), 0);

  RunResult replay = run_cmd(std::string(RESYNTH_CLIENT_PATH) + " --socket=" +
                             d.socket_path + " --manifest=" + manifest_path +
                             " --concurrency=4 --rounds=2 --out-dir=" + dir4);
  EXPECT_EQ(replay.exit_code, 0) << replay.err;
  EXPECT_NE(replay.out.find("replayed 6 job(s)"), std::string::npos)
      << replay.out;

  // Concurrency 1 against the now-hot cache.
  replay = run_cmd(std::string(RESYNTH_CLIENT_PATH) + " --socket=" +
                   d.socket_path + " --manifest=" + manifest_path +
                   " --concurrency=1 --out-dir=" + dir1);
  EXPECT_EQ(replay.exit_code, 0) << replay.err;

  for (const std::string& c : circuits) {
    const OneShot expect = one_shot(c, k);
    for (const std::string& base :
         {dir4 + "/" + c + ".r0", dir4 + "/" + c + ".r1", dir1 + "/" + c}) {
      std::string err;
      const std::optional<Json> rep =
          Json::parse(slurp(base + ".report.json"), &err);
      ASSERT_TRUE(rep.has_value()) << base << ": " << err;
      expect_matches_one_shot(expect, slurp(base + ".bench"), *rep,
                              slurp(base + ".stdout.txt"), base);
    }
  }

  // Round 1 and the concurrency-1 replay must all have been cache hits.
  Conn c;
  ASSERT_TRUE(c.connect(d.socket_path));
  Json stats = Json::object();
  stats.set("type", "stats");
  ASSERT_TRUE(c.send(stats));
  const std::optional<Json> reply = c.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->find("jobs_executed")->as_u64(), circuits.size());
  EXPECT_EQ(reply->find("cache_hits")->as_u64(), 2 * circuits.size());

  Json bye = Json::object();
  bye.set("type", "shutdown");
  ASSERT_TRUE(c.send(bye));
  c.recv();
  EXPECT_EQ(d.wait_exit(), 0);
}

TEST(ServeE2e, SingleJobClientMatchesOneShot) {
  Daemon d("single");
  d.start();
  const std::string bench_path = temp_path("single.bench");
  const std::string report_path = temp_path("single.json");
  const RunResult r = run_cmd(std::string(RESYNTH_CLIENT_PATH) + " --socket=" +
                              d.socket_path + " --proc=2 --k=5 --out=" +
                              bench_path + " --report=" + report_path +
                              " mux4");
  EXPECT_EQ(r.exit_code, 0) << r.err;
  const OneShot expect = one_shot("mux4", 5);
  EXPECT_EQ(slurp(bench_path), expect.bench);
  // The client's stdout = daemon stdout + its own "wrote" line; strip it
  // the same way one_shot strips the flow's.
  std::istringstream is(r.out);
  std::ostringstream kept;
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("wrote ", 0) != 0) kept << line << "\n";
  }
  EXPECT_EQ(kept.str(), expect.stdout_text);
  // Report files must be byte-identical after masking -- the client
  // replicates RunReport::write's formatting exactly.
  std::string err;
  const std::optional<Json> rep = Json::parse(slurp(report_path), &err);
  ASSERT_TRUE(rep.has_value()) << err;
  EXPECT_EQ(label_ordered_spans(masked_report_dump(*rep)),
            label_ordered_spans(masked_report_dump(expect.report)));

  run_cmd(std::string(RESYNTH_CLIENT_PATH) + " --socket=" + d.socket_path +
          " --shutdown");
  EXPECT_EQ(d.wait_exit(), 0);
}

TEST(ServeE2e, FlowOptionsMatchOneShot) {
  // Jobs beyond (circuit, proc, k), each submitted through the client's own
  // flag parsing: the combined objective with non-default weights, a budget
  // that trips and one that does not (the status/ticks/budget meta), a
  // budget of 0 (no limit, but the status/ticks meta), and a SAT-proven
  // verdict.
  struct Case {
    const char* flags;
    int exit_code;
  };
  const Case cases[] = {
      {"--proc=combined --weight-gates=0.5 --weight-paths=2 --k=5", 0},
      {"--budget=2000 --k=5", 20},
      {"--budget=1000000 --k=5", 0},
      {"--budget=0 --k=5", 0},
      {"--verify=sat --k=5", 0},
  };
  Daemon d("options");
  d.start();
  for (const Case& c : cases) {
    const std::string bench_path = temp_path("options.bench");
    const std::string report_path = temp_path("options.json");
    const RunResult r = run_cmd(std::string(RESYNTH_CLIENT_PATH) +
                                " --socket=" + d.socket_path + " " + c.flags +
                                " --out=" + bench_path + " --report=" +
                                report_path + " syn150");
    EXPECT_EQ(r.exit_code, c.exit_code) << c.flags << ": " << r.err;
    const OneShot expect = one_shot_flags(c.flags, "syn150", c.exit_code);
    std::string err;
    const std::optional<Json> rep = Json::parse(slurp(report_path), &err);
    ASSERT_TRUE(rep.has_value()) << c.flags << ": " << err;
    expect_matches_one_shot(expect, slurp(bench_path), *rep,
                            without_wrote_lines(r.out), c.flags);
  }
  run_cmd(std::string(RESYNTH_CLIENT_PATH) + " --socket=" + d.socket_path +
          " --shutdown");
  EXPECT_EQ(d.wait_exit(), 0);
}

TEST(ServeE2e, DaemonInjectedBudgetTripMatchesOneShot) {
  // The daemon's --inject=budget:T trips every job it runs, as the same
  // flag trips a one-shot run: the same stdout, .bench and status meta.
  // Such a result is the daemon's, not the job spec's, so it is never
  // cached: the second job runs again, and each run marks its own trip.
  Daemon d("injected_budget");
  d.start("--inject=budget:500");
  const OneShot expect =
      one_shot_flags("--inject=budget:500", "syn150", /*exit_code=*/20);
  for (int round = 0; round < 2; ++round) {
    const std::string bench_path = temp_path("injected_budget.bench");
    const std::string report_path = temp_path("injected_budget.json");
    const RunResult r = run_cmd(std::string(RESYNTH_CLIENT_PATH) +
                                " --socket=" + d.socket_path + " --out=" +
                                bench_path + " --report=" + report_path +
                                " syn150");
    EXPECT_EQ(r.exit_code, 20) << "round " << round << ": " << r.err;
    std::string err;
    const std::optional<Json> rep = Json::parse(slurp(report_path), &err);
    ASSERT_TRUE(rep.has_value()) << err;
    expect_matches_one_shot(expect, slurp(bench_path), *rep,
                            without_wrote_lines(r.out),
                            "round " + std::to_string(round));
  }
  const RunResult stats = run_cmd(std::string(RESYNTH_CLIENT_PATH) +
                                  " --socket=" + d.socket_path + " --stats");
  const std::optional<Json> counters = Json::parse(stats.out);
  ASSERT_TRUE(counters.has_value()) << stats.out;
  EXPECT_EQ(counters->find("jobs_executed")->as_u64(), 2u);
  EXPECT_EQ(counters->find("cache_hits")->as_u64(), 0u);
  run_cmd(std::string(RESYNTH_CLIENT_PATH) + " --socket=" + d.socket_path +
          " --shutdown");
  EXPECT_EQ(d.wait_exit(), 0);
#if COMPSYN_TRACE  // a trace-off build compiles the milestones out
  std::size_t milestones = 0;
  std::istringstream events(slurp(d.events_path));
  std::string line;
  while (std::getline(events, line)) {
    const std::optional<Json> ev = Json::parse(line);
    if (ev && field(*ev, "what") == "budget.exhausted") ++milestones;
  }
  EXPECT_EQ(milestones, 2u);
#endif
}

TEST(ServeE2e, ClientRejectsBadFlowFlagsBeforeConnecting) {
  // Nothing listens on this socket: a flag error must exit 2 before any
  // connection is tried, where a well-formed job fails to connect (exit 3).
  const std::string socket_path = temp_path("nobody.sock");
  std::remove(socket_path.c_str());
  const std::string client =
      std::string(RESYNTH_CLIENT_PATH) + " --socket=" + socket_path + " ";
  for (const char* flags :
       {"--k=4294967302", "--k=0", "--k=9", "--proc=7", "--verify=maybe"}) {
    const RunResult r = run_cmd(client + flags + " c17");
    EXPECT_EQ(r.exit_code, 2) << flags << ": " << r.err;
  }
  EXPECT_EQ(run_cmd(client + "c17").exit_code, 3);
}

TEST(ServeE2e, MalformedBenchYieldsPerJobErrorAndDaemonSurvives) {
  Daemon d("malformed");
  d.start();
  Conn c;
  ASSERT_TRUE(c.connect(d.socket_path));

  JobSpec bad;
  bad.id = "bad1";
  bad.circuit = "garbage.bench";
  bad.bench = "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n";
  ASSERT_TRUE(c.send(bad.to_json()));
  std::optional<Json> reply = c.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(field(*reply, "type"), "result");
  EXPECT_EQ(field(*reply, "id"), "bad1");
  EXPECT_EQ(field(*reply, "status"), "error");
  EXPECT_FALSE(field(*reply, "error").empty());
  // The error report carries the guard-shaped status/error meta.
  const Json* rep = reply->find("report");
  ASSERT_NE(rep, nullptr);
  ASSERT_NE(rep->find("meta"), nullptr);
  EXPECT_EQ(field(*rep->find("meta"), "status"), "error");

  // Unknown circuit name: also a per-job error.
  ASSERT_TRUE(c.send(job_message("bad2", "no_such_circuit")));
  reply = c.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(field(*reply, "status"), "error");

  // The same connection still serves valid work.
  ASSERT_TRUE(c.send(job_message("good", "c17")));
  reply = c.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(field(*reply, "status"), "ok");
  EXPECT_FALSE(field(*reply, "bench").empty());

  Json bye = Json::object();
  bye.set("type", "shutdown");
  ASSERT_TRUE(c.send(bye));
  c.recv();
  EXPECT_EQ(d.wait_exit(), 0);
}

TEST(ServeE2e, ProtocolErrorsDropTheConnectionNotTheDaemon) {
  Daemon d("protocol");
  d.start();

  {
    // Oversized length prefix: error reply, then the connection is dropped.
    Conn c;
    ASSERT_TRUE(c.connect(d.socket_path));
    const char huge[4] = {'\x7f', '\xff', '\xff', '\xff'};
    ASSERT_EQ(::write(c.fd, huge, 4), 4);
    std::optional<Json> reply = c.recv();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(field(*reply, "type"), "error");
    EXPECT_NE(field(*reply, "error").find("exceeds"), std::string::npos);
    EXPECT_FALSE(c.recv().has_value()) << "connection should be closed";
  }
  {
    // Truncated frame: announce 64 bytes, send 8, half-close.
    Conn c;
    ASSERT_TRUE(c.connect(d.socket_path));
    const char head[4] = {0, 0, 0, 64};
    ASSERT_EQ(::write(c.fd, head, 4), 4);
    ASSERT_EQ(::write(c.fd, "partial!", 8), 8);
    ASSERT_EQ(::shutdown(c.fd, SHUT_WR), 0);
    std::optional<Json> reply = c.recv();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(field(*reply, "type"), "error");
    EXPECT_NE(field(*reply, "error").find("ended inside"), std::string::npos);
  }
  {
    // Malformed JSON payload: recoverable -- same connection keeps working.
    Conn c;
    ASSERT_TRUE(c.connect(d.socket_path));
    std::string err;
    ASSERT_TRUE(write_frame(c.fd, "this is not json", &err));
    std::optional<Json> reply = c.recv();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(field(*reply, "type"), "error");
    Json ping = Json::object();
    ping.set("type", "ping");
    ASSERT_TRUE(c.send(ping));
    reply = c.recv();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(field(*reply, "type"), "pong");
  }
  // After all that abuse the daemon still executes jobs.
  Conn c;
  ASSERT_TRUE(c.connect(d.socket_path));
  ASSERT_TRUE(c.send(job_message("after", "c17")));
  const std::optional<Json> reply = c.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(field(*reply, "status"), "ok");

  Json bye = Json::object();
  bye.set("type", "shutdown");
  ASSERT_TRUE(c.send(bye));
  c.recv();
  EXPECT_EQ(d.wait_exit(), 0);
}

TEST(ServeE2e, MidJobClientDisconnectIsAPerJobFailure) {
  Daemon d("disconnect");
  d.start();
  {
    Conn doomed;
    ASSERT_TRUE(doomed.connect(d.socket_path));
    ASSERT_TRUE(doomed.send(job_message("gone", "add8")));
    doomed.close();  // vanish before the result can be written
  }
  Conn c;
  ASSERT_TRUE(c.connect(d.socket_path));
  ASSERT_TRUE(c.send(job_message("alive", "add8")));
  const std::optional<Json> reply = c.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(field(*reply, "status"), "ok");

  Json bye = Json::object();
  bye.set("type", "shutdown");
  ASSERT_TRUE(c.send(bye));
  c.recv();
  EXPECT_EQ(d.wait_exit(), 0);
}

TEST(ServeE2e, SigtermDrainsWithExit143AndUnlinkedSocket) {
  Daemon d("sigterm");
  d.start();
  Conn c;
  ASSERT_TRUE(c.connect(d.socket_path));
  // One long job in flight plus queued work behind it.
  ASSERT_TRUE(c.send(job_message("long", kLongCircuit, kLongK)));
  ASSERT_TRUE(c.send(job_message("q1", "add8")));
  ASSERT_TRUE(c.send(job_message("q2", "mux4")));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_EQ(::kill(d.pid, SIGTERM), 0);

  // Every submitted job is answered -- the in-flight one after winding down
  // at a poll point, the queued ones without running.
  std::vector<Json> results;
  for (int i = 0; i < 3; ++i) {
    std::optional<Json> reply = c.recv();
    if (!reply.has_value()) break;
    results.push_back(*reply);
  }
  ASSERT_EQ(results.size(), 3u) << "jobs went unanswered during the drain";
  int interrupted = 0;
  for (const Json& r : results) {
    EXPECT_EQ(field(r, "type"), "result");
    if (field(r, "status") == "interrupted") ++interrupted;
  }
  // The queued jobs (at least) must be interrupted; the in-flight one may
  // have finished before the signal landed on a fast machine.
  EXPECT_GE(interrupted, 2) << "queued jobs were not drained as interrupted";
  EXPECT_EQ(d.wait_exit(), 143);
  EXPECT_FALSE(path_exists(d.socket_path)) << "socket file not unlinked";
  const std::string events = slurp(d.events_path);
  EXPECT_NE(events.find("\"status\":\"interrupted\""), std::string::npos);
}

TEST(ServeE2e, LanesFourProducesByteIdenticalArtifactsToLanesOne) {
  // Cache off so every job actually executes on a lane; at --lanes=4 four
  // jobs run concurrently, each on a private slot/domain, and every
  // artifact must still match the one-shot flow byte for byte.
  const std::vector<std::string> circuits = {"c17", "s27", "add8", "mux4"};
  const unsigned k = 5;

  Json jobs = Json::array();
  for (const std::string& c : circuits) {
    Json j = Json::object();
    j.set("id", c);
    j.set("circuit", c);
    j.set("proc", "2");
    j.set("k", std::uint64_t{k});
    jobs.push(std::move(j));
  }
  Json manifest = Json::object();
  manifest.set("jobs", std::move(jobs));
  const std::string manifest_path = temp_path("lanes_manifest.json");
  spit(manifest_path, manifest.dump(2));

  for (const std::string lanes : {"1", "4"}) {
    Daemon d("lanes" + lanes);
    d.start("--lanes=" + lanes + " --cache-mb=0");
    const std::string dir = temp_path("lanes" + lanes + "_out");
    ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
    const RunResult replay = run_cmd(
        std::string(RESYNTH_CLIENT_PATH) + " --socket=" + d.socket_path +
        " --manifest=" + manifest_path + " --concurrency=4 --out-dir=" + dir);
    EXPECT_EQ(replay.exit_code, 0) << replay.err;
    for (const std::string& c : circuits) {
      const OneShot expect = one_shot(c, k);
      const std::string base = dir + "/" + c;
      std::string err;
      const std::optional<Json> rep =
          Json::parse(slurp(base + ".report.json"), &err);
      ASSERT_TRUE(rep.has_value()) << base << ": " << err;
      expect_matches_one_shot(expect, slurp(base + ".bench"), *rep,
                              slurp(base + ".stdout.txt"),
                              "lanes=" + lanes + " " + base);
    }
    run_cmd(std::string(RESYNTH_CLIENT_PATH) + " --socket=" + d.socket_path +
            " --shutdown");
    EXPECT_EQ(d.wait_exit(), 0);
  }
}

TEST(ServeE2e, SigkillRestartServesByteIdenticalAnswersFromTheWal) {
  const std::string wal_path = temp_path("recovery.wal");
  std::remove(wal_path.c_str());
  const unsigned k = 5;

  // Phase 1: run two jobs to completion, then put a third in flight and
  // SIGKILL the daemon mid-execution.
  Daemon d1("wal1");
  d1.start("--wal=" + wal_path);
  for (const std::string c : {"c17", "add8"}) {
    const RunResult r =
        run_cmd(std::string(RESYNTH_CLIENT_PATH) + " --socket=" +
                d1.socket_path + " --proc=2 --k=" + std::to_string(k) +
                " --id=" + c + " " + c);
    ASSERT_EQ(r.exit_code, 0) << r.err;
  }
  {
    Conn c;
    ASSERT_TRUE(c.connect(d1.socket_path));
    ASSERT_TRUE(c.send(job_message("inflight", kLongCircuit, kLongK)));
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  }
  ASSERT_EQ(::kill(d1.pid, SIGKILL), 0);
  ASSERT_EQ(d1.wait_exit(), 137);       // 128 + SIGKILL
  std::remove(d1.socket_path.c_str());  // SIGKILL skips the unlink

  // Phase 2: a fresh daemon on the same journal. It must preload the two
  // finished results and deterministically re-execute the in-flight job.
  Daemon d2("wal2");
  d2.start("--wal=" + wal_path);
  {
    // Wait until the replayed job has re-executed (jobs_executed reaches 1;
    // the preloaded answers never re-execute).
    Conn c;
    ASSERT_TRUE(c.connect(d2.socket_path));
    ASSERT_TRUE(wait_for(
        [&] {
          Json stats = Json::object();
          stats.set("type", "stats");
          if (!c.send(stats)) return false;
          const std::optional<Json> reply = c.recv();
          return reply.has_value() &&
                 reply->find("wal_replayed") != nullptr &&
                 reply->find("wal_replayed")->as_u64() == 1 &&
                 reply->find("jobs_executed")->as_u64() >= 1;
        },
        60000));
    Json stats = Json::object();
    stats.set("type", "stats");
    ASSERT_TRUE(c.send(stats));
    const std::optional<Json> reply = c.recv();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->find("wal_recovered")->as_u64(), 2u)
        << "finished results were not preloaded from the journal";
  }

  // Every answer -- the two that finished before the kill, and the one that
  // was in flight -- now comes back byte-identical to a one-shot run, from
  // cache (nothing re-executes on re-submission).
  struct Probe {
    std::string circuit;
    unsigned k;
  };
  for (const Probe& p :
       {Probe{"c17", k}, Probe{"add8", k}, Probe{kLongCircuit, kLongK}}) {
    const std::string bench_path = temp_path("rec_" + p.circuit + ".bench");
    const std::string report_path = temp_path("rec_" + p.circuit + ".json");
    // --retry also covers a daemon still replaying: the client re-submits
    // until the answer is there.
    const RunResult r = run_cmd(
        std::string(RESYNTH_CLIENT_PATH) + " --socket=" + d2.socket_path +
        " --proc=2 --k=" + std::to_string(p.k) + " --retry=5" +
        " --retry-base-ms=50 --out=" + bench_path + " --report=" +
        report_path + " " + p.circuit);
    EXPECT_EQ(r.exit_code, 0) << r.err;
    const OneShot expect = one_shot(p.circuit, p.k);
    EXPECT_EQ(slurp(bench_path), expect.bench) << p.circuit;
    std::string err;
    const std::optional<Json> rep = Json::parse(slurp(report_path), &err);
    ASSERT_TRUE(rep.has_value()) << err;
    EXPECT_EQ(label_ordered_spans(masked_report_dump(*rep)),
              label_ordered_spans(masked_report_dump(expect.report)))
        << p.circuit;
  }
  {
    Conn c;
    ASSERT_TRUE(c.connect(d2.socket_path));
    Json stats = Json::object();
    stats.set("type", "stats");
    ASSERT_TRUE(c.send(stats));
    const std::optional<Json> reply = c.recv();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->find("cache_hits")->as_u64(), 3u)
        << "re-submitted jobs should all be served from the recovered cache";
  }
  run_cmd(std::string(RESYNTH_CLIENT_PATH) + " --socket=" + d2.socket_path +
          " --shutdown");
  EXPECT_EQ(d2.wait_exit(), 0);
  std::remove(wal_path.c_str());
}

TEST(ServeE2e, ClientRetriesThroughADaemonRestart) {
  // The daemon is down when the client starts; --retry keeps re-connecting
  // with backoff until the (restarted) daemon answers.
  Daemon d("retry");
  const std::string bench_path = temp_path("retry.bench");
  const std::string cmd = std::string(RESYNTH_CLIENT_PATH) + " --socket=" +
                          d.socket_path + " --proc=2 --k=5 --retry=40" +
                          " --retry-base-ms=100 --out=" + bench_path +
                          " --id=retry c17";
  const std::string rc_path = temp_path("retry_client.rc");
  std::remove(rc_path.c_str());
  ASSERT_EQ(std::system(("( " + cmd + " >/dev/null 2>&1; echo $? > " +
                         rc_path + " ) &")
                            .c_str()),
            0);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  d.start();
  ASSERT_TRUE(wait_for([&] { return !slurp(rc_path).empty(); }, 60000))
      << "client never finished";
  EXPECT_EQ(std::stoi(slurp(rc_path)), 0);
  EXPECT_EQ(slurp(bench_path), one_shot("c17", 5).bench);
  run_cmd(std::string(RESYNTH_CLIENT_PATH) + " --socket=" + d.socket_path +
          " --shutdown");
  EXPECT_EQ(d.wait_exit(), 0);
}

TEST(ServeE2e, FullQueueShedsDeterministicallyWithRetryHint) {
  Daemon d("shed");
  d.start("--queue-max=1");
  Conn c;
  ASSERT_TRUE(c.connect(d.socket_path));
  // Occupy the lane, then fill the queue, then overflow it.
  ASSERT_TRUE(c.send(job_message("long", kLongCircuit, kLongK)));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_TRUE(c.send(job_message("queued", "c17")));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(c.send(job_message("shed1", "add8")));
  ASSERT_TRUE(c.send(job_message("shed2", "mux4")));

  // The shed answers come back immediately, ahead of the running jobs.
  int shed = 0;
  std::vector<Json> replies;
  for (int i = 0; i < 4; ++i) {
    const std::optional<Json> reply = c.recv();
    ASSERT_TRUE(reply.has_value());
    replies.push_back(*reply);
  }
  for (const Json& r : replies) {
    if (field(r, "error") == "overloaded") {
      ++shed;
      EXPECT_EQ(field(r, "status"), "error");
      ASSERT_NE(r.find("retry_after_ms"), nullptr)
          << "shed answer missing its retry hint";
      EXPECT_GT(r.find("retry_after_ms")->as_u64(), 0u);
    }
  }
  EXPECT_EQ(shed, 2) << "overflow jobs were not shed";

  Conn s;
  ASSERT_TRUE(s.connect(d.socket_path));
  Json stats = Json::object();
  stats.set("type", "stats");
  ASSERT_TRUE(s.send(stats));
  const std::optional<Json> reply = s.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->find("jobs_shed")->as_u64(), 2u);

  Json bye = Json::object();
  bye.set("type", "shutdown");
  ASSERT_TRUE(s.send(bye));
  s.recv();
  EXPECT_EQ(d.wait_exit(), 0);
}

TEST(ServeE2e, WatchdogInterruptsAHungJobAndTheLaneKeepsServing) {
  Daemon d("watchdog");
  d.start("--watchdog=0.5");
  Conn c;
  ASSERT_TRUE(c.connect(d.socket_path));
  // The long job runs well past 0.5 s; the watchdog cancels it at a poll
  // point and the job answers "interrupted".
  ASSERT_TRUE(c.send(job_message("hung", kLongCircuit, kLongK)));
  std::optional<Json> reply = c.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(field(*reply, "id"), "hung");
  EXPECT_EQ(field(*reply, "status"), "interrupted");

  // The same lane then serves the next job normally.
  ASSERT_TRUE(c.send(job_message("after", "c17")));
  reply = c.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(field(*reply, "status"), "ok");

  Json stats = Json::object();
  stats.set("type", "stats");
  ASSERT_TRUE(c.send(stats));
  reply = c.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_GE(reply->find("watchdog_fires")->as_u64(), 1u);

  Json bye = Json::object();
  bye.set("type", "shutdown");
  ASSERT_TRUE(c.send(bye));
  c.recv();
  EXPECT_EQ(d.wait_exit(), 0);
}

TEST(ServeE2e, InjectedLaneCrashAndFrameCorruptionStayPerJob) {
  Daemon d("chaos");
  // 1st job started crashes its lane; 3rd daemon-sent frame is corrupted.
  d.start("--inject=lane:1,frame:3");
  Conn c;
  ASSERT_TRUE(c.connect(d.socket_path));

  // Frame 1: the scripted lane crash comes back as a per-job error.
  ASSERT_TRUE(c.send(job_message("crash", "c17")));
  std::optional<Json> reply = c.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(field(*reply, "status"), "error");
  EXPECT_NE(field(*reply, "error").find("injected lane crash"),
            std::string::npos);

  // Frame 2: the daemon survived; the same lane serves real work.
  ASSERT_TRUE(c.send(job_message("after", "c17")));
  reply = c.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(field(*reply, "status"), "ok");

  // Frame 3 is corrupted on the wire: framing stays intact (the reply
  // arrives) but one payload byte is flipped. A pong is small enough that
  // the flip is always detectable as a wrong/unparseable message.
  Json ping = Json::object();
  ping.set("type", "ping");
  ASSERT_TRUE(c.send(ping));
  std::string payload, err;
  ASSERT_EQ(read_frame(c.fd, &payload, &err), FrameStatus::Ok) << err;
  const std::optional<Json> parsed = Json::parse(payload, &err);
  EXPECT_TRUE(!parsed.has_value() || field(*parsed, "type") != "pong" ||
              field(*parsed, "schema") != kServeSchema)
      << "corrupted frame came through clean: " << payload;

  // Frame 4 onward is clean again.
  ASSERT_TRUE(c.send(ping));
  const std::optional<Json> pong = c.recv();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(field(*pong, "type"), "pong");

  Json bye = Json::object();
  bye.set("type", "shutdown");
  ASSERT_TRUE(c.send(bye));
  EXPECT_EQ(d.wait_exit(), 0);
}

TEST(ServeE2e, StdioTransportServesOneClient) {
  int to_daemon[2], from_daemon[2];
  ASSERT_EQ(::pipe(to_daemon), 0);
  ASSERT_EQ(::pipe(from_daemon), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(to_daemon[0], 0);
    ::dup2(from_daemon[1], 1);
    ::close(to_daemon[0]);
    ::close(to_daemon[1]);
    ::close(from_daemon[0]);
    ::close(from_daemon[1]);
    ::execl(RESYNTH_SERVE_PATH, "resynth_serve", "--stdio",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(to_daemon[0]);
  ::close(from_daemon[1]);
  const int wfd = to_daemon[1];
  const int rfd = from_daemon[0];

  std::string err;
  Json ping = Json::object();
  ping.set("type", "ping");
  ASSERT_TRUE(write_message(wfd, ping, &err)) << err;
  std::string payload;
  ASSERT_EQ(read_frame(rfd, &payload, &err), FrameStatus::Ok) << err;
  std::optional<Json> reply = Json::parse(payload, &err);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(field(*reply, "type"), "pong");

  ASSERT_TRUE(write_message(wfd, job_message("stdio1", "c17"), &err));
  ASSERT_EQ(read_frame(rfd, &payload, &err), FrameStatus::Ok) << err;
  reply = Json::parse(payload, &err);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(field(*reply, "status"), "ok");
  EXPECT_FALSE(field(*reply, "bench").empty());

  // EOF on stdin is the stdio-mode shutdown request: graceful drain, exit 0.
  ::close(wfd);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
  ::close(rfd);
}

}  // namespace
}  // namespace compsyn::serve
