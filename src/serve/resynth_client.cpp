// Client for the resynth_serve daemon (compsyn-serve-v1).
//
// Single job -- flags mirror the one-shot resynth_flow binary, artifacts
// land in the same places, and the exit code maps the job status the same
// way (0 ok, 1 error, 20 degraded, 21 interrupted):
//
//   $ ./resynth_client --socket=S --proc=2 --k=5
//   $     --out=r.bench --report=r.json add8      (one command, wrapped)
//
// A .bench positional is read locally and shipped inline (the daemon never
// touches the client's filesystem); suite names are built daemon-side.
//
// Manifest replay -- a JSON array of job objects (or {"jobs":[...]}), each
// with the same field names as the wire JobSpec; ids default to job-<index>:
//
//   $ ./resynth_client --socket=S --manifest=jobs.json --concurrency=4
//   $     --rounds=2 --out-dir=results/            (one command, wrapped)
//
// Replay opens one connection per worker thread, reports client-observed
// latency (p50/p95) and throughput, and exits with the worst job status.
//
// Control messages: --ping, --stats, --shutdown (graceful drain; prints the
// daemon's jobs_served count from the "bye" reply).
//
// Resilience -- --retry=N re-submits a job after transport failures (daemon
// crash/restart, dropped connection, per-attempt --timeout=SECS expiry) and
// after deterministic "overloaded" sheds. Re-submission is idempotent: the
// daemon's result cache is content-addressed, so a job that executed before
// the connection died is answered from cache, byte-identical. Backoff is
// exponential from --retry-base-ms with *deterministic* jitter (FNV-1a of
// job id + attempt ordinal), honouring the daemon's retry_after_ms hint
// when one is present; identical runs back off identically (DESIGN.md
// §15.3).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "robust/robust.hpp"
#include "robust/guard.hpp"
#include "serve/protocol.hpp"
#include "util/cli.hpp"

namespace {

using namespace compsyn;
using namespace compsyn::serve;

int connect_unix(const std::string& path, std::string* error) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long";
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    *error = "connect " + path + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends one message and reads one reply frame. Returns nullopt on any
/// transport failure; with timeout_s > 0, also when no reply arrives in
/// time (sets *timed_out so the caller can distinguish it from a dead
/// stream -- both are retried the same way, but the diagnostics differ).
std::optional<Json> round_trip(int fd, const Json& message, std::string* error,
                               double timeout_s = 0.0,
                               bool* timed_out = nullptr) {
  if (!write_message(fd, message, error)) return std::nullopt;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  auto expired = [&] {
    return timeout_s > 0.0 && std::chrono::steady_clock::now() >= deadline;
  };
  std::string payload;
  const FrameStatus st = read_frame(fd, &payload, error, expired);
  if (st == FrameStatus::Stopped) {
    if (timed_out != nullptr) *timed_out = true;
    *error = "no reply within " + Json(timeout_s).dump() + " s";
    return std::nullopt;
  }
  if (st != FrameStatus::Ok) {
    if (error->empty()) *error = "connection closed by daemon";
    return std::nullopt;
  }
  std::optional<Json> reply = Json::parse(payload, error);
  if (!reply) return std::nullopt;
  return reply;
}

/// Re-submit policy shared by the single-job path and replay workers.
struct RetryPolicy {
  int retries = 0;           // extra attempts after the first
  double timeout_s = 0.0;    // per-attempt reply timeout (0 = wait forever)
  std::uint64_t base_ms = 100;  // exponential backoff base
};

/// Backoff before attempt `attempt` (1-based) of the job keyed `key`:
/// exponential in the attempt ordinal, plus jitter derived from FNV-1a of
/// (key, attempt) -- deterministic, so identical runs space identically --
/// and never less than the daemon's own retry_after_ms hint.
std::uint64_t backoff_ms(const RetryPolicy& policy, const std::string& key,
                         int attempt, std::uint64_t server_hint_ms) {
  const int shift = std::min(attempt - 1, 10);
  std::uint64_t delay = policy.base_ms << shift;
  const std::uint64_t h =
      robust::fnv1a64(key + "#" + std::to_string(attempt));
  delay += h % (policy.base_ms + 1);
  return std::max(delay, server_hint_ms);
}

/// One connection to the daemon plus the retry loop around it. Transport
/// failures (connect refused, dead stream, per-attempt timeout) drop and
/// re-open the connection; "overloaded" sheds keep it and just wait.
class JobSubmitter {
 public:
  JobSubmitter(std::string socket_path, RetryPolicy policy)
      : socket_path_(std::move(socket_path)), policy_(policy) {}
  ~JobSubmitter() { disconnect(); }
  JobSubmitter(const JobSubmitter&) = delete;
  JobSubmitter& operator=(const JobSubmitter&) = delete;

  /// Runs the job to a final answer, retrying per policy. nullopt only
  /// after every attempt failed; *error then holds the last failure.
  std::optional<JobResult> submit(const JobSpec& spec, std::string* error) {
    const Json wire = spec.to_json();
    const int attempts = policy_.retries + 1;
    for (int attempt = 1; attempt <= attempts; ++attempt) {
      if (attempt > 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            backoff_ms(policy_, spec.id, attempt, last_hint_ms_)));
      }
      last_hint_ms_ = 0;
      if (fd_ < 0 && (fd_ = connect_unix(socket_path_, error)) < 0) continue;
      bool timed_out = false;
      std::optional<Json> reply =
          round_trip(fd_, wire, error, policy_.timeout_s, &timed_out);
      if (!reply) {
        // Dead or wedged stream: whatever reply was in flight is lost, so
        // start over on a fresh connection. The daemon side is idempotent.
        disconnect();
        continue;
      }
      std::optional<JobResult> result = JobResult::from_json(*reply, error);
      if (!result) {
        const Json* remote = reply->find("error");
        if (remote != nullptr) *error = remote->as_string();
        disconnect();
        continue;
      }
      if (result->status == robust::RunStatus::Error &&
          result->error == "overloaded" &&
          attempt < attempts) {
        last_hint_ms_ = result->retry_after_ms;
        *error = "daemon overloaded";
        continue;  // connection stays up; just wait and re-submit
      }
      return result;
    }
    return std::nullopt;
  }

 private:
  void disconnect() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  std::string socket_path_;
  RetryPolicy policy_;
  int fd_ = -1;
  std::uint64_t last_hint_ms_ = 0;  // daemon's retry_after_ms, if any
};

RetryPolicy policy_from_cli(const Cli& cli) {
  RetryPolicy policy;
  policy.retries = std::max(0, cli.get_int("retry", 0));
  policy.timeout_s = std::max(0.0, cli.get_double("timeout", 0.0));
  policy.base_ms = std::max<std::uint64_t>(1, cli.get_u64("retry-base-ms", 100));
  return policy;
}

bool slurp(const std::string& path, std::string* out, std::string* error) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    *error = "cannot read " + path;
    return false;
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  *out = ss.str();
  return true;
}

/// Fills the job-defining fields from the command line (same flag names as
/// resynth_flow). Inlines the .bench file when the source is a path. A flag
/// value out of range is a usage error (exit 2), reported before any file
/// is read or any connection is made.
int spec_from_cli(const Cli& cli, const std::string& source, JobSpec* spec,
                  std::string* error) {
  FlowSpec& flow = *spec;
  flow = FlowSpec::from_cli(cli);
  if (!spec->validate(error)) return robust::kExitUsage;
  spec->deadline = cli.get_double("deadline", 0.0);
  spec->circuit = source;
  if (source.size() > 6 && source.substr(source.size() - 6) == ".bench") {
    if (!slurp(source, &spec->bench, error)) return robust::kExitInputError;
  }
  return robust::kExitOk;
}

bool write_file(const std::string& path, const std::string& text,
                std::string* error) {
  std::ofstream os(path, std::ios::binary);
  os << text;
  os.flush();
  if (!os) {
    *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

/// Report files replicate RunReport::write's byte format exactly (pretty
/// JSON, two-space indent, trailing newline) so a daemon-produced report
/// file diffs clean against a one-shot --report file.
bool write_report_file(const std::string& path, const Json& report,
                       std::string* error) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    *error = "cannot open " + path + " for writing";
    return false;
  }
  report.write(os, 2);
  os << '\n';
  os.flush();
  if (!os) {
    *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

struct ReplayOutcome {
  JobResult result;
  double latency_ms = 0.0;
  bool transport_ok = false;
  std::string transport_error;
};

/// Loads a manifest: a JSON array of job objects or {"jobs":[...]}. Inline
/// "bench" text wins; otherwise a .bench circuit path is slurped relative
/// to the client's cwd.
bool load_manifest(const std::string& path, std::vector<JobSpec>* jobs,
                   std::string* error) {
  std::string text;
  if (!slurp(path, &text, error)) return false;
  const std::optional<Json> doc = Json::parse(text, error);
  if (!doc) {
    *error = path + ": " + *error;
    return false;
  }
  const Json* list = doc->is_object() ? doc->find("jobs") : &*doc;
  if (list == nullptr || !list->is_array()) {
    *error = path + ": expected a JSON array of jobs (or {\"jobs\":[...]})";
    return false;
  }
  for (std::size_t i = 0; i < list->size(); ++i) {
    Json entry = list->at(i);
    if (!entry.is_object()) {
      *error = path + ": job " + std::to_string(i) + " is not an object";
      return false;
    }
    if (entry.find("id") == nullptr) {
      entry.set("id", "job-" + std::to_string(i));
    }
    std::string jerr;
    std::optional<JobSpec> spec = JobSpec::from_json(entry, &jerr);
    if (!spec) {
      *error = path + ": job " + std::to_string(i) + ": " + jerr;
      return false;
    }
    if (spec->bench.empty() && spec->circuit.size() > 6 &&
        spec->circuit.substr(spec->circuit.size() - 6) == ".bench") {
      if (!slurp(spec->circuit, &spec->bench, error)) return false;
    }
    jobs->push_back(std::move(*spec));
  }
  return true;
}

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(idx));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(idx));
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

int run_replay(const Cli& cli, const std::string& socket_path) {
  std::string err;
  std::vector<JobSpec> manifest;
  if (!load_manifest(cli.get("manifest"), &manifest, &err)) {
    std::cerr << "error: " << err << "\n";
    return robust::kExitInputError;
  }
  const int rounds = std::max(1, cli.get_int("rounds", 1));
  const int concurrency = std::max(1, cli.get_int("concurrency", 1));
  const std::string out_dir = cli.get("out-dir", "");

  // The work list: rounds x manifest, in manifest order within each round.
  std::vector<JobSpec> work;
  for (int r = 0; r < rounds; ++r) {
    for (const JobSpec& spec : manifest) {
      JobSpec j = spec;
      if (rounds > 1) j.id = j.id + ".r" + std::to_string(r);
      work.push_back(std::move(j));
    }
  }

  std::vector<ReplayOutcome> outcomes(work.size());
  std::atomic<std::size_t> next{0};
  const RetryPolicy policy = policy_from_cli(cli);
  const auto t0 = std::chrono::steady_clock::now();

  auto worker = [&] {
    std::string werr;
    JobSubmitter submitter(socket_path, policy);
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= work.size()) break;
      ReplayOutcome& out = outcomes[i];
      const auto js0 = std::chrono::steady_clock::now();
      std::optional<JobResult> r = submitter.submit(work[i], &werr);
      out.latency_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - js0)
                           .count();
      if (!r) {
        out.transport_error = werr;
        continue;
      }
      out.result = std::move(*r);
      out.transport_ok = true;
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < concurrency; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

  std::vector<double> latencies;
  // Jobs per status, indexed by robust::RunStatus (ok .. error).
  std::size_t count[4] = {0, 0, 0, 0};
  std::size_t& errors = count[static_cast<int>(robust::RunStatus::Error)];
  std::size_t hits = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const ReplayOutcome& out = outcomes[i];
    if (!out.transport_ok) {
      ++errors;
      std::cerr << "job " << work[i].id << ": transport error: "
                << out.transport_error << "\n";
      continue;
    }
    latencies.push_back(out.latency_ms);
    ++count[static_cast<int>(out.result.status)];
    if (out.result.cache_hit) ++hits;
    if (!out_dir.empty() && !out.result.bench.empty()) {
      std::string werr2;
      const std::string base = out_dir + "/" + out.result.id;
      if (!write_file(base + ".bench", out.result.bench, &werr2) ||
          !write_report_file(base + ".report.json", out.result.report,
                             &werr2) ||
          !write_file(base + ".stdout.txt", out.result.stdout_text, &werr2)) {
        std::cerr << "error: " << werr2 << "\n";
        ++errors;
      }
    }
  }
  std::sort(latencies.begin(), latencies.end());
  std::cout << "replayed " << work.size() << " job(s) (" << manifest.size()
            << " x " << rounds << " round(s)) at concurrency " << concurrency
            << " in " << wall_s << " s\n"
            << "  status: " << count[0] << " ok, " << count[1]
            << " degraded, " << count[2] << " interrupted, " << errors
            << " error\n"
            << "  cache: " << hits << "/" << work.size() << " hits\n";
  if (!latencies.empty()) {
    std::cout << "  throughput: "
              << static_cast<double>(latencies.size()) / wall_s
              << " jobs/s; latency p50 " << percentile(latencies, 0.50)
              << " ms, p95 " << percentile(latencies, 0.95) << " ms\n";
  }
  // The worst status decides: the statuses rise in severity.
  int worst = 3;
  while (worst > 0 && count[worst] == 0) --worst;
  return robust::exit_code(static_cast<robust::RunStatus>(worst));
}

int client_main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::string socket_path = cli.get("socket", "");
  if (socket_path.empty()) {
    std::cerr << "usage: resynth_client --socket=PATH [--ping | --stats | "
                 "--shutdown |\n"
                 "    --manifest=jobs.json [--concurrency=N] [--rounds=R] "
                 "[--out-dir=DIR] |\n"
                 "    [resynth_flow job flags] [--out=f.bench] "
                 "[--report=f.json] <circuit|file.bench>]\n"
                 "  job resilience: [--retry=N] [--timeout=SECS] "
                 "[--retry-base-ms=MS]\n";
    return robust::kExitUsage;
  }

  if (cli.has("manifest")) {
    const int rc = run_replay(cli, socket_path);
    cli.warn_unrecognized(std::cerr);
    return rc;
  }

  std::string err;
  if (cli.has("ping") || cli.has("stats") || cli.has("shutdown")) {
    const int fd = connect_unix(socket_path, &err);
    if (fd < 0) {
      std::cerr << "error: " << err << "\n";
      return robust::kExitInputError;
    }
    struct FdCloser {
      int fd;
      ~FdCloser() { ::close(fd); }
    } closer{fd};
    Json msg = Json::object();
    msg.set("type", cli.has("ping")       ? "ping"
                    : cli.has("stats")    ? "stats"
                                          : "shutdown");
    std::optional<Json> reply = round_trip(fd, msg, &err);
    if (!reply) {
      std::cerr << "error: " << err << "\n";
      return robust::kExitInputError;
    }
    std::cout << reply->dump(2) << "\n";
    cli.warn_unrecognized(std::cerr);
    return robust::kExitOk;
  }

  if (cli.positional().empty()) {
    std::cerr << "error: no circuit given (suite name or file.bench)\n";
    return robust::kExitUsage;
  }
  JobSpec spec;
  spec.id = cli.get("id", "cli");
  if (const int rc = spec_from_cli(cli, cli.positional()[0], &spec, &err)) {
    std::cerr << "error: " << err << "\n";
    return rc;
  }
  JobSubmitter submitter(socket_path, policy_from_cli(cli));
  std::optional<JobResult> result = submitter.submit(spec, &err);
  if (!result) {
    std::cerr << "error: " << err << "\n";
    return robust::kExitInputError;
  }
  // The daemon's captured stdout IS this run's stdout, so a piped one-shot
  // invocation and a client invocation read identically.
  std::cout << result->stdout_text;
  if (!result->error.empty()) {
    std::cerr << "error: " << result->error << "\n";
  }
  if (cli.has("out") && !result->bench.empty()) {
    if (!write_file(cli.get("out"), result->bench, &err)) {
      std::cerr << "error: " << err << "\n";
      return robust::kExitVerifyFailed;
    }
    std::cout << "wrote " << cli.get("out") << "\n";
  }
  if (cli.has("report")) {
    if (!write_report_file(cli.get("report"), result->report, &err)) {
      std::cerr << "error: " << err << "\n";
      return robust::kExitVerifyFailed;
    }
  }
  cli.warn_unrecognized(std::cerr);
  return robust::exit_code(result->status);
}

}  // namespace

int main(int argc, char** argv) {
  return compsyn::robust::guard_main("resynth_client", argc, argv,
                                     [&] { return client_main(argc, argv); });
}
