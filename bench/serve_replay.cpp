// Replay-workload benchmark for the serving mode (DESIGN.md §13, §15):
// drives real resynth_serve daemon subprocesses over their Unix sockets,
// replaying the Table 2 suite N rounds at each configured lane count (a
// fresh daemon per config, client concurrency = lane count). Round 0 runs
// against a cold cache (every job executes); rounds >= 1 are pure cache
// hits. Reports jobs/sec and client-observed p50/p95 latency for both
// regimes at every lane count, plus the daemon's own cache counters
// (summed across configs -- each config's tally is deterministic, so the
// sum is too), in compsyn-bench-v2 form.
//
// Flags: --circuits=a,b,c   --rounds=N (default 3)   --k=K (default 5)
//        --lanes=1,2,4 (daemon lane counts; default 1)   --report=<file>.json
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/bench_schema.hpp"
#include "obs/json.hpp"
#include "serve/protocol.hpp"
#include "util/cli.hpp"
#include "util/errors.hpp"
#include "util/strings.hpp"

#ifndef RESYNTH_SERVE_PATH
#error "RESYNTH_SERVE_PATH must be defined by the build"
#endif

using namespace compsyn;
using namespace compsyn::serve;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

bool path_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

/// Linear-interpolation percentile over a sorted copy; q in [0,1].
double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double round3(double x) { return std::round(x * 1000.0) / 1000.0; }

struct RegimeStats {
  std::vector<double> latencies_ms;
  double wall_seconds = 0.0;
  std::size_t jobs = 0;
  unsigned lanes = 1;

  Json to_json(const char* regime) const {
    Json j = Json::object();
    j.set("regime", regime);
    j.set("lanes", std::uint64_t{lanes});
    j.set("jobs", static_cast<std::uint64_t>(jobs));
    j.set("wall_seconds", round3(wall_seconds));
    j.set("jobs_per_second",
          round3(wall_seconds > 0 ? static_cast<double>(jobs) / wall_seconds
                                  : 0.0));
    j.set("latency_p50_ms", round3(percentile(latencies_ms, 0.50)));
    j.set("latency_p95_ms", round3(percentile(latencies_ms, 0.95)));
    return j;
  }
};

struct Daemon {
  std::string socket_path;
  std::string pid_path;
  std::string err_path;

  bool start(unsigned lanes) {
    const std::string dir = "/tmp";
    const std::string tag = "compsyn_bench_serve_" +
                            std::to_string(::getpid()) + "_l" +
                            std::to_string(lanes);
    socket_path = dir + "/" + tag + ".sock";
    pid_path = dir + "/" + tag + ".pid";
    err_path = dir + "/" + tag + ".err";
    std::remove(socket_path.c_str());
    const std::string cmd =
        std::string(RESYNTH_SERVE_PATH) + " --socket=" + socket_path +
        " --lanes=" + std::to_string(lanes) + " 2>" + err_path +
        " & echo $! > " + pid_path;
    if (std::system(cmd.c_str()) != 0) return false;
    for (int waited = 0; waited < 10000; waited += 20) {
      if (path_exists(socket_path)) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    std::cerr << "daemon did not come up; stderr:\n" << slurp(err_path);
    return false;
  }
};

int connect_daemon(const std::string& socket_path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends one message and reads one reply; exits the benchmark on failure
/// (a daemon that stops answering invalidates every number after it).
Json round_trip(int fd, const Json& msg) {
  std::string err;
  if (!write_message(fd, msg, &err)) {
    std::cerr << "error: send failed: " << err << "\n";
    std::exit(1);
  }
  std::string payload;
  if (read_frame(fd, &payload, &err) != FrameStatus::Ok) {
    std::cerr << "error: no reply: " << err << "\n";
    std::exit(1);
  }
  const std::optional<Json> reply = Json::parse(payload, &err);
  if (!reply.has_value()) {
    std::cerr << "error: bad reply: " << err << "\n";
    std::exit(1);
  }
  return *reply;
}

/// One lane-count configuration replayed against a fresh daemon. Returns
/// false on any job failure; fills cold/warm stats and the daemon's final
/// stats reply.
bool replay_config(const std::vector<std::string>& circuits, unsigned rounds,
                   unsigned k, unsigned lanes,
                   RegimeStats* cold, RegimeStats* warm, Json* stats) {
  Daemon d;
  if (!d.start(lanes)) return false;
  cold->lanes = warm->lanes = lanes;
  // Client concurrency matches the lane count: enough in-flight jobs to
  // keep every lane busy, never more than the jobs available.
  const unsigned workers = std::min<unsigned>(
      std::max(1u, lanes), static_cast<unsigned>(circuits.size()));

  for (unsigned r = 0; r < rounds; ++r) {
    RegimeStats& regime = r == 0 ? *cold : *warm;
    std::vector<double> latencies(circuits.size(), 0.0);
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    const double round_start = now_seconds();
    auto worker = [&] {
      const int fd = connect_daemon(d.socket_path);
      if (fd < 0) {
        failed.store(true);
        return;
      }
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= circuits.size() || failed.load()) break;
        JobSpec spec;
        spec.id = circuits[i] + ".r" + std::to_string(r);
        spec.circuit = circuits[i];
        spec.k = k;
        const double t0 = now_seconds();
        const Json reply = round_trip(fd, spec.to_json());
        latencies[i] = (now_seconds() - t0) * 1000.0;
        std::string err;
        const std::optional<JobResult> result =
            JobResult::from_json(reply, &err);
        if (!result.has_value() ||
            result->status != robust::RunStatus::Complete) {
          std::cerr << "error: job " << spec.id << " -> " << reply.dump()
                    << "\n";
          failed.store(true);
          break;
        }
        if (result->cache_hit != (r > 0)) {
          std::cerr << "error: job " << spec.id << " cache "
                    << (result->cache_hit ? "hit" : "miss") << " (expected "
                    << (r > 0 ? "hit" : "miss") << ")\n";
          failed.store(true);
          break;
        }
      }
      ::close(fd);
    };
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < workers; ++t) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
    if (failed.load()) return false;
    regime.wall_seconds += now_seconds() - round_start;
    regime.jobs += circuits.size();
    regime.latencies_ms.insert(regime.latencies_ms.end(), latencies.begin(),
                               latencies.end());
    std::cout << "  lanes=" << lanes << " round " << r
              << (r == 0 ? " (cold): " : " (warm): ") << circuits.size()
              << " jobs in " << round3(now_seconds() - round_start) << "s\n";
  }

  const int fd = connect_daemon(d.socket_path);
  if (fd < 0) {
    std::cerr << "error: cannot reconnect to " << d.socket_path << "\n";
    return false;
  }
  Json stats_msg = Json::object();
  stats_msg.set("type", "stats");
  *stats = round_trip(fd, stats_msg);
  Json bye = Json::object();
  bye.set("type", "shutdown");
  round_trip(fd, bye);
  ::close(fd);
  return true;
}

int run_main(int argc, char** argv) {
  Cli cli(argc, argv);
  const unsigned rounds =
      std::max(2u, static_cast<unsigned>(cli.get_int("rounds", 3)));
  const unsigned k = static_cast<unsigned>(cli.get_int("k", 5));
  std::vector<std::string> circuits = {"c17", "s27",  "add8", "cmp8",
                                       "dec5", "mux4", "alu4"};
  if (cli.has("circuits")) {
    circuits.clear();
    for (const std::string& s : split(cli.get("circuits"), ',')) {
      if (!s.empty()) circuits.push_back(s);
    }
  }
  std::vector<unsigned> lane_counts = {1};
  if (cli.has("lanes")) {
    lane_counts.clear();
    for (const std::string& s : split(cli.get("lanes"), ',')) {
      if (s.empty()) continue;
      lane_counts.push_back(
          static_cast<unsigned>(std::max(1, std::atoi(s.c_str()))));
    }
    if (lane_counts.empty()) lane_counts.push_back(1);
  }

  std::cout << "serve_replay: " << circuits.size() << " circuit(s) x "
            << rounds << " round(s), k=" << k << ", lane sweep {";
  for (std::size_t i = 0; i < lane_counts.size(); ++i) {
    std::cout << (i ? "," : "") << lane_counts[i];
  }
  std::cout << "}\n";

  std::vector<RegimeStats> colds, warms;
  Json counters_sum = Json::object();
  double worst_speedup = 1e9;
  for (unsigned lanes : lane_counts) {
    RegimeStats cold, warm;
    Json stats;
    if (!replay_config(circuits, rounds, k, lanes, &cold, &warm, &stats)) {
      return 1;
    }
    const double cold_tput =
        cold.wall_seconds > 0
            ? static_cast<double>(cold.jobs) / cold.wall_seconds
            : 0.0;
    const double warm_tput =
        warm.wall_seconds > 0
            ? static_cast<double>(warm.jobs) / warm.wall_seconds
            : 0.0;
    const double speedup = cold_tput > 0 ? warm_tput / cold_tput : 0.0;
    worst_speedup = std::min(worst_speedup, speedup);
    std::cout << "lanes=" << lanes << " cold: " << round3(cold_tput)
              << " jobs/s (p50 " << round3(percentile(cold.latencies_ms, 0.5))
              << "ms, p95 " << round3(percentile(cold.latencies_ms, 0.95))
              << "ms)\n"
              << "lanes=" << lanes << " warm: " << round3(warm_tput)
              << " jobs/s (p50 " << round3(percentile(warm.latencies_ms, 0.5))
              << "ms, p95 " << round3(percentile(warm.latencies_ms, 0.95))
              << "ms)\n"
              << "lanes=" << lanes << " warm/cold throughput: "
              << round3(speedup) << "x\n";
    // Sum the per-config counters: each daemon's tallies are deterministic
    // for this fixed workload, so the sweep total is too.
    const auto accumulate = [&](const char* name, const char* stats_key) {
      const Json* v = stats.find(stats_key);
      const Json* prev = counters_sum.find(name);
      counters_sum.set(name, (prev != nullptr ? prev->as_u64() : 0) +
                                 (v != nullptr ? v->as_u64() : 0));
    };
    accumulate("serve.jobs.received", "jobs_received");
    accumulate("serve.jobs.served", "jobs_served");
    accumulate("serve.jobs.executed", "jobs_executed");
    accumulate("serve.jobs.shed", "jobs_shed");
    accumulate("serve.cache.hits", "cache_hits");
    accumulate("serve.cache.misses", "cache_misses");
    accumulate("serve.cache.collisions", "cache_collisions");
    accumulate("serve.cache.evictions", "cache_evictions");
    accumulate("serve.wal.replayed", "wal_replayed");
    accumulate("serve.watchdog.fires", "watchdog_fires");
    colds.push_back(std::move(cold));
    warms.push_back(std::move(warm));
  }

  if (cli.has("report")) {
    Json doc = Json::object();
    doc.set("schema", std::string(kBenchSchemaV2));
    doc.set("name", "serve_replay");
    Json meta = Json::object();
    {
      Json names = Json::array();
      for (const std::string& c : circuits) names.push(c);
      meta.set("circuits", std::move(names));
    }
    {
      Json counts = Json::array();
      for (unsigned lanes : lane_counts) counts.push(std::uint64_t{lanes});
      meta.set("lanes", std::move(counts));
    }
    meta.set("rounds", std::uint64_t{rounds});
    meta.set("k", std::uint64_t{k});
    meta.set("warm_over_cold_throughput", round3(worst_speedup));
    doc.set("meta", std::move(meta));
    doc.set("spans", Json::array());
    // The daemons' own view of the workload: cache effectiveness counters
    // straight from the stats replies, so bench_diff can gate on them.
    doc.set("counters", std::move(counters_sum));
    Json runs = Json::array();
    for (std::size_t i = 0; i < colds.size(); ++i) {
      runs.push(colds[i].to_json("cold"));
      runs.push(warms[i].to_json("warm"));
    }
    doc.set("runs", std::move(runs));

    std::ofstream os(cli.get("report"), std::ios::binary | std::ios::trunc);
    doc.write(os, 2);
    os << "\n";
    if (!os.good()) {
      std::cerr << "error: cannot write " << cli.get("report") << "\n";
      return 1;
    }
    std::cout << "wrote " << cli.get("report") << "\n";
  }
  cli.warn_unrecognized(std::cerr);
  // The cross-job cache is the whole point of serving mode; a warm replay
  // that is not decisively faster than cold means it is broken -- at every
  // lane count.
  if (worst_speedup < 1.5) {
    std::cerr << "FAIL: warm throughput only " << round3(worst_speedup)
              << "x cold (expected >= 1.5x)\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const compsyn::UsageError& e) {
    std::cerr << "serve_replay: usage error: " << e.what() << "\n";
    return 2;
  }
}
