// The resynthesis daemon: accepts compsyn-serve-v1 jobs (whole .bench text
// in, resynthesized .bench + resynth_flow-shaped report out) over a
// Unix-domain socket or a stdio pipe, executing them on --lanes=N isolated
// job lanes so every result is byte-identical to a one-shot `resynth_flow`
// run with the same flags, at any lane count (DESIGN.md §13, §15).
//
//   $ ./resynth_serve --socket=/tmp/compsyn.sock --lanes=4
//         --wal=/tmp/compsyn.wal --cache-mb=64 &      (one command line)
//   $ ./resynth_client --socket=/tmp/compsyn.sock --proc=2 --k=5 add8
//
// With --wal=PATH the daemon journals every deadline-free job and, after a
// crash, replays the journal on restart: finished answers are served from
// the recovered cache, in-flight jobs re-execute deterministically.
//
// Exit codes follow the one-shot binaries: 0 after a graceful drain
// ({"type":"shutdown"} or stdin EOF in --stdio mode), 130/143 after
// SIGINT/SIGTERM (queued jobs are answered "interrupted", the socket file
// is unlinked), 2 on usage errors, 3 when the socket cannot be bound.
#include <iostream>
#include <optional>
#include <string>

#include "robust/guard.hpp"
#include "robust/inject.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"

namespace {

int serve_main(int argc, char** argv) {
  using namespace compsyn;
  Cli cli(argc, argv);
  serve::ServerConfig config;
  config.socket_path = cli.get("socket", "");
  config.use_stdio = cli.has("stdio");
  config.cache_bytes = cli.get_u64("cache-mb", 64) * 1024 * 1024;
  config.events_path = cli.get("events", "");
  config.wal_path = cli.get("wal", "");
  if (config.use_stdio ? !config.socket_path.empty()
                       : config.socket_path.empty()) {
    std::cerr << "usage: resynth_serve --socket=PATH | --stdio\n"
                 "  [--lanes=N]        concurrent job lanes (default 1)\n"
                 "  [--cache-mb=MB]    result cache budget (default 64)\n"
                 "  [--wal=PATH]       crash-safe job journal (default off)\n"
                 "  [--queue-max=N]    admission bound, 0=unbounded "
                 "(default 256)\n"
                 "  [--client-max=N]   per-client in-flight cap, 0=none "
                 "(default 0)\n"
                 "  [--watchdog=SECS]  hung-lane watchdog, 0=off (default 0)\n"
                 "  [--events=PATH]    compsyn-events-v1 log (default off)\n"
                 "  [--inject=SPEC]    scripted chaos (frame:N accept:N "
                 "lane:N wal:N budget:T ...)\n"
                 "  exactly one of --socket / --stdio\n";
    return robust::kExitUsage;
  }
  const int lanes = cli.get_int("lanes", 1);
  if (lanes < 1) {
    std::cerr << "error: --lanes=" << cli.get("lanes")
              << " (expected a positive integer)\n";
    return robust::kExitUsage;
  }
  config.lanes = static_cast<unsigned>(lanes);
  config.queue_max = cli.get_u64("queue-max", 256);
  config.client_max = static_cast<unsigned>(cli.get_u64("client-max", 0));
  config.watchdog_seconds = cli.get_double("watchdog", 0.0);
  if (config.watchdog_seconds < 0.0) {
    std::cerr << "error: --watchdog=" << cli.get("watchdog")
              << " (expected a non-negative number of seconds)\n";
    return robust::kExitUsage;
  }
  // One plan for the whole serve loop; its budget:T trips every job (the
  // jobs' RunControls take it). It outlives the InjectScope pointing at it.
  const std::optional<robust::FaultPlan> plan =
      robust::FaultPlan::from_cli(cli);
  std::optional<robust::InjectScope> inject_scope;
  if (plan) inject_scope.emplace(*plan);
  cli.warn_unrecognized(std::cerr);
  serve::Server server(std::move(config));
  return server.run();
}

}  // namespace

int main(int argc, char** argv) {
  return compsyn::robust::guard_main("resynth_serve", argc, argv,
                                     [&] { return serve_main(argc, argv); });
}
