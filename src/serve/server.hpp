// The resynth_serve daemon core (DESIGN.md §13, §15).
//
// Concurrency model: accept and parse concurrently, execute on N
// independent *lanes*. A listener thread accepts connections (Unix-domain
// socket) and one reader thread per connection decodes frames and
// enqueues jobs; `--lanes=N` lane threads drain the FIFO queue, each
// owning a private robust slot (budget/deadline/cancel state) and a
// private obs domain (counters/spans) -- so no two jobs share any mutable
// engine state, and every artifact is byte-identical to
// a fresh one-shot `resynth_flow` at any lane count (DESIGN.md §15.1).
// The thread that called run() is the *monitor*: it promotes signals to
// an abort drain and fires the hung-lane watchdog.
//
// Admission control: the queue is bounded (--queue-max); a job arriving
// at a full queue -- or from a client above its in-flight cap -- is shed
// deterministically with error "overloaded" and a retry_after_ms hint
// computed from queue state (never from the wall clock). Shedding is a
// per-job answer; the connection keeps serving.
//
// Crash safety: with --wal=PATH every deadline-free job's lifecycle is
// journaled (serve/wal.hpp). A restarted daemon replays the journal,
// preloads finished artifacts into the result cache, and re-executes jobs
// that were accepted or in flight when the process died, so a client that
// re-submits by job key gets byte-identical answers (DESIGN.md §15.2).
//
// Lifecycle:
//   - {"type":"shutdown"} or stdin EOF (stdio mode): graceful drain --
//     queued jobs run to completion, results flow out, the shutdown
//     connection gets {"type":"bye"}, exit 0.
//   - SIGINT/SIGTERM: abort drain -- in-flight jobs wind down at a poll
//     point and answer status "interrupted"; queued jobs answer
//     "interrupted" without running; the socket file is unlinked; exit
//     128+sig (130/143), matching the one-shot binaries.
//   - Hung lane: the watchdog (--watchdog=SECONDS) cancels that lane's
//     job (per-job "interrupted" answer); the lane keeps serving.
// Per-job failures (malformed .bench, budget trips, client gone mid-job,
// injected lane crashes, WAL write failures) never end the daemon.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/domain.hpp"
#include "robust/robust.hpp"
#include "serve/cache.hpp"
#include "serve/job.hpp"
#include "serve/protocol.hpp"
#include "serve/wal.hpp"

namespace compsyn::serve {

struct ServerConfig {
  std::string socket_path;  // Unix-domain socket ("" with use_stdio)
  bool use_stdio = false;   // serve one client over fds 0/1 instead
  std::uint64_t cache_bytes = 64ull * 1024 * 1024;
  std::string events_path;  // compsyn-events-v1 JSONL ("" = off)
  unsigned lanes = 1;       // concurrent job lanes
  std::string wal_path;     // job journal ("" = journaling off)
  std::size_t queue_max = 256;  // admission bound (0 = unbounded)
  unsigned client_max = 0;  // per-connection in-flight cap (0 = none)
  double watchdog_seconds = 0.0;  // hung-lane watchdog (0 = off)
};

/// Daemon counters, exposed by the {"type":"stats"} message and mirrored
/// into serve.* keys of the bench_serve report. Tallies are deterministic
/// by construction: they count *events* (jobs shed, watchdog
/// fires), never timing, so a replay under identical load sees identical
/// values at lanes=1; at lanes>1 only scheduling-dependent tallies
/// (cache hits vs executions racing on the same key) may differ -- the
/// per-job artifacts never do.
struct ServeStats {
  std::uint64_t connections = 0;
  std::uint64_t jobs_received = 0;
  std::uint64_t jobs_served = 0;    // responses sent (any status)
  std::uint64_t jobs_executed = 0;  // actually ran the pipeline
  std::uint64_t jobs_shed = 0;      // rejected by admission control
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_collisions = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_bytes = 0;
  std::uint64_t status_ok = 0;
  std::uint64_t status_degraded = 0;
  std::uint64_t status_interrupted = 0;
  std::uint64_t status_error = 0;
  std::uint64_t protocol_errors = 0;  // truncated/oversized/bad-JSON frames
  std::uint64_t disconnects = 0;      // responses that found the client gone
  std::uint64_t lanes = 1;            // configured lane count
  std::uint64_t lanes_busy = 0;       // snapshot at stats time
  std::uint64_t queue_depth = 0;      // snapshot at stats time
  std::uint64_t queue_max = 0;        // configured admission bound
  std::uint64_t wal_replayed = 0;     // jobs re-executed from the journal
  std::uint64_t wal_recovered = 0;    // finished results preloaded from it
  std::uint64_t wal_appends = 0;
  std::uint64_t wal_errors = 0;
  std::uint64_t watchdog_fires = 0;

  Json to_json() const;
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, serves until shutdown/EOF/signal, and returns the process exit
  /// code (0 graceful, 128+sig on signal, kExitInputError on bind failure).
  /// The calling thread becomes the monitor (signals + watchdog).
  int run();

 private:
  struct Connection {
    int rfd = -1;
    int wfd = -1;
    bool own_fds = false;  // close on destruction (socket conns only)
    std::mutex write_mu;   // reader (pong/stats) vs lanes (results)
    std::atomic<unsigned> inflight{0};  // jobs accepted, not yet answered
    ~Connection();
  };
  using ConnPtr = std::shared_ptr<Connection>;

  struct Pending {
    JobSpec spec;
    ConnPtr conn;  // nullptr: internal WAL-replay job (no answer to send)
    std::uint64_t seq = 0;
    bool journaled = false;  // has an "accepted" record in the WAL
  };

  /// One job lane: a thread plus the isolation state it binds around its
  /// job loop. busy_since_ms/current_seq feed the monitor's watchdog.
  struct Lane {
    unsigned index = 0;
    robust::Slot slot;
    ObsDomain domain;
    std::thread thread;
    std::atomic<std::uint64_t> busy_since_ms{0};  // 0 = idle
    std::atomic<std::uint64_t> current_seq{0};
    std::uint64_t watchdog_kicked_seq = ~0ull;  // monitor thread only

    explicit Lane(unsigned idx) : index(idx) {}
  };

  enum class Drain { None, Graceful, Abort };

  int setup_socket(std::string* error);
  void listener_loop();
  void reader_loop(ConnPtr conn);
  void handle_message(const ConnPtr& conn, const std::string& payload);
  void lane_loop(Lane& lane);
  void execute(Lane& lane, Pending job);
  void respond(const ConnPtr& conn, const Json& message);
  void shed(const ConnPtr& conn, const std::string& id, const char* why,
            std::uint64_t retry_after_ms);
  void begin_drain(Drain mode, const ConnPtr& bye_conn);
  bool stopping() const { return drain_.load() != Drain::None; }
  void refresh_cache_stats();
  void monitor_loop();

  // WAL plumbing (no-ops when the journal is off or dead).
  void recover_wal();
  void wal_append_accepted(std::uint64_t seq, const JobSpec& spec);
  void wal_append_mark(const char* type, std::uint64_t seq);
  void wal_append_finished(std::uint64_t seq, const std::string& canonical,
                           const std::string& option_key,
                           const JobExecution& exec);
  void wal_note_failure(const std::string& err);
  void compact_wal();

  ServerConfig config_;
  int listen_fd_ = -1;

  std::mutex mu_;  // queue_, bye_conn_, next_seq_
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  ConnPtr bye_conn_;
  std::uint64_t next_seq_ = 0;
  std::atomic<Drain> drain_{Drain::None};

  std::mutex cache_mu_;  // lanes race on lookups/inserts now
  ResultCache cache_;

  std::mutex stats_mu_;
  ServeStats stats_;

  // Journal state. Lock order: cache_mu_ strictly before wal_mu_ (the
  // compactor snapshots the cache first); mu_ is never held across either.
  std::mutex wal_mu_;
  JobWal wal_;
  std::map<std::uint64_t, Json> wal_live_;  // accepted, not yet finished
  std::size_t wal_appends_since_compact_ = 0;

  std::vector<std::unique_ptr<Lane>> lanes_;
  std::atomic<unsigned> lanes_running_{0};

  std::mutex conns_mu_;
  std::vector<std::thread> readers_;
  std::thread listener_;
};

}  // namespace compsyn::serve
