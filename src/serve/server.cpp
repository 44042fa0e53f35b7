#include "serve/server.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <iostream>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "bench_io/bench_io.hpp"
#include "gen/circuits.hpp"
#include "obs/events.hpp"
#include "obs/memstats.hpp"
#include "obs/obs.hpp"
#include "robust/guard.hpp"
#include "robust/inject.hpp"
#include "serve/job.hpp"

namespace compsyn::serve {
namespace {

/// Compact the journal after this many appends: bounds the file to the
/// working set (cache snapshot + live jobs) instead of the full history.
constexpr std::size_t kWalCompactEvery = 256;

/// Canonicalises a job's input netlist: parse, then write_bench_string. Two
/// textually different .bench files describing the same structure map to
/// one cache key. nullopt when the input does not parse (the job itself
/// will produce the diagnostic).
std::optional<std::string> canonical_input(const JobSpec& spec) {
  try {
    Netlist nl = spec.bench.empty()
                     ? make_benchmark(spec.circuit)
                     : read_bench_string(spec.bench,
                                         bench_name_from_path(spec.circuit));
    return write_bench_string(nl);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::uint64_t steady_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Json ServeStats::to_json() const {
  Json j = Json::object();
  j.set("type", "stats");
  j.set("schema", kServeSchema);
  j.set("connections", connections);
  j.set("jobs_received", jobs_received);
  j.set("jobs_served", jobs_served);
  j.set("jobs_executed", jobs_executed);
  j.set("jobs_shed", jobs_shed);
  j.set("cache_hits", cache_hits);
  j.set("cache_misses", cache_misses);
  j.set("cache_collisions", cache_collisions);
  j.set("cache_evictions", cache_evictions);
  j.set("cache_entries", cache_entries);
  j.set("cache_bytes", cache_bytes);
  j.set("status_ok", status_ok);
  j.set("status_degraded", status_degraded);
  j.set("status_interrupted", status_interrupted);
  j.set("status_error", status_error);
  j.set("protocol_errors", protocol_errors);
  j.set("disconnects", disconnects);
  j.set("lanes", lanes);
  j.set("lanes_busy", lanes_busy);
  j.set("queue_depth", queue_depth);
  j.set("queue_max", queue_max);
  j.set("wal_replayed", wal_replayed);
  j.set("wal_recovered", wal_recovered);
  j.set("wal_appends", wal_appends);
  j.set("wal_errors", wal_errors);
  j.set("watchdog_fires", watchdog_fires);
  return j;
}

Server::Connection::~Connection() {
  if (own_fds && rfd >= 0) ::close(rfd);
}

Server::Server(ServerConfig config)
    : config_(std::move(config)), cache_(config_.cache_bytes) {
  if (config_.lanes < 1) config_.lanes = 1;
}

Server::~Server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

int Server::setup_socket(std::string* error) {
  sockaddr_un addr{};
  if (config_.socket_path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long (limit " +
             std::to_string(sizeof(addr.sun_path) - 1) + " bytes)";
    return -1;
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  // A stale socket file from a killed daemon would make bind fail; remove
  // it. Two live daemons on one path is a deployment error this cannot
  // detect -- the second steals the path, as with every Unix-socket server.
  ::unlink(config_.socket_path.c_str());
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, config_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    *error = "bind " + config_.socket_path + ": " + std::strerror(errno);
    return -1;
  }
  if (::listen(listen_fd_, 64) < 0) {
    *error = std::string("listen: ") + std::strerror(errno);
    return -1;
  }
  return 0;
}

void Server::listener_loop() {
  while (!stopping()) {
    pollfd pfd = {listen_fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, kPollIntervalMs);
    if (pr <= 0) continue;
    const int cfd = ::accept(listen_fd_, nullptr, nullptr);
    if (cfd < 0) continue;
    if (robust::inject_accept_failure()) {
      // Scripted accept failure: the kernel gave us the connection, the
      // chaos plan says the daemon never saw it.
      ::close(cfd);
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->rfd = conn->wfd = cfd;
    conn->own_fds = true;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.connections;
    }
    std::lock_guard<std::mutex> lock(conns_mu_);
    readers_.emplace_back(&Server::reader_loop, this, std::move(conn));
  }
}

void Server::reader_loop(ConnPtr conn) {
  std::string payload;
  std::string err;
  for (;;) {
    const FrameStatus st = read_frame(conn->rfd, &payload, &err,
                                      [this] { return stopping(); });
    switch (st) {
      case FrameStatus::Ok:
        handle_message(conn, payload);
        continue;
      case FrameStatus::Eof:
        // In stdio mode the client closing its end IS the shutdown request.
        if (config_.use_stdio) begin_drain(Drain::Graceful, nullptr);
        return;
      case FrameStatus::Stopped:
        return;
      case FrameStatus::Truncated:
      case FrameStatus::TooLarge:
      case FrameStatus::Error: {
        // The stream position is unrecoverable: answer (best effort) and
        // drop this connection. The daemon keeps serving everyone else.
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.protocol_errors;
        }
        Json msg = Json::object();
        msg.set("type", "error");
        msg.set("error", err.empty() ? "framing error" : err);
        respond(conn, msg);
        return;
      }
    }
  }
}

void Server::shed(const ConnPtr& conn, const std::string& id, const char* why,
                  std::uint64_t retry_after_ms) {
  JobResult r;
  r.id = id;
  r.status = robust::RunStatus::Error;
  r.error = why;
  r.retry_after_ms = retry_after_ms;
  r.report = robust::error_report("resynth_flow", r.status, r.error, now_ns())
                 .to_json();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.jobs_served;
    ++stats_.jobs_shed;
    ++stats_.status_error;
  }
  Json ev = Json::object();
  ev.set("event", "shed");
  ev.set("id", id);
  ev.set("reason", why);
  ev.set("retry_after_ms", retry_after_ms);
  EventLog::emit("job", std::move(ev));
  respond(conn, r.to_json());
}

void Server::handle_message(const ConnPtr& conn, const std::string& payload) {
  std::string err;
  const std::optional<Json> parsed = Json::parse(payload, &err);
  if (!parsed || !parsed->is_object()) {
    // Framing is intact, so this is recoverable: answer and keep reading.
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.protocol_errors;
    }
    Json msg = Json::object();
    msg.set("type", "error");
    msg.set("error", !parsed ? "malformed JSON payload: " + err
                             : "message must be a JSON object");
    respond(conn, msg);
    return;
  }
  const Json* type = parsed->find("type");
  const std::string kind =
      type != nullptr && type->type() == Json::Type::String ? type->as_string()
                                                            : "";
  if (kind == "ping") {
    Json msg = Json::object();
    msg.set("type", "pong");
    msg.set("schema", kServeSchema);
    respond(conn, msg);
    return;
  }
  if (kind == "stats") {
    refresh_cache_stats();
    std::size_t depth = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      depth = queue_.size();
    }
    std::uint64_t busy = 0;
    for (const auto& lane : lanes_) {
      if (lane->busy_since_ms.load(std::memory_order_relaxed) != 0) ++busy;
    }
    Json msg;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.lanes = config_.lanes;
      stats_.lanes_busy = busy;
      stats_.queue_depth = depth;
      stats_.queue_max = config_.queue_max;
      msg = stats_.to_json();
    }
    respond(conn, msg);
    return;
  }
  if (kind == "shutdown") {
    begin_drain(Drain::Graceful, conn);
    return;
  }
  if (kind == "job") {
    const Json* idf = parsed->find("id");
    const std::string id =
        idf != nullptr && idf->type() == Json::Type::String ? idf->as_string()
                                                            : "";
    // Tally the receipt before anything can answer it: counters must be
    // deterministic for a client that queries stats after its last reply.
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.jobs_received;
    }
    auto reject = [&](const std::string& why) {
      JobResult r;
      r.id = id;
      r.status = robust::RunStatus::Error;
      r.error = why;
      r.report = robust::error_report("resynth_flow", r.status, why, now_ns())
                   .to_json();
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.jobs_served;
        ++stats_.status_error;
      }
      respond(conn, r.to_json());
    };
    if (stopping()) {
      reject("daemon is draining; job not accepted");
      return;
    }
    std::optional<JobSpec> spec = JobSpec::from_json(*parsed, &err);
    if (!spec) {
      reject(err);
      return;
    }
    // ---- admission control ----
    // Both rejections carry a deterministic retry_after_ms computed from
    // queue/in-flight state, so an identical load pattern sheds the same
    // jobs with the same hints on every run.
    if (config_.client_max > 0 &&
        conn->inflight.load(std::memory_order_relaxed) >= config_.client_max) {
      shed(conn, id, "overloaded",
           50ull * (conn->inflight.load(std::memory_order_relaxed) + 1));
      return;
    }
    std::uint64_t seq = 0;
    std::size_t depth = 0;
    bool full = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      depth = queue_.size();
      full = config_.queue_max > 0 && depth >= config_.queue_max;
      if (!full) seq = next_seq_++;
    }
    if (full) {
      shed(conn, id, "overloaded", 50ull * (depth - config_.queue_max + 2));
      return;
    }
    // Journal before enqueue: a job that entered the queue without an
    // accepted record would vanish in a crash.
    Pending p;
    p.spec = std::move(*spec);
    p.conn = conn;
    p.seq = seq;
    if (p.spec.deadline <= 0.0) {
      wal_append_accepted(seq, p.spec);
      p.journaled = true;  // best effort; a dead WAL just skips later marks
    }
    conn->inflight.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(p));
      depth = queue_.size();
    }
    cv_.notify_all();
    Json ev = Json::object();
    ev.set("event", "queued");
    ev.set("id", id);
    ev.set("queue_depth", depth);
    EventLog::emit("job", std::move(ev));
    return;
  }
  Json msg = Json::object();
  msg.set("type", "error");
  msg.set("error", kind.empty() ? "message missing string 'type'"
                                : "unknown message type: " + kind);
  respond(conn, msg);
}

void Server::respond(const ConnPtr& conn, const Json& message) {
  if (conn == nullptr) return;  // internal WAL-replay job: no client
  std::string err;
  std::string payload = message.dump();
  if (robust::inject_frame_corruption() && !payload.empty()) {
    // Scripted wire corruption: flip one payload byte. The framing stays
    // intact, so the client sees a guard/parse failure, not a dead stream.
    payload[payload.size() / 2] ^= 0x20;
  }
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (!write_frame(conn->wfd, payload, &err)) {
    // Client gone mid-job (or mid-drain). Per-job failure only.
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.disconnects;
  }
}

void Server::begin_drain(Drain mode, const ConnPtr& bye_conn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Drain cur = drain_.load();
    // Only escalate: None -> Graceful -> Abort. Never de-escalate.
    if (mode == Drain::Abort || cur == Drain::None) drain_.store(mode);
    if (bye_conn != nullptr && bye_conn_ == nullptr) bye_conn_ = bye_conn;
  }
  cv_.notify_all();
}

void Server::refresh_cache_stats() {
  std::uint64_t hits, misses, collisions, evictions, entries, bytes;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    hits = cache_.hits();
    misses = cache_.misses();
    collisions = cache_.collisions();
    evictions = cache_.evictions();
    entries = cache_.entries();
    bytes = cache_.bytes();
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.cache_hits = hits;
  stats_.cache_misses = misses;
  stats_.cache_collisions = collisions;
  stats_.cache_evictions = evictions;
  stats_.cache_entries = entries;
  stats_.cache_bytes = bytes;
}

// ---------------------------------------------------------------------------
// WAL plumbing
// ---------------------------------------------------------------------------

void Server::wal_note_failure(const std::string& err) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.wal_errors;
  }
  Json ev = Json::object();
  ev.set("event", "wal_error");
  ev.set("error", err);
  EventLog::emit("wal", std::move(ev));
}

void Server::wal_append_accepted(std::uint64_t seq, const JobSpec& spec) {
  bool compact = false;
  {
    std::lock_guard<std::mutex> lock(wal_mu_);
    if (!wal_.is_open()) return;
    WalRecord rec;
    rec.type = "accepted";
    rec.seq = seq;
    rec.fields.set("job", spec.to_json());
    std::string err;
    if (!wal_.append(rec, &err)) {
      wal_note_failure(err);
      return;
    }
    wal_live_[seq] = spec.to_json();
    compact = ++wal_appends_since_compact_ >= kWalCompactEvery;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.wal_appends;
  }
  if (compact) compact_wal();
}

void Server::wal_append_mark(const char* type, std::uint64_t seq) {
  bool compact = false;
  {
    std::lock_guard<std::mutex> lock(wal_mu_);
    if (!wal_.is_open()) return;
    WalRecord rec;
    rec.type = type;
    rec.seq = seq;
    std::string err;
    if (!wal_.append(rec, &err)) {
      wal_note_failure(err);
      return;
    }
    if (std::string_view(type) == "cached") wal_live_.erase(seq);
    compact = ++wal_appends_since_compact_ >= kWalCompactEvery;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.wal_appends;
  }
  if (compact) compact_wal();
}

void Server::wal_append_finished(std::uint64_t seq,
                                 const std::string& canonical,
                                 const std::string& option_key,
                                 const JobExecution& exec) {
  bool compact = false;
  {
    std::lock_guard<std::mutex> lock(wal_mu_);
    if (!wal_.is_open()) return;
    WalRecord rec;
    rec.type = "finished";
    rec.seq = seq;
    rec.fields.set("status", robust::to_string(exec.status));
    rec.fields.set("cacheable", exec.cacheable);
    if (exec.cacheable) {
      rec.fields.set("canonical", canonical);
      rec.fields.set("option_key", option_key);
      rec.fields.set("bench", exec.bench);
      rec.fields.set("report", exec.report);
      rec.fields.set("stdout", exec.stdout_text);
    }
    std::string err;
    if (!wal_.append(rec, &err)) {
      wal_note_failure(err);
      return;
    }
    wal_live_.erase(seq);
    compact = ++wal_appends_since_compact_ >= kWalCompactEvery;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.wal_appends;
  }
  if (compact) compact_wal();
}

void Server::compact_wal() {
  // Lock order: cache snapshot first, journal second (cache_mu_ > wal_mu_
  // everywhere). The snapshot may be momentarily stale against a racing
  // insert -- that job's own finished record lands after the compaction,
  // so nothing is lost.
  std::vector<ResultCache::SnapshotEntry> snap;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    snap = cache_.snapshot();
  }
  std::lock_guard<std::mutex> lock(wal_mu_);
  if (!wal_.is_open()) return;
  std::vector<WalRecord> records;
  records.reserve(snap.size() + wal_live_.size());
  for (const auto& e : snap) {
    WalRecord rec;
    rec.type = "finished";
    rec.seq = 0;  // compacted entries carry no job identity, only artifacts
    rec.fields.set("status", robust::to_string(e.result.status));
    rec.fields.set("cacheable", true);
    rec.fields.set("canonical", e.canonical_bench);
    rec.fields.set("option_key", e.option_key);
    rec.fields.set("bench", e.result.bench);
    rec.fields.set("report", e.result.report);
    rec.fields.set("stdout", e.result.stdout_text);
    records.push_back(std::move(rec));
  }
  for (const auto& [seq, job] : wal_live_) {
    WalRecord rec;
    rec.type = "accepted";
    rec.seq = seq;
    rec.fields.set("job", job);
    records.push_back(std::move(rec));
  }
  std::string err;
  if (!wal_.compact(records, &err)) {
    wal_note_failure(err);
    return;
  }
  wal_appends_since_compact_ = 0;
  Json ev = Json::object();
  ev.set("event", "wal_compacted");
  ev.set("finished", static_cast<std::uint64_t>(snap.size()));
  ev.set("live", static_cast<std::uint64_t>(wal_live_.size()));
  EventLog::emit("wal", std::move(ev));
}

void Server::recover_wal() {
  JobWal::Replay replay;
  std::string err;
  if (!wal_.open(config_.wal_path, &replay, &err)) {
    // Journal unusable (unwritable path, foreign format). Serve without
    // it rather than refusing to start -- crash safety degrades, service
    // does not.
    std::cerr << "warning: wal: " << err << " (journaling disabled)\n";
    wal_note_failure(err);
    return;
  }
  if (replay.dropped > 0) {
    Json ev = Json::object();
    ev.set("event", "wal_tail_dropped");
    ev.set("lines", static_cast<std::uint64_t>(replay.dropped));
    EventLog::emit("wal", std::move(ev));
  }

  struct RecoveredJob {
    Json spec;
    bool done = false;
  };
  std::map<std::uint64_t, RecoveredJob> jobs;  // ordered: replay in seq order
  std::uint64_t max_seq = 0;
  std::uint64_t preloaded = 0;
  for (const WalRecord& rec : replay.records) {
    if (rec.seq > max_seq) max_seq = rec.seq;
    if (rec.type == "accepted") {
      const Json* job = rec.fields.find("job");
      if (job != nullptr && job->is_object()) jobs[rec.seq].spec = *job;
    } else if (rec.type == "cached" || rec.type == "finished") {
      jobs[rec.seq].done = true;
      if (rec.type == "finished") {
        const Json* cacheable = rec.fields.find("cacheable");
        const Json* canonical = rec.fields.find("canonical");
        const Json* option_key = rec.fields.find("option_key");
        if (cacheable != nullptr && cacheable->as_bool() &&
            canonical != nullptr && option_key != nullptr) {
          const Json* status = rec.fields.find("status");
          const Json* bench = rec.fields.find("bench");
          const Json* report = rec.fields.find("report");
          const Json* stdout_text = rec.fields.find("stdout");
          CachedResult result;
          result.status =
              robust::parse_run_status(status != nullptr ? status->as_string()
                                                         : "")
                  .value_or(robust::RunStatus::Complete);
          result.bench = bench != nullptr ? bench->as_string() : "";
          result.report = report != nullptr ? *report : Json::object();
          result.stdout_text =
              stdout_text != nullptr ? stdout_text->as_string() : "";
          std::lock_guard<std::mutex> lock(cache_mu_);
          cache_.insert(canonical->as_string(), option_key->as_string(),
                        std::move(result));
          ++preloaded;
        }
      }
    }
    // "started" records carry no state beyond what accepted established;
    // a started-but-unfinished job is re-executed exactly like a queued one
    // (execution is deterministic, so the answer is the same).
  }

  // Re-enqueue every accepted-but-unfinished job as an internal Pending:
  // no client connection to answer, but the execution (re-)populates the
  // result cache, so a client re-submitting by job key gets the answer a
  // crash stole from it.
  std::uint64_t replayed = 0;
  {
    std::lock_guard<std::mutex> lock(wal_mu_);
    for (const auto& [seq, job] : jobs) {
      if (job.done || !job.spec.is_object()) continue;
      std::string parse_err;
      std::optional<JobSpec> spec = JobSpec::from_json(job.spec, &parse_err);
      if (!spec) continue;  // journal predates a spec change; skip
      Pending p;
      p.spec = std::move(*spec);
      p.conn = nullptr;
      p.seq = seq;
      p.journaled = true;
      wal_live_[seq] = job.spec;
      {
        std::lock_guard<std::mutex> qlock(mu_);
        queue_.push_back(std::move(p));
      }
      ++replayed;
    }
    next_seq_ = max_seq + 1;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.wal_recovered = preloaded;
    stats_.wal_replayed = replayed;
  }
  if (preloaded > 0 || replayed > 0 || replay.dropped > 0) {
    Json ev = Json::object();
    ev.set("event", "wal_replayed");
    ev.set("recovered_results", preloaded);
    ev.set("reexecuted_jobs", replayed);
    EventLog::emit("wal", std::move(ev));
  }
  // Trim history down to the working set right away: replayed journals
  // otherwise grow across every restart.
  compact_wal();
}

// ---------------------------------------------------------------------------
// Lanes
// ---------------------------------------------------------------------------

void Server::lane_loop(Lane& lane) {
  // Everything below these binds -- job execution, obs recording,
  // budget/deadline/cancel checks -- resolves to this lane's private state
  // (DESIGN.md §15.1).
  robust::SlotBind slot_bind(lane.slot);
  ObsDomainBind domain_bind(lane.domain);
  for (;;) {
    Pending job;
    bool have = false;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] {
        return !queue_.empty() || drain_.load() != Drain::None;
      });
      if (drain_.load() == Drain::Abort) break;
      if (!queue_.empty()) {
        job = std::move(queue_.front());
        queue_.pop_front();
        have = true;
      } else if (drain_.load() == Drain::Graceful) {
        break;
      }
    }
    if (!have) continue;
    // A previous job's budget/deadline cancel must not leak into this
    // one. Slot-only: a process-wide signal broadcast is never cleared
    // here, so a concurrent SIGTERM cannot be raced away.
    robust::clear_slot_cancel(lane.slot);
    lane.current_seq.store(job.seq, std::memory_order_relaxed);
    lane.busy_since_ms.store(steady_ms(), std::memory_order_relaxed);
    execute(lane, std::move(job));
    lane.busy_since_ms.store(0, std::memory_order_relaxed);
    robust::clear_slot_cancel(lane.slot);
    // Only the global signal broadcast can still be pending now.
    if (robust::cancel_requested()) {
      begin_drain(Drain::Abort, nullptr);
      break;
    }
  }
  lanes_running_.fetch_sub(1);
  cv_.notify_all();
}

void Server::execute(Lane& lane, Pending job) {
  const auto t0 = std::chrono::steady_clock::now();
  const JobSpec& spec = job.spec;
  const bool internal = job.conn == nullptr;
  {
    Json ev = Json::object();
    ev.set("event", "started");
    ev.set("id", spec.id);
    ev.set("circuit", spec.circuit);
    ev.set("proc", spec.proc);
    ev.set("k", static_cast<std::uint64_t>(spec.k));
    ev.set("lane", static_cast<std::uint64_t>(lane.index));
    if (internal) ev.set("recovered", true);
    EventLog::emit("job", std::move(ev));
  }
  if (job.journaled) wal_append_mark("started", job.seq);

  JobResult r;
  r.id = spec.id;
  if (robust::inject_lane_crash()) {
    // Scripted lane crash: the job dies mid-flight with an internal
    // error; the lane (and the daemon) survive and keep serving.
    r.status = robust::RunStatus::Error;
    r.error = "internal error: injected lane crash";
    r.report = robust::error_report("resynth_flow", r.status, r.error, now_ns())
                 .to_json();
    if (job.journaled) {
      JobExecution crashed;
      crashed.status = r.status;
      wal_append_finished(job.seq, "", "", crashed);
    }
  } else {
    const std::optional<std::string> canonical = canonical_input(spec);
    CachedResult cached;
    bool hit = false;
    if (canonical && spec.deadline <= 0.0) {
      std::lock_guard<std::mutex> lock(cache_mu_);
      hit = cache_.lookup(*canonical, spec.option_key(), &cached);
    }
    if (hit) {
      r.status = cached.status;
      r.cache_hit = true;
      r.bench = cached.bench;
      r.report = cached.report;
      r.stdout_text = cached.stdout_text;
      if (job.journaled) wal_append_mark("cached", job.seq);
    } else {
      begin_job_isolation();
      JobExecution exec = run_resynth_job(spec);
      exec.cacheable = exec.cacheable && canonical.has_value();
      r.status = exec.status;
      r.error = exec.error;
      r.bench = exec.bench;
      r.report = exec.report;
      r.stdout_text = exec.stdout_text;
      if (exec.cacheable) {
        std::lock_guard<std::mutex> lock(cache_mu_);
        cache_.insert(*canonical, spec.option_key(),
                      CachedResult{exec.status, exec.bench, exec.report,
                                   exec.stdout_text});
      }
      if (job.journaled) {
        wal_append_finished(job.seq, canonical ? *canonical : "",
                            spec.option_key(), exec);
      }
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.jobs_executed;
    }
  }
  r.wall_ms = ms_since(t0);
  if (!internal) {
    // Tally before respond(): once the client holds the reply, a stats
    // query from any connection must already see this job counted.
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.jobs_served;
      switch (r.status) {
        case robust::RunStatus::Complete: ++stats_.status_ok; break;
        case robust::RunStatus::Degraded: ++stats_.status_degraded; break;
        case robust::RunStatus::Interrupted: ++stats_.status_interrupted; break;
        case robust::RunStatus::Error: ++stats_.status_error; break;
      }
    }
    job.conn->inflight.fetch_sub(1, std::memory_order_relaxed);
    respond(job.conn, r.to_json());
  }
  refresh_cache_stats();
  Json ev = Json::object();
  ev.set("event", "finished");
  ev.set("id", spec.id);
  ev.set("circuit", spec.circuit);
  ev.set("status", robust::to_string(r.status));
  ev.set("cache", r.cache_hit ? "hit" : "miss");
  ev.set("lane", static_cast<std::uint64_t>(lane.index));
  ev.set("wall_ms", r.wall_ms);
  ev.set("peak_rss_bytes", peak_rss_bytes());
  if (internal) ev.set("recovered", true);
  EventLog::emit("job", std::move(ev));
}

// ---------------------------------------------------------------------------
// Monitor
// ---------------------------------------------------------------------------

void Server::monitor_loop() {
  const auto watchdog_ms =
      static_cast<std::uint64_t>(config_.watchdog_seconds * 1000.0);
  while (lanes_running_.load() != 0) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait_for(lk, std::chrono::milliseconds(kPollIntervalMs),
                   [&] { return lanes_running_.load() == 0; });
    }
    // The monitor thread is unbound (default slot): the only cancellation
    // that can land here is the process-wide signal broadcast.
    if (robust::cancel_requested()) begin_drain(Drain::Abort, nullptr);
    if (watchdog_ms == 0) continue;
    const std::uint64_t now = steady_ms();
    for (auto& lane : lanes_) {
      const std::uint64_t since =
          lane->busy_since_ms.load(std::memory_order_relaxed);
      if (since == 0 || now - since < watchdog_ms) continue;
      const std::uint64_t seq =
          lane->current_seq.load(std::memory_order_relaxed);
      if (lane->watchdog_kicked_seq == seq) continue;  // one kick per job
      lane->watchdog_kicked_seq = seq;
      // Deadline on the lane's slot: the wedged job winds down at its
      // next poll point and answers "interrupted"; neighbours never see
      // it, and the lane moves on to the next job.
      robust::request_cancel_on(lane->slot, robust::StopReason::Deadline);
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.watchdog_fires;
      }
      Json ev = Json::object();
      ev.set("event", "watchdog");
      ev.set("lane", static_cast<std::uint64_t>(lane->index));
      ev.set("seq", seq);
      EventLog::emit("job", std::move(ev));
    }
  }
}

int Server::run() {
  // Results written to a client that vanished must be a per-job statistic,
  // not a process-killing SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
  // Job reports embed counters/spans exactly like a one-shot run with
  // --report, which records at the report level; match it.
  obs_set_level(ObsLevel::report);
  if (!config_.events_path.empty()) {
    std::string err;
    if (!EventLog::open(config_.events_path, "resynth_serve", &err)) {
      std::cerr << "error: " << err << "\n";
      return robust::kExitUsage;
    }
  }
  if (!config_.wal_path.empty()) recover_wal();
  if (config_.use_stdio) {
    auto conn = std::make_shared<Connection>();
    conn->rfd = 0;
    conn->wfd = 1;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.connections;
    }
    std::lock_guard<std::mutex> lock(conns_mu_);
    readers_.emplace_back(&Server::reader_loop, this, std::move(conn));
  } else {
    std::string err;
    if (setup_socket(&err) != 0) {
      std::cerr << "error: " << err << "\n";
      return robust::kExitInputError;
    }
    listener_ = std::thread(&Server::listener_loop, this);
  }

  // ---- lanes up, then monitor until they all retire ----
  lanes_.reserve(config_.lanes);
  for (unsigned i = 0; i < config_.lanes; ++i) {
    lanes_.push_back(std::make_unique<Lane>(i));
  }
  lanes_running_.store(config_.lanes);
  for (auto& lane : lanes_) {
    lane->thread = std::thread(&Server::lane_loop, this, std::ref(*lane));
  }
  monitor_loop();
  for (auto& lane : lanes_) {
    if (lane->thread.joinable()) lane->thread.join();
  }

  // ---- teardown ----
  if (drain_.load() == Drain::None) drain_.store(Drain::Graceful);
  if (listener_.joinable()) listener_.join();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (std::thread& t : readers_) {
      if (t.joinable()) t.join();
    }
  }
  // Jobs still queued (abort drain, or a race with a graceful one) are
  // answered, not dropped on the floor. Their WAL records stay live, so a
  // restarted daemon re-executes them.
  std::deque<Pending> leftovers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftovers.swap(queue_);
  }
  for (Pending& p : leftovers) {
    if (p.conn == nullptr) continue;  // internal replay job: nobody to answer
    JobResult r;
    r.id = p.spec.id;
    r.status = robust::RunStatus::Interrupted;
    r.error = "daemon shutting down before this job ran";
    r.report = robust::error_report("resynth_flow", r.status, r.error, now_ns())
                 .to_json();
    respond(p.conn, r.to_json());
    p.conn->inflight.fetch_sub(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.jobs_served;
    ++stats_.status_interrupted;
  }
  if (!config_.use_stdio) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(config_.socket_path.c_str());
  }
  const bool aborted = drain_.load() == Drain::Abort;
  if (!aborted && bye_conn_ != nullptr) {
    std::uint64_t served = 0;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      served = stats_.jobs_served;
    }
    Json bye = Json::object();
    bye.set("type", "bye");
    bye.set("jobs_served", served);
    respond(bye_conn_, bye);
  }
  {
    std::lock_guard<std::mutex> lock(wal_mu_);
    wal_.close();
  }
  EventLog::finish(robust::to_string(aborted ? robust::RunStatus::Interrupted
                                             : robust::RunStatus::Complete));
  return aborted ? robust::exit_code_for_cancel() : robust::kExitOk;
}

}  // namespace compsyn::serve
