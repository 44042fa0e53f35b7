#include "obs/events.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <utility>

#include <unistd.h>

namespace compsyn {
namespace {

struct LogState {
  std::mutex mu;
  std::FILE* file = nullptr;  // guarded by mu
  std::uint64_t seq = 0;      // guarded by mu
  std::uint64_t epoch_ns = 0;  // guarded by mu
};

LogState& state() {
  static LogState s;
  return s;
}

// Cheap pre-check so instrumentation sites skip the mutex when no log is
// open (the common case). The compiled-out build keeps open/finish, so
// --events still yields a schema-valid start/finish log with the run's
// status, and compiles the instrumentation records away.
std::atomic<bool> g_active{false};

// Must be called with s.mu held.
void write_record_locked(LogState& s, std::string_view type, Json fields) {
  const double t_ms = static_cast<double>(now_ns() - s.epoch_ns) / 1e6;
  Json rec = Json::object();
  rec.set("type", Json(std::string(type)));
  rec.set("seq", Json(s.seq++));
  rec.set("t_ms", Json(t_ms));
  if (fields.is_object()) {
    for (const auto& [key, value] : fields.items()) {
      rec.set(key, value);
    }
  }
  std::string line = rec.dump();
  line.push_back('\n');
  std::fwrite(line.data(), 1, line.size(), s.file);
  std::fflush(s.file);
}

// Must be called with s.mu held.
void close_locked(LogState& s) {
  if (s.file != nullptr) {
    std::fclose(s.file);
    s.file = nullptr;
  }
  g_active.store(false, std::memory_order_relaxed);
}

}  // namespace

bool EventLog::open(const std::string& path, std::string_view name,
                    std::string* error) {
  LogState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  close_locked(s);
  s.file = std::fopen(path.c_str(), "w");
  if (s.file == nullptr) {
    if (error != nullptr) *error = "cannot open event log: " + path;
    return false;
  }
  s.seq = 0;
  s.epoch_ns = now_ns();
  g_active.store(true, std::memory_order_relaxed);
  Json fields = Json::object();
  fields.set("schema", Json(std::string(kEventSchema)));
  fields.set("name", Json(std::string(name)));
  fields.set("pid", Json(static_cast<std::int64_t>(::getpid())));
  write_record_locked(s, "start", std::move(fields));
  return true;
}

#if COMPSYN_TRACE

bool EventLog::active() { return g_active.load(std::memory_order_relaxed); }

void EventLog::emit(std::string_view type, Json fields) {
  if (!active()) return;
  LogState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.file == nullptr) return;
  write_record_locked(s, type, std::move(fields));
}

void EventLog::phase(std::string_view name, bool begin) {
  if (!active()) return;
  Json fields = Json::object();
  fields.set("phase", Json(std::string(name)));
  fields.set("event", Json(std::string(begin ? "begin" : "end")));
  emit("phase", std::move(fields));
}

void EventLog::progress(std::string_view phase, std::uint64_t done,
                        std::uint64_t total) {
  if (!active()) return;
  Json fields = Json::object();
  fields.set("phase", Json(std::string(phase)));
  fields.set("done", Json(done));
  fields.set("total", Json(total));
  emit("progress", std::move(fields));
}

void EventLog::heartbeat(std::string_view phase, double elapsed_s) {
  if (!active()) return;
  Json fields = Json::object();
  fields.set("phase", Json(std::string(phase)));
  fields.set("elapsed_s", Json(elapsed_s));
  emit("heartbeat", std::move(fields));
}

void EventLog::milestone(std::string_view what) {
  if (!active()) return;
  Json fields = Json::object();
  fields.set("what", Json(std::string(what)));
  emit("milestone", std::move(fields));
}

#endif  // COMPSYN_TRACE

void EventLog::finish(std::string_view status) {
  LogState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.file == nullptr) return;
  Json fields = Json::object();
  fields.set("status", Json(std::string(status)));
  write_record_locked(s, "finish", std::move(fields));
  close_locked(s);
}

void EventLog::reset() {
  LogState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  close_locked(s);
  s.seq = 0;
}

}  // namespace compsyn
