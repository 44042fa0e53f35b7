#include "obs/chrome_trace.hpp"

#include <fstream>
#include <mutex>

namespace compsyn {
namespace {

bool write_text(const std::string& path, const std::string& text,
                std::string* error) {
  std::ofstream os(path);
  if (!os) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  os << text << '\n';
  os.flush();
  if (!os) {
    if (error != nullptr) *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

}  // namespace
}  // namespace compsyn

#if COMPSYN_TRACE

#include <algorithm>
#include <atomic>
#include <vector>

#include "obs/json.hpp"

namespace compsyn {
namespace {

struct Event {
  char ph;                // 'X', 'i', 'C'
  std::uint64_t ts_ns;    // relative to open()
  std::uint64_t dur_ns;   // 'X' only
  double value;           // counter sample
  std::string name;
};

struct Collector {
  std::mutex mu;
  std::vector<Event> events;
  std::uint64_t epoch_ns = 0;  // set by open()
  std::string armed_path;      // flush target ("" = none)
};

std::atomic<bool> g_open{false};

Collector& collector() {
  static Collector* c = new Collector();  // leaked: events may land at exit
  return *c;
}

void push(char ph, std::uint64_t at_ns, std::uint64_t dur_ns, double value,
          std::string_view name) {
  if (!g_open.load(std::memory_order_relaxed)) return;
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.mu);
  const std::uint64_t ts = at_ns >= c.epoch_ns ? at_ns - c.epoch_ns : 0;
  c.events.push_back({ph, ts, dur_ns, value, std::string(name)});
}

/// ts in fractional microseconds, the unit the trace-event format uses.
double ts_us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

Json event_json(const Event& e) {
  Json o = Json::object();
  if (!e.name.empty()) o.set("name", e.name);
  o.set("ph", std::string(1, e.ph));
  o.set("ts", ts_us(e.ts_ns));
  o.set("pid", std::uint64_t{1});
  o.set("tid", std::uint64_t{0});
  if (e.ph == 'X') o.set("dur", ts_us(e.dur_ns));
  if (e.ph == 'i') o.set("s", "t");
  if (e.ph == 'C') {
    Json args = Json::object();
    args.set("value", e.value);
    o.set("args", std::move(args));
  }
  return o;
}

Json metadata_json(const char* what, const std::string& name) {
  Json o = Json::object();
  o.set("name", what);
  o.set("ph", "M");
  o.set("ts", 0.0);
  o.set("pid", std::uint64_t{1});
  o.set("tid", std::uint64_t{0});
  Json args = Json::object();
  args.set("name", name);
  o.set("args", std::move(args));
  return o;
}

std::string trace_text(std::vector<Event> events) {
  // Buffer order is close order; a slice is pushed after the work it
  // describes. Sort by start time (stable, so equal stamps keep close
  // order); the recorded intervals nest in real time.
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  Json out = Json::array();
  out.push(metadata_json("process_name", "compsyn"));
  if (!events.empty()) out.push(metadata_json("thread_name", "main"));
  for (const Event& e : events) out.push(event_json(e));
  Json doc = Json::object();
  doc.set("traceEvents", std::move(out));
  doc.set("displayTimeUnit", "ms");
  return doc.dump(0);
}

}  // namespace

void ChromeTrace::open(std::string path) {
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.mu);
  c.epoch_ns = now_ns();
  c.armed_path = std::move(path);
  g_open.store(true, std::memory_order_relaxed);
}

bool ChromeTrace::flush(std::string* error) {
  std::string path;
  std::vector<Event> events;
  {
    Collector& c = collector();
    std::lock_guard<std::mutex> lock(c.mu);
    path.swap(c.armed_path);
    events = c.events;
  }
  if (path.empty()) return true;
  return write_text(path, trace_text(std::move(events)), error);
}

void ChromeTrace::reset() {
  g_open.store(false, std::memory_order_relaxed);
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.mu);
  c.events.clear();
  c.armed_path.clear();
}

std::size_t ChromeTrace::event_count() {
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.mu);
  return c.events.size();
}

void ChromeTrace::record(std::string_view name, std::uint64_t start_ns,
                         std::uint64_t dur_ns) {
  push('X', start_ns, dur_ns, 0.0, name);
}

void ChromeTrace::record_instant(std::string_view name) {
  push('i', now_ns(), 0, 0.0, name);
}

void ChromeTrace::record_counter(std::string_view name, double value) {
  push('C', now_ns(), 0, value, name);
}


}  // namespace compsyn

#else  // COMPSYN_TRACE == 0

namespace compsyn {
namespace {

std::mutex g_mu;
std::string g_armed_path;

}  // namespace

void ChromeTrace::open(std::string path) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_armed_path = std::move(path);
}

// Even the compiled-out build honours --trace-out with a valid (empty) trace
// so tooling pointed at the file does not choke on a missing artifact.
bool ChromeTrace::flush(std::string* error) {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    path.swap(g_armed_path);
  }
  if (path.empty()) return true;
  return write_text(path, "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}",
                    error);
}

}  // namespace compsyn

#endif  // COMPSYN_TRACE
