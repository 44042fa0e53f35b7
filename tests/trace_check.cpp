#include "trace_check.hpp"

#include <map>
#include <set>
#include <utility>

#include "obs/json.hpp"

namespace compsyn {
namespace {

bool is_number(const Json* j) {
  if (j == nullptr) return false;
  switch (j->type()) {
    case Json::Type::Int:
    case Json::Type::Uint:
    case Json::Type::Double:
      return true;
    default:
      return false;
  }
}

struct OpenSpan {
  std::string name;
  double ts = 0;
};

void fail(TraceCheckResult& r, std::size_t index, std::string msg) {
  r.errors.push_back("event " + std::to_string(index) + ": " + std::move(msg));
}

}  // namespace

TraceCheckResult check_chrome_trace(std::string_view text) {
  TraceCheckResult r;
  std::string parse_error;
  std::optional<Json> doc = Json::parse(text, &parse_error);
  if (!doc.has_value()) {
    r.errors.push_back("not valid JSON: " + parse_error);
    return r;
  }
  if (!doc->is_object()) {
    r.errors.push_back("top level is not an object");
    return r;
  }
  const Json* events = doc->find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    r.errors.push_back("missing \"traceEvents\" array");
    return r;
  }

  using Track = std::pair<double, double>;  // (pid, tid)
  std::map<Track, std::vector<OpenSpan>> stacks;
  std::map<Track, double> last_ts;  // per-track B/E timestamp monotonicity
  std::set<Track> duration_tracks;

  for (std::size_t i = 0; i < events->size(); ++i) {
    const Json& e = events->at(i);
    r.events += 1;
    if (!e.is_object()) {
      fail(r, i, "not an object");
      continue;
    }

    const Json* name = e.find("name");
    if (name == nullptr || name->type() != Json::Type::String ||
        name->as_string().empty()) {
      fail(r, i, "missing or empty \"name\"");
      continue;
    }
    const Json* ph = e.find("ph");
    if (ph == nullptr || ph->type() != Json::Type::String ||
        ph->as_string().size() != 1) {
      fail(r, i, "missing \"ph\"");
      continue;
    }
    char phase = ph->as_string()[0];
    if (phase != 'B' && phase != 'E' && phase != 'i' && phase != 'C' &&
        phase != 'X' && phase != 'M') {
      fail(r, i, std::string("unknown ph \"") + phase + "\"");
      continue;
    }
    const Json* ts = e.find("ts");
    const Json* pid = e.find("pid");
    const Json* tid = e.find("tid");
    if (!is_number(ts)) {
      fail(r, i, "missing numeric \"ts\"");
      continue;
    }
    if (!is_number(pid) || !is_number(tid)) {
      fail(r, i, "missing numeric \"pid\"/\"tid\"");
      continue;
    }
    double ts_v = ts->as_double();
    if (ts_v < 0) {
      fail(r, i, "negative \"ts\"");
      continue;
    }
    Track track{pid->as_double(), tid->as_double()};

    switch (phase) {
      case 'B': {
        auto it = last_ts.find(track);
        if (it != last_ts.end() && ts_v < it->second) {
          fail(r, i, "\"ts\" goes backwards on its track");
        }
        last_ts[track] = ts_v;
        stacks[track].push_back(OpenSpan{name->as_string(), ts_v});
        duration_tracks.insert(track);
        break;
      }
      case 'E': {
        auto it = last_ts.find(track);
        if (it != last_ts.end() && ts_v < it->second) {
          fail(r, i, "\"ts\" goes backwards on its track");
        }
        last_ts[track] = ts_v;
        std::vector<OpenSpan>& stack = stacks[track];
        if (stack.empty()) {
          fail(r, i, "E \"" + name->as_string() + "\" with no open B");
          break;
        }
        if (stack.back().name != name->as_string()) {
          fail(r, i, "E \"" + name->as_string() +
                         "\" does not close innermost B \"" +
                         stack.back().name + "\"");
          break;
        }
        stack.pop_back();
        r.span_pairs += 1;
        duration_tracks.insert(track);
        break;
      }
      case 'X': {
        if (!is_number(e.find("dur"))) {
          fail(r, i, "X without numeric \"dur\"");
          break;
        }
        r.span_pairs += 1;
        duration_tracks.insert(track);
        break;
      }
      case 'i':
        r.instants += 1;
        break;
      case 'C': {
        const Json* args = e.find("args");
        bool has_series = false;
        if (args != nullptr && args->is_object()) {
          for (const auto& [key, value] : args->items()) {
            (void)key;
            if (is_number(&value)) has_series = true;
          }
        }
        if (!has_series) {
          fail(r, i, "C without a numeric series in \"args\"");
          break;
        }
        r.counter_samples += 1;
        break;
      }
      case 'M': {
        const Json* args = e.find("args");
        const Json* arg_name =
            args != nullptr ? args->find("name") : nullptr;
        if (arg_name == nullptr || arg_name->type() != Json::Type::String) {
          fail(r, i, "M without \"args\".\"name\"");
        }
        break;
      }
      default:
        break;
    }
  }

  for (const auto& [track, stack] : stacks) {
    for (const OpenSpan& open : stack) {
      r.errors.push_back("unclosed B \"" + open.name + "\" on track (" +
                         std::to_string(track.first) + ", " +
                         std::to_string(track.second) + ")");
    }
  }

  r.thread_tracks = duration_tracks.size();
  r.ok = r.errors.empty();
  return r;
}

}  // namespace compsyn
