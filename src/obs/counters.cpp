#include "obs/counters.hpp"

#if COMPSYN_TRACE

#include <algorithm>
#include <map>
#include <mutex>
#include <ostream>

#include "obs/domain.hpp"
#include "util/table.hpp"

namespace compsyn {
namespace {

struct Dist {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

struct Registry {
  std::mutex mu;
  std::map<std::string, std::uint64_t, std::less<>> counters;
  std::map<std::string, Dist, std::less<>> dists;
};

// The calling thread's registry: lives in the bound obs domain (default
// domain for one-shot binaries, which is leaked -- usable during exit).
Registry& registry() {
  return *static_cast<Registry*>(obs_current_domain().get_or_create(
      kObsSlotCounters, [] { return static_cast<void*>(new Registry()); },
      [](void* p) { delete static_cast<Registry*>(p); }));
}

}  // namespace

void Counters::incr(std::string_view name, std::uint64_t delta) {
  if (obs_level() == ObsLevel::off) return;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.counters.find(name);
  if (it == r.counters.end()) {
    r.counters.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void Counters::observe(std::string_view name, double value) {
  if (obs_level() == ObsLevel::off) return;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.dists.find(name);
  if (it == r.dists.end()) {
    Dist d;
    d.count = 1;
    d.sum = d.min = d.max = value;
    r.dists.emplace(std::string(name), d);
  } else {
    Dist& d = it->second;
    ++d.count;
    d.sum += value;
    d.min = std::min(d.min, value);
    d.max = std::max(d.max, value);
  }
}

std::uint64_t Counters::value(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.counters.find(name);
  return it == r.counters.end() ? 0 : it->second;
}

std::vector<CounterStat> Counters::counters() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<CounterStat> out;
  out.reserve(r.counters.size());
  for (const auto& [name, value] : r.counters) out.push_back({name, value});
  return out;
}

std::vector<DistStat> Counters::distributions() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<DistStat> out;
  out.reserve(r.dists.size());
  for (const auto& [name, d] : r.dists) {
    out.push_back({name, d.count, d.sum, d.min, d.max});
  }
  return out;
}

void Counters::merge(const std::vector<CounterStat>& counters,
                     const std::vector<DistStat>& dists) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const CounterStat& c : counters) r.counters[c.name] += c.value;
  for (const DistStat& d : dists) {
    Dist& mine = r.dists[d.name];
    mine.min = mine.count == 0 ? d.min : std::min(mine.min, d.min);
    mine.max = mine.count == 0 ? d.max : std::max(mine.max, d.max);
    mine.count += d.count;
    mine.sum += d.sum;
  }
}

void Counters::reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.counters.clear();
  r.dists.clear();
}

void Counters::print_summary(std::ostream& os) {
  const auto cs = counters();
  const auto ds = distributions();
  if (cs.empty() && ds.empty()) {
    os << "(no counters recorded)\n";
    return;
  }
  if (!cs.empty()) {
    Table t({"counter", "value"});
    for (const CounterStat& c : cs) t.row().add(c.name).add_commas(c.value);
    t.print(os);
  }
  if (!ds.empty()) {
    if (!cs.empty()) os << '\n';
    Table t({"distribution", "samples", "mean", "min", "max"});
    for (const DistStat& d : ds) {
      t.row()
          .add(d.name)
          .add_commas(d.count)
          .add(d.count == 0 ? 0.0 : d.sum / static_cast<double>(d.count), 2)
          .add(d.min, 2)
          .add(d.max, 2);
    }
    t.print(os);
  }
}

}  // namespace compsyn

#endif  // COMPSYN_TRACE
