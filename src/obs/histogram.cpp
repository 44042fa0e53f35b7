#include "obs/histogram.hpp"

#if COMPSYN_TRACE

#include <algorithm>
#include <bit>
#include <map>
#include <mutex>

namespace compsyn {
namespace {

struct HistData {
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  std::uint64_t buckets[kHistBuckets] = {};
};

struct Registry {
  std::mutex mu;
  // Keyed by span label; the histogram set is small (a handful of fixed
  // instrumentation sites).
  std::map<std::string, HistData, std::less<>> hists;
};

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace

void Histogram::record(std::string_view label, std::uint64_t ns) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.hists.find(label);
  if (it == r.hists.end()) {
    it = r.hists.emplace(std::string(label), HistData{}).first;
  }
  HistData& h = it->second;
  h.count += 1;
  h.sum_ns += ns;
  h.buckets[bucket_for(ns)] += 1;
}

unsigned Histogram::bucket_for(std::uint64_t ns) {
  // floor(log2(max(ns, 1))) == bit_width(ns) - 1 for ns >= 1.
  unsigned k = ns == 0 ? 0 : static_cast<unsigned>(std::bit_width(ns)) - 1;
  return std::min(k, kHistBuckets - 1);
}

std::uint64_t Histogram::bucket_upper_ns(unsigned k) {
  if (k >= kHistBuckets - 1) return ~std::uint64_t{0};
  return (std::uint64_t{1} << (k + 1)) - 1;
}

std::vector<HistStat> Histogram::snapshot() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<HistStat> out;
  out.reserve(r.hists.size());
  for (const auto& [label, h] : r.hists) {
    HistStat s;
    s.name = label + ".ns";
    s.count = h.count;
    s.sum_ns = h.sum_ns;
    s.buckets.assign(h.buckets, h.buckets + kHistBuckets);
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(), [](const HistStat& a, const HistStat& b) {
    return a.name < b.name;
  });
  return out;
}

void Histogram::reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.hists.clear();
}

}  // namespace compsyn

#endif  // COMPSYN_TRACE
