#include "obs/trace.hpp"

#include <chrono>

namespace compsyn {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace compsyn

#if COMPSYN_TRACE

#include <algorithm>
#include <limits>
#include <map>
#include <mutex>
#include <ostream>

#include "obs/chrome_trace.hpp"
#include "obs/domain.hpp"
#include "obs/events.hpp"
#include "obs/histogram.hpp"
#include "obs/memstats.hpp"
#include "obs/telemetry.hpp"
#include "util/table.hpp"

namespace compsyn {

namespace obs_detail {
std::atomic<ObsLevel> g_level{ObsLevel::off};
}  // namespace obs_detail

namespace {

struct Agg {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t min_ns = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ns = 0;
};

struct Registry {
  std::mutex mu;
  // transparent comparator: lookup by string_view without allocating
  std::map<std::string, std::uint32_t, std::less<>> slots;
  std::vector<const std::string*> labels;  // slot -> label (stable map keys)
  std::vector<Agg> aggs;

  std::uint32_t slot_for(std::string_view label) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = slots.find(label);
    if (it != slots.end()) return it->second;
    const auto slot = static_cast<std::uint32_t>(aggs.size());
    auto [pos, inserted] = slots.emplace(std::string(label), slot);
    labels.push_back(&pos->first);
    aggs.emplace_back();
    return slot;
  }

  void record(std::uint32_t slot, std::uint64_t total, std::uint64_t self) {
    std::lock_guard<std::mutex> lock(mu);
    Agg& a = aggs[slot];
    ++a.count;
    a.total_ns += total;
    a.self_ns += self;
    a.min_ns = std::min(a.min_ns, total);
    a.max_ns = std::max(a.max_ns, total);
  }
};

// The calling thread's registry: lives in the bound obs domain (default
// domain for one-shot binaries, which is leaked -- spans may end at exit
// time).
Registry& registry() {
  return *static_cast<Registry*>(obs_current_domain().get_or_create(
      kObsSlotTrace, [] { return static_cast<void*>(new Registry()); },
      [](void* p) { delete static_cast<Registry*>(p); }));
}

thread_local Span* t_current = nullptr;  // innermost open Scope span

}  // namespace

void Span::open(std::string_view label, SpanKind kind, std::uint64_t id) {
  active_ = true;
  kind_ = kind;
  label_ = label;
  id_ = id;
  if (kind == SpanKind::Scope) {
    Registry& r = registry();
    registry_ = &r;
    slot_ = r.slot_for(label);
    parent_ = t_current;
    t_current = this;
  } else if (kind == SpanKind::Phase) {
    const MemSnapshot m = mem_snapshot();
    count_ = m.alloc_count;
    bytes_ = m.alloc_bytes;
    EventLog::phase(label, /*begin=*/true);
  }
  start_ns_ = now_ns();
}

void Span::close() {
  const std::uint64_t dur = now_ns() - start_ns_;
  switch (kind_) {
    case SpanKind::Scope: {
      t_current = parent_;
      if (parent_ != nullptr) parent_->child_ns_ += dur;
      // Record into the registry the span *started* in: the slot index is
      // only meaningful there, and a domain rebind mid-span must not leak
      // the measurement into a neighbouring domain.
      static_cast<Registry*>(registry_)->record(
          slot_, dur, dur - std::min(child_ns_, dur));
      break;
    }
    case SpanKind::Sample:
      Histogram::record(label_, dur);
      break;
    case SpanKind::Phase: {
      const MemSnapshot m = mem_snapshot();
      obs_detail::record_phase({std::string(label_), dur,
                                m.alloc_count - count_,
                                m.alloc_bytes - bytes_, peak_rss_bytes()});
      EventLog::phase(label_, /*begin=*/false);
      break;
    }
    case SpanKind::Root:
      obs_detail::record_hot_cone(
          label_.empty() ? "n" + std::to_string(id_) : std::string(label_),
          dur, count_);
      return;  // per-root totals are a report view, not a timeline slice
  }
  ChromeTrace::record(label_, start_ns_, dur);
}

std::vector<SpanStats> Trace::snapshot() {
  Registry& r = registry();
  std::vector<SpanStats> out;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    out.reserve(r.aggs.size());
    for (std::uint32_t s = 0; s < r.aggs.size(); ++s) {
      const Agg& a = r.aggs[s];
      if (a.count == 0) continue;
      SpanStats st;
      st.label = *r.labels[s];
      st.count = a.count;
      st.total_ns = a.total_ns;
      st.self_ns = a.self_ns;
      st.min_ns = a.min_ns;
      st.max_ns = a.max_ns;
      out.push_back(std::move(st));
    }
  }
  std::sort(out.begin(), out.end(), [](const SpanStats& a, const SpanStats& b) {
    if (a.total_ns != b.total_ns) return a.total_ns > b.total_ns;
    return a.label < b.label;
  });
  return out;
}

void Trace::merge(const std::vector<SpanStats>& spans) {
  Registry& r = registry();
  for (const SpanStats& s : spans) {
    const std::uint32_t slot = r.slot_for(s.label);
    std::lock_guard<std::mutex> lock(r.mu);
    Agg& a = r.aggs[slot];
    a.count += s.count;
    a.total_ns += s.total_ns;
    a.self_ns += s.self_ns;
    a.min_ns = std::min(a.min_ns, s.min_ns);
    a.max_ns = std::max(a.max_ns, s.max_ns);
  }
}

void Trace::reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.slots.clear();
  r.labels.clear();
  r.aggs.clear();
}

void Trace::print_summary(std::ostream& os) {
  const auto spans = snapshot();
  if (spans.empty()) {
    os << "(no spans recorded)\n";
    return;
  }
  const auto ms = [](std::uint64_t ns) {
    return static_cast<double>(ns) / 1e6;
  };
  Table t({"span", "calls", "total ms", "self ms", "min ms", "max ms"});
  for (const SpanStats& s : spans) {
    t.row()
        .add(s.label)
        .add(s.count)
        .add(ms(s.total_ns), 3)
        .add(ms(s.self_ns), 3)
        .add(ms(s.min_ns), 3)
        .add(ms(s.max_ns), 3);
  }
  t.print(os);
}

}  // namespace compsyn

#endif  // COMPSYN_TRACE
