// Span: the one timing primitive (see obs.hpp for the sink table).
//
//   {
//     const Span sp("resynth.pass");                   // aggregate table
//     const Span cone("resynth.cone", SpanKind::Sample);  // histogram
//     ...work...
//   }  // each span records once, on scope exit
//
// The aggregate table keeps, per label, call count, total time, self time
// (total minus the Scope spans nested in it on the same thread), and
// min/max per-call duration. It lives in the thread's bound ObsDomain, so
// each serving lane reports only its own job's spans.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"

namespace compsyn {

/// Which sinks a span feeds when it closes (obs.hpp has the table).
enum class SpanKind : std::uint8_t {
  Scope,   // aggregate table; from ObsLevel::report
  Sample,  // duration histogram "<label>.ns"; extended only
  Phase,   // wall/allocation/peak-RSS attribution + event log; extended only
  Root,    // hot-cone registry keyed by label; extended only
};

/// Aggregated statistics for one span label.
struct SpanStats {
  std::string label;
  std::uint64_t count = 0;     // completed spans
  std::uint64_t total_ns = 0;  // wall time, children included
  std::uint64_t self_ns = 0;   // wall time minus same-thread child spans
  std::uint64_t min_ns = 0;    // fastest single span
  std::uint64_t max_ns = 0;    // slowest single span
};

#if COMPSYN_TRACE

/// RAII span. Not copyable or movable: keep it in a local for the scope
/// being measured. `label` must outlive the span. A Root span with an empty
/// label (a nameless gate) is keyed "n<id>".
class Span {
 public:
  explicit Span(std::string_view label, SpanKind kind = SpanKind::Scope,
                std::uint64_t id = 0) {
    if (obs_level() >= (kind == SpanKind::Scope ? ObsLevel::report
                                                : ObsLevel::extended)) {
      open(label, kind, id);
    }
  }
  ~Span() {
    if (active_) close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Work items covered by a Root span (the cones evaluated under it).
  void set_count(std::uint64_t n) { count_ = n; }

 private:
  void open(std::string_view label, SpanKind kind, std::uint64_t id);
  void close();

  bool active_ = false;
  SpanKind kind_ = SpanKind::Scope;
  std::uint32_t slot_ = 0;      // Scope: aggregate slot
  void* registry_ = nullptr;    // Scope: registry of the opening domain
  Span* parent_ = nullptr;      // Scope: enclosing Scope span on this thread
  std::string_view label_;
  std::uint64_t id_ = 0;
  std::uint64_t count_ = 0;     // Root: cones; Phase: allocations at open
  std::uint64_t bytes_ = 0;     // Phase: bytes allocated at open
  std::uint64_t start_ns_ = 0;
  std::uint64_t child_ns_ = 0;  // Scope: accumulated by direct children
};

/// The aggregate table of the calling thread's domain.
class Trace {
 public:
  /// Snapshot of every label seen so far, sorted by descending total time.
  static std::vector<SpanStats> snapshot();

  /// Adds recorded aggregates to the table: a resumed run takes over the
  /// spans of the run its checkpoint came from.
  static void merge(const std::vector<SpanStats>& spans);

  /// Drops all aggregates (labels are forgotten too). Test helper.
  static void reset();

  /// Human-readable aggregate table (label, calls, total/self ms, min/max).
  static void print_summary(std::ostream& os);
};

#else  // COMPSYN_TRACE == 0

class Span {
 public:
  explicit Span(std::string_view, SpanKind = SpanKind::Scope,
                std::uint64_t = 0) {}
  // Non-trivial so an unused `const Span sp(...)` never trips
  // -Wunused-variable in the compiled-out configuration.
  ~Span() {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void set_count(std::uint64_t) {}
};

class Trace {
 public:
  static std::vector<SpanStats> snapshot() { return {}; }
  static void merge(const std::vector<SpanStats>&) {}
  static void reset() {}
  static void print_summary(std::ostream&) {}
};

#endif

}  // namespace compsyn
