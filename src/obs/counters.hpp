// Named integer counters and value distributions with a thread-safe global
// registry.
//
//   Counters::incr("atpg.backtracks");              // +1
//   Counters::incr("fsim.patterns", 64);            // +delta
//   Counters::observe("fsim.drops_per_block", 3.0); // distribution sample
//
// Hot call sites should accumulate locally and incr once per batch (the
// fault simulator does this per 64-pattern block). Calls are no-ops while
// the level is off (obs.hpp); snapshots and value() always reflect what has
// been recorded so far.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"

namespace compsyn {

struct CounterStat {
  std::string name;
  std::uint64_t value = 0;
};

/// Summary of observe() samples for one name.
struct DistStat {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

#if COMPSYN_TRACE

class Counters {
 public:
  /// Adds delta to the named counter (no-op while recording is off).
  static void incr(std::string_view name, std::uint64_t delta = 1);

  /// Records one sample of a value distribution (count/sum/min/max).
  static void observe(std::string_view name, double value);

  /// Current value of a counter (0 if never incremented).
  static std::uint64_t value(std::string_view name);

  /// All counters, sorted by name.
  static std::vector<CounterStat> counters();

  /// All distributions, sorted by name.
  static std::vector<DistStat> distributions();

  /// Adds recorded totals to the current ones: a resumed run takes over the
  /// counters and distributions of the run its checkpoint came from.
  static void merge(const std::vector<CounterStat>& counters,
                    const std::vector<DistStat>& dists);

  /// Drops every counter and distribution. Test helper.
  static void reset();

  /// Human-readable tables of counters and distributions.
  static void print_summary(std::ostream& os);
};

#else  // COMPSYN_TRACE == 0

class Counters {
 public:
  static void incr(std::string_view, std::uint64_t = 1) {}
  static void observe(std::string_view, double) {}
  static std::uint64_t value(std::string_view) { return 0; }
  static std::vector<CounterStat> counters() { return {}; }
  static std::vector<DistStat> distributions() { return {}; }
  static void merge(const std::vector<CounterStat>&,
                    const std::vector<DistStat>&) {}
  static void reset() {}
  static void print_summary(std::ostream&) {}
};

#endif

}  // namespace compsyn
