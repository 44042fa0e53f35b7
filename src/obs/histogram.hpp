// Fixed log-scale duration histograms for resource attribution below the
// span level: per-cone evaluation times (`resynth.cone.ns`), per-fault ATPG
// decisions (`atpg.fault.ns`), individual SAT queries (`sat.query.ns`).
//
// Buckets are FIXED power-of-two nanosecond ranges -- bucket k counts samples
// in [2^k, 2^(k+1)) ns (bucket 0 also absorbs 0) -- so the bucket layout is
// a constant of the binary, never of the data. Bucket *counts* are timing
// data and vary run to run, but the total sample count per histogram is a
// pure function of the work performed.
//
// Samples come from Sample spans (obs/trace.hpp), which record only at
// ObsLevel::extended, so plain --report runs keep byte-identical reports.
// A Sample span labelled "resynth.cone" feeds the histogram reported as
// "resynth.cone.ns".
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"

namespace compsyn {

/// Number of power-of-two buckets: [0,2), [2,4), ..., [2^39, inf) covers
/// sub-nanosecond noise through ~9-minute outliers.
inline constexpr unsigned kHistBuckets = 40;

struct HistStat {
  std::string name;
  std::uint64_t count = 0;    // total samples
  std::uint64_t sum_ns = 0;   // total duration (timing data; masked in diffs)
  std::vector<std::uint64_t> buckets;  // kHistBuckets counts
};

#if COMPSYN_TRACE

class Histogram {
 public:
  /// Sample-span sink: one duration sample for the histogram of `label`.
  static void record(std::string_view label, std::uint64_t ns);

  /// The fixed bucket a duration falls into: floor(log2(max(ns,1))),
  /// clamped to the last bucket.
  static unsigned bucket_for(std::uint64_t ns);

  /// Inclusive upper bound of bucket k (2^(k+1)-1; ~0 for the last).
  static std::uint64_t bucket_upper_ns(unsigned k);

  /// All histograms ("<label>.ns"), sorted by name.
  static std::vector<HistStat> snapshot();

  /// Drops every histogram. Test helper.
  static void reset();
};

#else  // COMPSYN_TRACE == 0

class Histogram {
 public:
  static void record(std::string_view, std::uint64_t) {}
  static unsigned bucket_for(std::uint64_t) { return 0; }
  static std::uint64_t bucket_upper_ns(unsigned) { return 0; }
  static std::vector<HistStat> snapshot() { return {}; }
  static void reset() {}
};

#endif

}  // namespace compsyn
