// Content-addressed cross-job result cache (DESIGN.md §13.3).
//
// Keyed by what the job *means*, not what it looked like on the wire: the
// input netlist is canonicalised through the same .bench round-trip the
// checkpoint machinery uses (parse -> write_bench_string), so two textually
// different descriptions of the same circuit share one entry, and the key
// is the structural FNV-1a fingerprint of that canonical text (the same
// robust::fnv1a64 the SatSession and checkpoint formats already use) mixed
// with the fingerprint of the job's option key via signature_mix. A 64-bit
// key is never trusted alone: every probe is confirmed by an exact compare
// of the stored canonical text and option key (the SatSession /
// identification-memo rule), so a fingerprint collision costs one string
// compare and can never serve a wrong result.
//
// Eviction is bounded-memory LRU with a deterministic order: entries carry
// the ordinal of their last touch, ordinals advance only when the (serial)
// executor looks up or inserts, and eviction removes the
// smallest-last-touch entry until the byte budget holds. Given the same job
// sequence, the cache's hit/miss/evict trace is therefore identical on
// every run -- there is no wall-clock or address-order dependence anywhere.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/json.hpp"
#include "robust/robust.hpp"

namespace compsyn::serve {

/// What a hit serves back: the executed job's three artifacts plus its
/// terminal status (complete or degraded; nothing else is cached).
struct CachedResult {
  robust::RunStatus status = robust::RunStatus::Complete;
  std::string bench;
  Json report;
  std::string stdout_text;
};

class ResultCache {
 public:
  /// `max_bytes` bounds the sum of entry sizes (canonical text + artifacts);
  /// 0 disables caching entirely (lookups miss, inserts drop).
  explicit ResultCache(std::uint64_t max_bytes) : max_bytes_(max_bytes) {}

  /// Fingerprint of (canonical bench text, option key). Exposed for tests.
  static std::uint64_t key_of(const std::string& canonical_bench,
                              const std::string& option_key);

  /// Probes the cache. On a fingerprint match the stored canonical text and
  /// option key are compared exactly; only a confirmed match returns true
  /// (and refreshes the entry's LRU ordinal).
  bool lookup(const std::string& canonical_bench, const std::string& option_key,
              CachedResult* out);

  /// Inserts (or refreshes) an entry, then evicts least-recently-touched
  /// entries until the byte budget holds. An entry larger than the whole
  /// budget is dropped immediately.
  void insert(const std::string& canonical_bench, const std::string& option_key,
              CachedResult result);

  /// One live entry, as needed to rebuild the cache (WAL compaction).
  struct SnapshotEntry {
    std::string canonical_bench;
    std::string option_key;
    CachedResult result;
  };

  /// Every live entry, most-recently-touched first (deterministic order).
  /// Used by the daemon to compact the job journal down to its cache.
  std::vector<SnapshotEntry> snapshot() const;

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t collisions() const { return collisions_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t entries() const { return lru_.size(); }
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t max_bytes() const { return max_bytes_; }

 private:
  struct Entry {
    std::string canonical_bench;  // exact-confirm guard
    std::string option_key;       // exact-confirm guard
    CachedResult result;
    std::uint64_t size_bytes = 0;
  };
  // LRU list, most-recent at the front; the map points into it. Keyed by
  // the 64-bit fingerprint -- multiple semantically distinct entries behind
  // one fingerprint are legal (chained in the list, all exact-confirmed).
  using LruList = std::list<std::pair<std::uint64_t, Entry>>;

  static std::uint64_t entry_bytes(const Entry& e);
  void evict_to_budget();

  std::uint64_t max_bytes_;
  LruList lru_;
  std::unordered_multimap<std::uint64_t, LruList::iterator> index_;
  std::uint64_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t collisions_ = 0;  // fingerprint matched, exact confirm failed
  std::uint64_t evictions_ = 0;
};

}  // namespace compsyn::serve
