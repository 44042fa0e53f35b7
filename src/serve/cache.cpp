#include "serve/cache.hpp"

#include <cstring>

#include "core/signature.hpp"
#include "robust/robust.hpp"

namespace compsyn::serve {

std::uint64_t ResultCache::key_of(const std::string& canonical_bench,
                                  const std::string& option_key) {
  return signature_mix(robust::fnv1a64(canonical_bench),
                       robust::fnv1a64(option_key));
}

std::uint64_t ResultCache::entry_bytes(const Entry& e) {
  // Accounting is intentionally coarse (string payloads dominate); the Json
  // report is charged at its serialized size.
  return e.canonical_bench.size() + e.option_key.size() +
         std::strlen(robust::to_string(e.result.status)) +
         e.result.bench.size() +
         e.result.stdout_text.size() + e.result.report.dump().size() + 128;
}

bool ResultCache::lookup(const std::string& canonical_bench,
                         const std::string& option_key, CachedResult* out) {
  if (max_bytes_ == 0) {
    ++misses_;
    return false;
  }
  const std::uint64_t key = key_of(canonical_bench, option_key);
  auto [lo, hi] = index_.equal_range(key);
  for (auto it = lo; it != hi; ++it) {
    const Entry& e = it->second->second;
    if (e.canonical_bench == canonical_bench && e.option_key == option_key) {
      lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
      ++hits_;
      if (out != nullptr) *out = e.result;
      return true;
    }
    ++collisions_;
  }
  ++misses_;
  return false;
}

void ResultCache::insert(const std::string& canonical_bench,
                         const std::string& option_key, CachedResult result) {
  if (max_bytes_ == 0) return;
  const std::uint64_t key = key_of(canonical_bench, option_key);
  // Refresh in place if the entry already exists (re-executed after a
  // colliding probe, or raced in by an earlier identical job).
  auto [lo, hi] = index_.equal_range(key);
  for (auto it = lo; it != hi; ++it) {
    Entry& e = it->second->second;
    if (e.canonical_bench == canonical_bench && e.option_key == option_key) {
      bytes_ -= e.size_bytes;
      e.result = std::move(result);
      e.size_bytes = entry_bytes(e);
      bytes_ += e.size_bytes;
      lru_.splice(lru_.begin(), lru_, it->second);
      evict_to_budget();
      return;
    }
  }
  Entry e;
  e.canonical_bench = canonical_bench;
  e.option_key = option_key;
  e.result = std::move(result);
  e.size_bytes = entry_bytes(e);
  if (e.size_bytes > max_bytes_) return;  // would evict everything for nothing
  bytes_ += e.size_bytes;
  lru_.emplace_front(key, std::move(e));
  index_.emplace(key, lru_.begin());
  evict_to_budget();
}

std::vector<ResultCache::SnapshotEntry> ResultCache::snapshot() const {
  std::vector<SnapshotEntry> out;
  out.reserve(lru_.size());
  for (const auto& [key, e] : lru_) {
    out.push_back(SnapshotEntry{e.canonical_bench, e.option_key, e.result});
  }
  return out;
}

void ResultCache::evict_to_budget() {
  while (bytes_ > max_bytes_ && !lru_.empty()) {
    auto victim = std::prev(lru_.end());
    auto [lo, hi] = index_.equal_range(victim->first);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == victim) {
        index_.erase(it);
        break;
      }
    }
    bytes_ -= victim->second.size_bytes;
    lru_.erase(victim);
    ++evictions_;
  }
}

}  // namespace compsyn::serve
