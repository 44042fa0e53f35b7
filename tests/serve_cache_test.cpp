// ResultCache unit tests: exact-confirm hits, option-key separation,
// deterministic LRU eviction under a byte budget, refresh-in-place, the
// oversized-entry drop, and the disabled (0-byte) cache.
#include <gtest/gtest.h>

#include <string>

#include "serve/cache.hpp"

namespace compsyn::serve {
namespace {

CachedResult result_named(const std::string& tag, std::size_t pad = 0) {
  CachedResult r;
  r.status = robust::RunStatus::Complete;
  r.bench = "# " + tag + "\n" + std::string(pad, 'b');
  Json rep = Json::object();
  rep.set("name", "resynth_flow");
  rep.set("tag", tag);
  r.report = rep;
  r.stdout_text = "stdout of " + tag + "\n";
  return r;
}

TEST(ServeCache, MissThenInsertThenHitReturnsStoredArtifacts) {
  ResultCache cache(1 << 20);
  CachedResult out;
  EXPECT_FALSE(cache.lookup("bench-a", "opts-1", &out));
  EXPECT_EQ(cache.misses(), 1u);
  cache.insert("bench-a", "opts-1", result_named("a"));
  ASSERT_TRUE(cache.lookup("bench-a", "opts-1", &out));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(out.status, robust::RunStatus::Complete);
  EXPECT_EQ(out.bench, result_named("a").bench);
  EXPECT_EQ(out.report.dump(), result_named("a").report.dump());
  EXPECT_EQ(out.stdout_text, "stdout of a\n");
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_GT(cache.bytes(), 0u);
}

TEST(ServeCache, OptionKeySeparatesEntriesForTheSameCircuit) {
  ResultCache cache(1 << 20);
  cache.insert("bench-a", "k=5", result_named("k5"));
  cache.insert("bench-a", "k=6", result_named("k6"));
  EXPECT_EQ(cache.entries(), 2u);
  CachedResult out;
  ASSERT_TRUE(cache.lookup("bench-a", "k=5", &out));
  EXPECT_EQ(out.stdout_text, "stdout of k5\n");
  ASSERT_TRUE(cache.lookup("bench-a", "k=6", &out));
  EXPECT_EQ(out.stdout_text, "stdout of k6\n");
  EXPECT_FALSE(cache.lookup("bench-a", "k=7", nullptr));
}

TEST(ServeCache, LruEvictionIsOrderedByLastTouch) {
  // Size entries so three fit but a fourth forces one eviction.
  ResultCache cache(3 * 1500);
  cache.insert("A", "o", result_named("A", 1000));
  cache.insert("B", "o", result_named("B", 1000));
  cache.insert("C", "o", result_named("C", 1000));
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.evictions(), 0u);
  // Touch A so B becomes least-recently-used, then overflow.
  ASSERT_TRUE(cache.lookup("A", "o", nullptr));
  cache.insert("D", "o", result_named("D", 1000));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.lookup("A", "o", nullptr));   // kept: recently touched
  EXPECT_FALSE(cache.lookup("B", "o", nullptr));  // evicted: oldest touch
  EXPECT_TRUE(cache.lookup("C", "o", nullptr));
  EXPECT_TRUE(cache.lookup("D", "o", nullptr));
  EXPECT_LE(cache.bytes(), cache.max_bytes());
}

TEST(ServeCache, RefreshInPlaceDoesNotDuplicate) {
  ResultCache cache(1 << 20);
  cache.insert("A", "o", result_named("v1"));
  cache.insert("A", "o", result_named("v2", 500));
  EXPECT_EQ(cache.entries(), 1u);
  CachedResult out;
  ASSERT_TRUE(cache.lookup("A", "o", &out));
  EXPECT_EQ(out.stdout_text, "stdout of v2\n");
}

TEST(ServeCache, EntryLargerThanBudgetIsDropped) {
  ResultCache cache(256);
  cache.insert("A", "o", result_named("big", 10000));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_FALSE(cache.lookup("A", "o", nullptr));
}

TEST(ServeCache, ZeroBudgetDisablesCaching) {
  ResultCache cache(0);
  cache.insert("A", "o", result_named("a"));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_FALSE(cache.lookup("A", "o", nullptr));
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(ServeCache, KeyOfMixesBenchAndOptions) {
  const std::uint64_t k = ResultCache::key_of("bench", "opts");
  EXPECT_NE(k, ResultCache::key_of("bench", "opts2"));
  EXPECT_NE(k, ResultCache::key_of("bench2", "opts"));
  EXPECT_EQ(k, ResultCache::key_of("bench", "opts"));
}

}  // namespace
}  // namespace compsyn::serve
