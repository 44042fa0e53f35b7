#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/comparison.hpp"
#include "core/comparison_unit.hpp"
#include "obs/counters.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace compsyn {
namespace {

/// Brute force ground truth: is the ON-set contiguous under SOME permutation?
bool brute_force_is_comparison(const TruthTable& f) {
  const unsigned n = f.num_vars();
  if (f.is_const_zero() || f.is_const_one()) return true;
  std::vector<unsigned> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  do {
    const auto on = f.permuted(perm).on_set();
    if (!on.empty() && on.back() - on.front() + 1 == on.size()) return true;
  } while (std::next_permutation(perm.begin(), perm.end()));
  return false;
}

TEST(Comparison, PaperSection3Example) {
  // f2(y1..y4) with ON minterms {1, 5, 6, 9, 10, 14}; under the permutation
  // x1=y4, x2=y3, x3=y2, x4=y1 the ON values become {5..10}, so L=5, U=10.
  TruthTable f(4);
  for (std::uint32_t m : {1u, 5u, 6u, 9u, 10u, 14u}) f.set(m, true);

  IdentifyOptions opt;
  opt.max_results = 64;
  auto specs = identify_comparison(f, opt);
  ASSERT_FALSE(specs.empty());
  for (const auto& s : specs) EXPECT_TRUE(spec_matches(s, f));

  // The paper's specific permutation (position j holds variable perm[j];
  // x1=y4 means position 0 holds variable 3).
  const std::vector<unsigned> paper_perm{3, 2, 1, 0};
  bool found_paper_spec = false;
  for (const auto& s : specs) {
    if (!s.complemented && s.perm == paper_perm) {
      EXPECT_EQ(s.lower, 5u);
      EXPECT_EQ(s.upper, 10u);
      found_paper_spec = true;
    }
  }
  EXPECT_TRUE(found_paper_spec);
}

TEST(Comparison, ExactMatchesBruteForceOnAll3VarFunctions) {
  for (std::uint32_t bits = 0; bits < 256; ++bits) {
    TruthTable f(3);
    for (std::uint32_t m = 0; m < 8; ++m) f.set(m, (bits >> m) & 1u);
    EXPECT_EQ(is_comparison_function(f), brute_force_is_comparison(f))
        << "truth table " << f.to_bits();
  }
}

TEST(Comparison, ExactMatchesBruteForceOnRandom4And5VarFunctions) {
  Rng rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    const unsigned n = trial % 2 ? 4 : 5;
    TruthTable f = TruthTable::from_function(
        n, [&](std::uint32_t) { return rng.flip(); });
    EXPECT_EQ(is_comparison_function(f), brute_force_is_comparison(f))
        << "n=" << n << " bits=" << f.to_bits();
  }
}

TEST(Comparison, AllSpecsDescribeTheFunction) {
  Rng rng(5);
  int checked = 0;
  for (int trial = 0; trial < 500 && checked < 40; ++trial) {
    // Random interval functions are comparison functions by construction.
    const unsigned n = 3 + trial % 3;
    const std::uint32_t max = (1u << n) - 1;
    std::uint32_t lo = static_cast<std::uint32_t>(rng.below(max + 1));
    std::uint32_t hi = static_cast<std::uint32_t>(rng.below(max + 1));
    if (lo > hi) std::swap(lo, hi);
    auto p32 = rng.permutation(n);
    ComparisonSpec made;
    made.n = n;
    made.perm.assign(p32.begin(), p32.end());
    made.lower = lo;
    made.upper = hi;
    TruthTable f = made.to_truth_table();
    if (f.is_const_zero() || f.is_const_one()) continue;
    auto specs = identify_comparison(f);
    ASSERT_FALSE(specs.empty()) << f.to_bits();
    for (const auto& s : specs) {
      EXPECT_TRUE(spec_matches(s, f)) << f.to_bits();
      EXPECT_LE(s.lower, s.upper);
    }
    ++checked;
  }
  EXPECT_GE(checked, 40);
}

TEST(Comparison, SingleMintermAlwaysComparison) {
  Rng rng(11);
  for (unsigned n = 1; n <= 6; ++n) {
    TruthTable f(n);
    f.set(static_cast<std::uint32_t>(rng.below(1u << n)), true);
    EXPECT_TRUE(is_comparison_function(f));
  }
}

TEST(Comparison, Xor2IsComparisonXor3IsNot) {
  TruthTable x2 = TruthTable::from_bits("0110");
  EXPECT_TRUE(is_comparison_function(x2));  // ON {1,2}
  TruthTable x3 = TruthTable::from_bits("01101001");
  EXPECT_FALSE(is_comparison_function(x3));
  // ... and its complement is not either (it is symmetric too).
  EXPECT_FALSE(is_comparison_function(x3.complemented()));
  EXPECT_TRUE(identify_comparison(x3).empty());
}

TEST(Comparison, MajorityIsNotComparison) {
  // maj(a,b,c): ON {3,5,6,7} -- not contiguous under any permutation
  // (symmetric function, so permutations do not change the ON values).
  TruthTable maj = TruthTable::from_bits("00010111");
  EXPECT_FALSE(is_comparison_function(maj));
}

TEST(Comparison, ComplementHandling) {
  // NAND3: OFF-set is {7}, a single minterm -> complemented spec exists.
  TruthTable nand3 = TruthTable::from_function(3, [](std::uint32_t m) { return m != 7; });
  auto specs = identify_comparison(nand3);
  ASSERT_FALSE(specs.empty());
  bool has_plain = false, has_complemented = false;
  for (const auto& s : specs) {
    EXPECT_TRUE(spec_matches(s, nand3));
    (s.complemented ? has_complemented : has_plain) = true;
  }
  // NAND3 ON-set is [0,6]: contiguous directly, and via the complement.
  EXPECT_TRUE(has_plain);
  EXPECT_TRUE(has_complemented);
}

TEST(Comparison, ConstantFunctions) {
  TruthTable one = TruthTable::from_function(3, [](std::uint32_t) { return true; });
  auto specs = identify_comparison(one);
  ASSERT_FALSE(specs.empty());
  EXPECT_FALSE(specs[0].complemented);
  EXPECT_EQ(specs[0].lower, 0u);
  EXPECT_EQ(specs[0].upper, 7u);

  TruthTable zero(3);
  specs = identify_comparison(zero);
  ASSERT_FALSE(specs.empty());
  EXPECT_TRUE(specs[0].complemented);
  EXPECT_TRUE(spec_matches(specs[0], zero));
}

TEST(Comparison, ZeroVarFunction) {
  TruthTable t(0);
  t.set(0, true);
  auto specs = identify_comparison(t);
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_FALSE(specs[0].complemented);
  EXPECT_TRUE(spec_matches(specs[0], t));
}

TEST(Comparison, SampledEngineFindsEasyCases) {
  Rng rng(21);
  IdentifyOptions opt;
  opt.exact = false;
  opt.sample_tries = 200;
  opt.rng = &rng;
  // Threshold function >= 5 of 3 vars: ON {5,6,7} under identity.
  TruthTable f = TruthTable::from_function(3, [](std::uint32_t m) { return m >= 5; });
  auto specs = identify_comparison(f, opt);
  ASSERT_FALSE(specs.empty());
  for (const auto& s : specs) EXPECT_TRUE(spec_matches(s, f));
}

TEST(Comparison, SampledEngineNeverFalselyAccepts) {
  Rng rng(22);
  IdentifyOptions opt;
  opt.exact = false;
  opt.sample_tries = 100;
  opt.rng = &rng;
  TruthTable x3 = TruthTable::from_bits("01101001");
  EXPECT_TRUE(identify_comparison(x3, opt).empty());
}

TEST(Comparison, AndOrGatesAreComparison) {
  for (unsigned n = 2; n <= 5; ++n) {
    TruthTable andf = TruthTable::from_function(
        n, [&](std::uint32_t m) { return m == (1u << n) - 1; });
    TruthTable orf = TruthTable::from_function(
        n, [&](std::uint32_t m) { return m != 0; });
    EXPECT_TRUE(is_comparison_function(andf)) << n;
    EXPECT_TRUE(is_comparison_function(orf)) << n;
  }
}

TEST(Comparison, ThresholdRelationship) {
  // Section 3.1: a >=L block is a threshold function with weights 2^(n-i);
  // check that the identified bounds of a weighted-threshold ON-set match.
  const unsigned n = 4;
  for (std::uint32_t L = 1; L < 16; ++L) {
    TruthTable f = TruthTable::from_function(n, [&](std::uint32_t m) { return m >= L; });
    auto specs = identify_comparison(f);
    ASSERT_FALSE(specs.empty()) << L;
    bool found_identity = false;
    for (const auto& s : specs) {
      if (!s.complemented && s.perm == std::vector<unsigned>({0, 1, 2, 3})) {
        EXPECT_EQ(s.lower, L);
        EXPECT_EQ(s.upper, 15u);
        found_identity = true;
      }
    }
    EXPECT_TRUE(found_identity) << L;
  }
}

// --- Result lifetime --------------------------------------------------------
//
// identify_comparison returns a reference into the calling thread's memo,
// valid until that thread's next call. The test reads every answer in full
// before the next query -- including the answers around the query that
// flushes the tier-1 memo at its cap -- so a sanitizer build catches an
// answer that is freed or overwritten too early.

bool same_specs(const std::vector<ComparisonSpec>& a,
                const std::vector<ComparisonSpec>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].n != b[i].n || a[i].perm != b[i].perm || a[i].lower != b[i].lower ||
        a[i].upper != b[i].upper || a[i].complemented != b[i].complemented) {
      return false;
    }
  }
  return true;
}

TEST(ComparisonLifetime, ReturnedSpecsValidUntilNextCallAcrossMemoFlush) {
  const ObsLevel saved_level = obs_level();
  obs_set_level(ObsLevel::report);

  ComparisonSpec probe_spec;
  probe_spec.n = 6;
  probe_spec.perm = {2, 0, 5, 1, 4, 3};
  probe_spec.lower = 9;
  probe_spec.upper = 44;
  const TruthTable probe = probe_spec.to_truth_table();
  ComparisonSpec flush_spec;
  flush_spec.n = 6;
  flush_spec.perm = {5, 4, 3, 2, 1, 0};
  flush_spec.lower = 17;
  flush_spec.upper = 30;
  flush_spec.complemented = true;
  const TruthTable flusher = flush_spec.to_truth_table();

  // Reference answers, copied out of cold memos.
  clear_exact_identification_memo();
  const std::vector<ComparisonSpec> flusher_expected = identify_comparison(flusher);
  clear_exact_identification_memo();
  const std::vector<ComparisonSpec> probe_expected = identify_comparison(probe);
  ASSERT_FALSE(probe_expected.empty());
  ASSERT_FALSE(flusher_expected.empty());

  // Fill tier 1 to exactly its cap: the probe plus distinct fillers, each
  // a miss that adds one entry. The result cap is part of the key, so the
  // non-constant 4-variable functions under a few result caps are enough,
  // and each is a quick search.
  std::size_t filled = 1;
  for (unsigned max_results = 1; filled < kExactMemoCap; ++max_results) {
    IdentifyOptions opt;
    opt.max_results = max_results;
    for (std::uint64_t w = 1; w < 0xffff && filled < kExactMemoCap; ++w, ++filled) {
      const TruthTable f = TruthTable::from_word(4, w);
      for (const ComparisonSpec& s : identify_comparison(f, opt)) {
        ASSERT_TRUE(spec_matches(s, f));
      }
    }
  }

  // Full memo: the probe is a hit and returns its stored vector, and a
  // scored query by word is the same entry.
  {
    const std::vector<ComparisonSpec>& hit = identify_comparison(probe);
    EXPECT_TRUE(same_specs(hit, probe_expected));
  }
  const std::uint64_t misses_at_cap = npn_identify_stats().canonicalizations;
  {
    const ScoredSpecs hit = identify_scored(6, probe.word(0), {}, {});
    EXPECT_TRUE(same_specs(hit.specs, probe_expected));
    ASSERT_EQ(hit.costs.size(), hit.specs.size());
    EXPECT_EQ(npn_identify_stats().canonicalizations, misses_at_cap);
  }
  // The next miss flushes the memo; its answer lives in the fresh memo.
  {
    const std::vector<ComparisonSpec>& fresh = identify_comparison(flusher);
    EXPECT_TRUE(same_specs(fresh, flusher_expected));
    for (const ComparisonSpec& s : fresh) EXPECT_TRUE(spec_matches(s, flusher));
  }
  // The flush dropped the probe: it is searched again, with the same answer,
  // and then hit again.
  const std::uint64_t misses_before = Counters::value("identify.memo.misses");
  const std::uint64_t canon_before = npn_identify_stats().canonicalizations;
  {
    const ScoredSpecs again = identify_scored(6, probe.word(0), {}, {});
    EXPECT_TRUE(same_specs(again.specs, probe_expected));
    ASSERT_EQ(again.costs.size(), again.specs.size());
    for (std::size_t i = 0; i < again.specs.size(); ++i) {
      EXPECT_EQ(again.costs[i].equiv_gates, unit_cost(again.specs[i]).equiv_gates);
      EXPECT_EQ(again.costs[i].kp, unit_cost(again.specs[i]).kp);
    }
  }
  EXPECT_EQ(npn_identify_stats().canonicalizations, canon_before + 1)
      << "the flush must have dropped the probe";
#if COMPSYN_TRACE
  EXPECT_EQ(Counters::value("identify.memo.misses"), misses_before + 1)
      << "the fill loop must reach the tier-1 cap and flush it";
#else
  (void)misses_before;
#endif
  {
    const std::vector<ComparisonSpec>& hit = identify_comparison(probe);
    EXPECT_TRUE(same_specs(hit, probe_expected));
  }
  clear_exact_identification_memo();
  obs_set_level(saved_level);
}

// --- The flat tier-1 memo and its unit costs ---------------------------------
//
// identify_scored answers from the query's tier-1 entry: the specs a fresh
// search returns and, parallel to them, unit_cost of each under the
// UnitOptions asked for. npn_identify_stats().canonicalizations counts
// tier-1 misses (each miss of a default query canonicalizes), so the tests
// see hits and misses without the report counters.

bool same_cost(const UnitCost& a, const UnitCost& b) {
  return a.equiv_gates == b.equiv_gates && a.kp == b.kp && a.depth == b.depth;
}

void expect_scored(const ScoredSpecs& got, const std::vector<ComparisonSpec>& expected,
                   const UnitOptions& unit) {
  EXPECT_TRUE(same_specs(got.specs, expected));
  ASSERT_EQ(got.costs.size(), got.specs.size());
  for (std::size_t i = 0; i < got.specs.size(); ++i) {
    EXPECT_TRUE(same_cost(got.costs[i], unit_cost(got.specs[i], unit)))
        << "spec " << i << " merge_gates=" << unit.merge_gates;
  }
}

/// Non-constant functions of 2..6 variables: comparison functions (some
/// with vacuous-looking structure, some complemented) and random ones.
std::vector<TruthTable> memo_queries() {
  Rng rng(0x7AB1Eu);
  std::vector<TruthTable> out;
  for (unsigned i = 0; i < 600; ++i) {
    const unsigned n = 2 + i % 5;
    TruthTable f(n);
    if (i % 3 != 0) {
      ComparisonSpec spec;
      spec.n = n;
      const auto p32 = rng.permutation(n);
      spec.perm.assign(p32.begin(), p32.end());
      const std::uint32_t a = static_cast<std::uint32_t>(rng.next() % (1u << n));
      const std::uint32_t b = static_cast<std::uint32_t>(rng.next() % (1u << n));
      spec.lower = std::min(a, b);
      spec.upper = std::max(a, b);
      spec.complemented = i % 2 == 0;
      f = spec.to_truth_table();
    } else {
      f = TruthTable::from_word(n, rng.next());
    }
    if (!f.is_const_zero() && !f.is_const_one()) out.push_back(f);
  }
  return out;
}

TEST(IdentifyMemo, ScoredEntriesEqualFreshSearchAndUnitCost) {
  const std::vector<TruthTable> queries = memo_queries();
  // A fresh search per function: a cold memo for every reference answer.
  std::vector<std::vector<ComparisonSpec>> expected;
  for (const TruthTable& f : queries) {
    clear_exact_identification_memo();
    expected.push_back(identify_comparison(f));
  }
  // One warm memo for all of them: first queries miss (some answered by the
  // orbit tier), repeats hit -- by word and by table, under both settings.
  clear_exact_identification_memo();
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const TruthTable& f = queries[i];
      for (const bool merge : {true, false}) {
        UnitOptions unit;
        unit.merge_gates = merge;
        expect_scored(identify_scored(f.num_vars(), f.word(0), {}, unit), expected[i],
                      unit);
        expect_scored(identify_scored(f, {}, unit), expected[i], unit);
      }
    }
  }
  clear_exact_identification_memo();
}

TEST(IdentifyMemo, MergeSettingsNeverShareCosts) {
  // L = 0b000111 over six variables: the >= L chain has two runs of equal
  // stage types, so merging changes the unit's depth but not its gates.
  ComparisonSpec spec;
  spec.n = 6;
  spec.perm = {0, 1, 2, 3, 4, 5};
  spec.lower = 7;
  spec.upper = 63;
  const TruthTable f = spec.to_truth_table();
  UnitOptions merged, unmerged;
  unmerged.merge_gates = false;
  ASSERT_NE(unit_cost(spec, merged).depth, unit_cost(spec, unmerged).depth);

  clear_exact_identification_memo();
  const std::vector<ComparisonSpec> specs = identify_comparison(f);
  ASSERT_FALSE(specs.empty());
  bool depth_differs = false;
  std::vector<UnitCost> first;
  {
    const ScoredSpecs s = identify_scored(6, f.word(0), {}, merged);
    expect_scored(s, specs, merged);
    first = s.costs;
  }
  for (const UnitOptions& unit : {unmerged, merged, unmerged}) {
    const ScoredSpecs s = identify_scored(6, f.word(0), {}, unit);
    expect_scored(s, specs, unit);
    for (std::size_t i = 0; i < s.costs.size(); ++i) {
      depth_differs = depth_differs || s.costs[i].depth != first[i].depth;
    }
  }
  EXPECT_TRUE(depth_differs);
  clear_exact_identification_memo();
}

TEST(IdentifyMemo, WordAndTableQueriesShareOneEntryUntilCleared) {
  ComparisonSpec spec;
  spec.n = 5;
  spec.perm = {3, 0, 4, 2, 1};
  spec.lower = 5;
  spec.upper = 22;
  const TruthTable f = spec.to_truth_table();
  auto misses = [] { return npn_identify_stats().canonicalizations; };

  clear_exact_identification_memo();
  std::uint64_t before = misses();
  const std::vector<ComparisonSpec> specs = identify_scored(5, f.word(0), {}, {}).specs;
  EXPECT_EQ(misses(), before + 1);
  before = misses();
  expect_scored(identify_scored(f, {}, {}), specs, {});
  EXPECT_TRUE(same_specs(identify_comparison(f), specs));
  EXPECT_EQ(misses(), before) << "the table query must hit the word query's entry";

  // Other flags are another query.
  IdentifyOptions single;
  single.max_results = 1;
  identify_scored(5, f.word(0), single, {});
  EXPECT_EQ(misses(), before + 1);

  clear_exact_identification_memo();
  before = misses();
  expect_scored(identify_scored(5, f.word(0), {}, {}), specs, {});
  EXPECT_EQ(misses(), before + 1) << "clearing must empty the table";
  clear_exact_identification_memo();
}

}  // namespace
}  // namespace compsyn
