// Unit tests for the profile-grade telemetry layer (DESIGN.md §12): the
// strict Chrome-trace checker, the Chrome sink fed by spans, the fixed
// log-scale histograms (including the sample counts of a flow), phase
// and hot-cone attribution, the bench-v2 schema normalizer, and the Json
// double round-trip contract the schemas rely on. Which sinks each span kind
// reaches at each level is pinned by obs_test's sink matrix.
//
// Everything here must pass under -DCOMPSYN_TRACE=0 as well: collector tests
// are gated on the macro, checker/schema/Json tests are pure functions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "atpg/redundancy.hpp"
#include "core/resynth.hpp"
#include "gen/circuits.hpp"
#include "obs/bench_schema.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "temp_path.hpp"
#include "trace_check.hpp"

namespace compsyn {
namespace {

std::string temp_path(const std::string& leaf) {
  return test_temp_path("telemetry_" + leaf);
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

// ---------------------------------------------------------------- checker --

const char* kGoodTrace = R"({"traceEvents":[
  {"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,
   "args":{"name":"resynth_flow"}},
  {"name":"outer","ph":"B","ts":0,"pid":1,"tid":0},
  {"name":"inner","ph":"B","ts":1.5,"pid":1,"tid":0},
  {"name":"inner","ph":"E","ts":2.5,"pid":1,"tid":0},
  {"name":"outer","ph":"E","ts":9,"pid":1,"tid":0},
  {"name":"cone","ph":"X","ts":3,"dur":0.5,"pid":1,"tid":1},
  {"name":"checkpoint.write","ph":"i","ts":4,"pid":1,"tid":0,"s":"t"},
  {"name":"sat.session.vars","ph":"C","ts":5,"pid":1,"tid":0,
   "args":{"value":120}}
],"displayTimeUnit":"ms"})";

TEST(TraceCheck, AcceptsWellFormedTrace) {
  const TraceCheckResult r = check_chrome_trace(kGoodTrace);
  EXPECT_TRUE(r.ok) << (r.errors.empty() ? "" : r.errors.front());
  EXPECT_EQ(r.events, 8u);
  EXPECT_EQ(r.span_pairs, 3u);  // outer, inner, and the X (complete) slice
  EXPECT_EQ(r.instants, 1u);
  EXPECT_EQ(r.counter_samples, 1u);
  EXPECT_EQ(r.thread_tracks, 2u);  // tid 0 (B/E) and tid 1 (X)
}

TEST(TraceCheck, RejectsMalformedDocuments) {
  EXPECT_FALSE(check_chrome_trace("not json").ok);
  EXPECT_FALSE(check_chrome_trace("{}").ok);                     // no traceEvents
  EXPECT_FALSE(check_chrome_trace(R"({"traceEvents":{}})").ok);  // not array
}

TEST(TraceCheck, RejectsBadEvents) {
  // E with a name that does not match the open B.
  EXPECT_FALSE(check_chrome_trace(R"({"traceEvents":[
    {"name":"a","ph":"B","ts":0,"pid":1,"tid":0},
    {"name":"b","ph":"E","ts":1,"pid":1,"tid":0}]})")
                   .ok);
  // Unclosed B.
  EXPECT_FALSE(check_chrome_trace(R"({"traceEvents":[
    {"name":"a","ph":"B","ts":0,"pid":1,"tid":0}]})")
                   .ok);
  // E without any open B.
  EXPECT_FALSE(check_chrome_trace(R"({"traceEvents":[
    {"name":"a","ph":"E","ts":0,"pid":1,"tid":0}]})")
                   .ok);
  // Missing ph.
  EXPECT_FALSE(check_chrome_trace(R"({"traceEvents":[
    {"name":"a","ts":0,"pid":1,"tid":0}]})")
                   .ok);
  // Unknown ph.
  EXPECT_FALSE(check_chrome_trace(R"({"traceEvents":[
    {"name":"a","ph":"Q","ts":0,"pid":1,"tid":0}]})")
                   .ok);
  // C without a numeric series.
  EXPECT_FALSE(check_chrome_trace(R"({"traceEvents":[
    {"name":"a","ph":"C","ts":0,"pid":1,"tid":0,"args":{}}]})")
                   .ok);
  // X without dur.
  EXPECT_FALSE(check_chrome_trace(R"({"traceEvents":[
    {"name":"a","ph":"X","ts":0,"pid":1,"tid":0}]})")
                   .ok);
  // Timestamps going backwards on one track.
  EXPECT_FALSE(check_chrome_trace(R"({"traceEvents":[
    {"name":"a","ph":"B","ts":5,"pid":1,"tid":0},
    {"name":"a","ph":"E","ts":1,"pid":1,"tid":0}]})")
                   .ok);
}

// -------------------------------------------------------------- collector --

class ChromeTraceTest : public ::testing::Test {
 protected:
  void SetUp() override { ChromeTrace::reset(); }
  void TearDown() override {
    obs_set_level(ObsLevel::off);
    ChromeTrace::reset();
    Trace::reset();
    Histogram::reset();
    telemetry_reset();
  }
};

// Holds in the compiled-out build too, which writes a valid empty trace.
TEST_F(ChromeTraceTest, FlushWritesOnceThenDisarms) {
  const std::string path = temp_path("armed.json");
  ChromeTrace::open(path);
  obs_set_level(ObsLevel::extended);
  { const Span sp("span"); }
  EXPECT_TRUE(ChromeTrace::flush());
  EXPECT_TRUE(check_chrome_trace(slurp(path)).ok);
  // Disarmed after the flush: removing the file and flushing again must not
  // recreate it.
  std::remove(path.c_str());
  EXPECT_TRUE(ChromeTrace::flush());
  EXPECT_TRUE(slurp(path).empty());
}

#if COMPSYN_TRACE

TEST_F(ChromeTraceTest, WritesCheckerCleanTrace) {
  const std::string path = temp_path("basic.json");
  ChromeTrace::open(path);
  obs_set_level(ObsLevel::extended);
  {
    const Span outer("outer");
    {
      const Span inner("inner");
      ChromeTrace::instant("milestone");
      ChromeTrace::counter("series", 42.0);
    }
    const Span slice("slice", SpanKind::Sample);
  }

  std::string err;
  ASSERT_TRUE(ChromeTrace::flush(&err)) << err;
  const TraceCheckResult r = check_chrome_trace(slurp(path));
  EXPECT_TRUE(r.ok) << (r.errors.empty() ? "" : r.errors.front());
  EXPECT_EQ(r.span_pairs, 3u);  // outer, inner, slice
  EXPECT_EQ(r.instants, 1u);
  EXPECT_EQ(r.counter_samples, 1u);
  EXPECT_EQ(r.thread_tracks, 1u);
  std::remove(path.c_str());
}

// ------------------------------------------------------------- histograms --

class HistogramTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Histogram::reset();
    obs_set_level(ObsLevel::extended);
  }
  void TearDown() override {
    obs_set_level(ObsLevel::off);
    Histogram::reset();
    telemetry_reset();
  }
};

TEST_F(HistogramTest, BucketLayoutIsFixed) {
  EXPECT_EQ(Histogram::bucket_for(0), 0u);
  EXPECT_EQ(Histogram::bucket_for(1), 0u);
  EXPECT_EQ(Histogram::bucket_for(2), 1u);
  EXPECT_EQ(Histogram::bucket_for(3), 1u);
  EXPECT_EQ(Histogram::bucket_for(4), 2u);
  EXPECT_EQ(Histogram::bucket_for(1023), 9u);
  EXPECT_EQ(Histogram::bucket_for(1024), 10u);
  EXPECT_EQ(Histogram::bucket_for(std::uint64_t{1} << 39), 39u);
  EXPECT_EQ(Histogram::bucket_for(~std::uint64_t{0}), kHistBuckets - 1);
  // Upper bounds mirror the mapping.
  EXPECT_EQ(Histogram::bucket_upper_ns(0), 1u);
  EXPECT_EQ(Histogram::bucket_upper_ns(9), 1023u);
}

TEST_F(HistogramTest, RecordsSamplesUnderLabelDotNs) {
  Histogram::record("h", 10);
  Histogram::record("h", 1000);
  const auto snap = Histogram::snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].name, "h.ns");
  EXPECT_EQ(snap[0].count, 2u);
  EXPECT_EQ(snap[0].sum_ns, 1010u);
  ASSERT_EQ(snap[0].buckets.size(), kHistBuckets);
  EXPECT_EQ(snap[0].buckets[Histogram::bucket_for(10)], 1u);
  EXPECT_EQ(snap[0].buckets[Histogram::bucket_for(1000)], 1u);
}

TEST_F(HistogramTest, SnapshotIsNameSorted) {
  for (const char* label : {"zz", "a", "mm", "a.b"}) Histogram::record(label, 1);
  const auto snap = Histogram::snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].name, "a.b.ns");
  EXPECT_EQ(snap[1].name, "a.ns");
  EXPECT_EQ(snap[2].name, "mm.ns");
  EXPECT_EQ(snap[3].name, "zz.ns");
}

/// Runs one resynthesis, then redundancy removal behind a PODEM backtrack
/// limit small enough to abort (so SAT decides some faults), and returns
/// (name, count) per histogram.
std::vector<std::pair<std::string, std::uint64_t>> flow_hist_counts() {
  Histogram::reset();
  telemetry_reset();
  Netlist nl = make_benchmark("alu4");
  (void)procedure2(nl, 5);
  RedundancyRemovalOptions rr;
  rr.atpg.backtrack_limit = 2;
  (void)remove_redundancies(nl, rr);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const HistStat& h : Histogram::snapshot()) {
    out.emplace_back(h.name, h.count);
  }
  return out;
}

TEST_F(HistogramTest, FlowFillsOneHistogramPerSampleSpan) {
  std::vector<std::string> names;
  for (const auto& [name, count] : flow_hist_counts()) {
    names.push_back(name);
    EXPECT_GT(count, 0u) << name;
  }
  EXPECT_EQ(names, (std::vector<std::string>{"atpg.fault.ns", "resynth.cone.ns",
                                             "sat.query.ns"}));
}

// ----------------------------------------------------------------- phases --

TEST(PhaseSpanTest, AttributesWallTimeWhenExtended) {
  telemetry_reset();
  obs_set_level(ObsLevel::extended);
  {
    const Span p("phase_a", SpanKind::Phase);
    volatile unsigned sink = 0;
    for (unsigned i = 0; i < 1000; ++i) sink = sink + i;
  }
  { const Span p("phase_b", SpanKind::Phase); }
  const auto phases = telemetry_phases();
  obs_set_level(ObsLevel::off);
  telemetry_reset();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].name, "phase_a");
  EXPECT_EQ(phases[1].name, "phase_b");
  EXPECT_GT(phases[0].peak_rss_bytes, 0u);
}

// -------------------------------------------------------------- hot cones --

TEST(HotConesTest, RanksByTotalTime) {
  telemetry_reset();
  obs_detail::record_hot_cone("g1", 100, 2);
  obs_detail::record_hot_cone("g2", 900, 3);
  obs_detail::record_hot_cone("g1", 50, 1);
  const auto hot = telemetry_hot_cones(10);
  telemetry_reset();
  ASSERT_EQ(hot.size(), 2u);
  EXPECT_EQ(hot[0].root, "g2");
  EXPECT_EQ(hot[0].total_ns, 900u);
  EXPECT_EQ(hot[1].root, "g1");
  EXPECT_EQ(hot[1].total_ns, 150u);
  EXPECT_EQ(hot[1].cones, 3u);
}

TEST(HotConesTest, RootSpanCarriesItsConeCount) {
  telemetry_reset();
  obs_set_level(ObsLevel::extended);
  {
    Span named("g7", SpanKind::Root, 7);
    named.set_count(4);
  }
  {
    Span nameless("", SpanKind::Root, 42);  // a synthesized gate
    nameless.set_count(2);
  }
  obs_set_level(ObsLevel::off);
  auto hot = telemetry_hot_cones(10);
  telemetry_reset();
  ASSERT_EQ(hot.size(), 2u);
  std::sort(hot.begin(), hot.end(),
            [](const HotCone& a, const HotCone& b) { return a.root < b.root; });
  EXPECT_EQ(hot[0].root, "g7");
  EXPECT_EQ(hot[0].cones, 4u);
  EXPECT_EQ(hot[1].root, "n42");
  EXPECT_EQ(hot[1].cones, 2u);
}

#endif  // COMPSYN_TRACE

// ----------------------------------------------------------- bench schema --

TEST(BenchSchema, TagsLegacyReport) {
  Json legacy = Json::object();
  legacy.set("name", "table2_proc2");
  legacy.set("spans", Json::array());
  legacy.set("counters", Json::object());
  Json v2;
  std::string err;
  ASSERT_TRUE(bench_normalize_v2(std::move(legacy), &v2, &err)) << err;
  ASSERT_NE(v2.find("schema"), nullptr);
  EXPECT_EQ(v2.find("schema")->as_string(), kBenchSchemaV2);
  // The tag leads the document.
  EXPECT_EQ(v2.items().front().first, "schema");
}

TEST(BenchSchema, PassesV2Through) {
  Json doc = Json::object();
  doc.set("schema", std::string(kBenchSchemaV2));
  doc.set("name", "x");
  doc.set("spans", Json::array());
  doc.set("counters", Json::object());
  Json v2;
  ASSERT_TRUE(bench_normalize_v2(doc, &v2));
  EXPECT_EQ(v2.dump(), doc.dump());
}

TEST(BenchSchema, RejectsUnknownSchemaAndGarbage) {
  Json doc = Json::object();
  doc.set("schema", "compsyn-bench-v9");
  doc.set("name", "x");
  doc.set("spans", Json::array());
  doc.set("counters", Json::object());
  Json v2;
  std::string err;
  EXPECT_FALSE(bench_normalize_v2(std::move(doc), &v2, &err));
  EXPECT_FALSE(bench_normalize_v2(Json(7), &v2, &err));
  EXPECT_FALSE(bench_normalize_v2(Json::object(), &v2, &err));
}

// ------------------------------------------------- Json double round-trip --

// The bench/report schemas carry doubles (wall_seconds, tolerances); the
// writer emits shortest-round-trip forms (std::to_chars), which this test
// locks in: parse(dump(x)) must equal x bit-for-bit, and dump must be stable
// under a second round-trip.
TEST(JsonDoubles, ParseDumpParseRoundTrips) {
  const double cases[] = {0.0,
                          1.0,
                          -1.0,
                          0.1,
                          1.0 / 3.0,
                          56.167627174,
                          1e-7,
                          6.852,
                          1e300,
                          -2.2250738585072014e-308,  // smallest normal
                          5e-324,                    // smallest denormal
                          1.7976931348623157e308,    // largest finite
                          3.141592653589793};
  for (const double x : cases) {
    const std::string once = Json(x).dump();
    std::string err;
    const auto parsed = Json::parse(once, &err);
    ASSERT_TRUE(parsed.has_value()) << once << ": " << err;
    EXPECT_EQ(parsed->as_double(), x) << once;
    EXPECT_EQ(parsed->dump(), once);
  }
}

TEST(JsonDoubles, RoundTripsThroughDocuments) {
  Json doc = Json::object();
  doc.set("wall_seconds", 56.167627174);
  doc.set("tolerance", 0.1);
  Json arr = Json::array();
  arr.push(1e-7);
  arr.push(0.3333333333333333);
  doc.set("xs", std::move(arr));
  const std::string once = doc.dump(2);
  const auto parsed = Json::parse(once);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dump(2), once);
}

}  // namespace
}  // namespace compsyn
