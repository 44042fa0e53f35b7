#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/resynth.hpp"
#include "gen/circuits.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/counters.hpp"
#include "obs/events.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "paths/paths.hpp"
#include "util/table.hpp"
#include "temp_path.hpp"

namespace compsyn {
namespace {

#if COMPSYN_TRACE

/// Serialises the obs tests that touch the global registries and makes sure
/// each starts from a clean, enabled state.
class ObsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    obs_set_level(ObsLevel::report);
    Trace::reset();
    Counters::reset();
  }
  void TearDown() override {
    obs_set_level(ObsLevel::off);
    Trace::reset();
    Counters::reset();
  }
};

using TraceTest = ObsFixture;
using CountersTest = ObsFixture;
using ReportTest = ObsFixture;

void spin_for(std::chrono::microseconds d) {
  const auto end = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < end) {
  }
}

TEST_F(TraceTest, RecordsCountAndDuration) {
  for (int i = 0; i < 3; ++i) {
    const Span s("unit.work");
    spin_for(std::chrono::microseconds(200));
  }
  const auto snap = Trace::snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].label, "unit.work");
  EXPECT_EQ(snap[0].count, 3u);
  EXPECT_GE(snap[0].total_ns, 3u * 200'000u);
  EXPECT_GE(snap[0].min_ns, 200'000u);
  EXPECT_LE(snap[0].min_ns, snap[0].max_ns);
  EXPECT_LE(snap[0].max_ns, snap[0].total_ns);
}

TEST_F(TraceTest, SelfTimeExcludesNestedChildren) {
  {
    const Span outer("outer");
    spin_for(std::chrono::microseconds(300));
    {
      const Span inner("inner");
      spin_for(std::chrono::microseconds(300));
    }
    spin_for(std::chrono::microseconds(300));
  }
  const auto snap = Trace::snapshot();
  ASSERT_EQ(snap.size(), 2u);
  const SpanStats& outer = snap[0].label == "outer" ? snap[0] : snap[1];
  const SpanStats& inner = snap[0].label == "inner" ? snap[0] : snap[1];
  ASSERT_EQ(outer.label, "outer");
  ASSERT_EQ(inner.label, "inner");
  // The parent's child time is exactly the child's total: the invariant is
  // exact by construction, not approximate.
  EXPECT_EQ(outer.self_ns + inner.total_ns, outer.total_ns);
  EXPECT_GE(outer.self_ns, 2u * 300'000u);
  // Leaf spans have self == total.
  EXPECT_EQ(inner.self_ns, inner.total_ns);
}

TEST_F(TraceTest, SameLabelNestsCorrectly) {
  {
    const Span a("rec");
    {
      const Span b("rec");
      spin_for(std::chrono::microseconds(200));
    }
  }
  const auto snap = Trace::snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].count, 2u);
  // Self time counts the inner call's body exactly once, so self <= total
  // strictly when nesting occurred.
  EXPECT_LT(snap[0].self_ns, snap[0].total_ns);
}

TEST_F(CountersTest, IncrAndValue) {
  Counters::incr("a.b");
  Counters::incr("a.b", 41);
  Counters::incr("other");
  EXPECT_EQ(Counters::value("a.b"), 42u);
  EXPECT_EQ(Counters::value("other"), 1u);
  EXPECT_EQ(Counters::value("never"), 0u);
  const auto all = Counters::counters();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].name, "a.b");  // sorted by name
  EXPECT_EQ(all[1].name, "other");
}

TEST_F(CountersTest, ConcurrentIncrementsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) Counters::incr("mt.total");
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(Counters::value("mt.total"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(CountersTest, DistributionsSummarise) {
  Counters::observe("d", 3.0);
  Counters::observe("d", -1.0);
  Counters::observe("d", 10.0);
  const auto dists = Counters::distributions();
  ASSERT_EQ(dists.size(), 1u);
  EXPECT_EQ(dists[0].count, 3u);
  EXPECT_DOUBLE_EQ(dists[0].sum, 12.0);
  EXPECT_DOUBLE_EQ(dists[0].min, -1.0);
  EXPECT_DOUBLE_EQ(dists[0].max, 10.0);
}

TEST_F(CountersTest, DisabledIncrIsNoOp) {
  obs_set_level(ObsLevel::off);
  Counters::incr("dark");
  EXPECT_EQ(Counters::value("dark"), 0u);
}

TEST(Json, BuildsAndDumpsStably) {
  Json doc = Json::object();
  doc.set("name", "demo");
  doc.set("count", std::uint64_t{42});
  doc.set("offset", std::int64_t{-7});
  doc.set("ok", true);
  doc.set("nothing", Json());
  Json arr = Json::array();
  arr.push(1);
  arr.push(2.5);
  arr.push("x\"y\n");
  doc.set("items", std::move(arr));
  EXPECT_EQ(doc.dump(),
            "{\"name\":\"demo\",\"count\":42,\"offset\":-7,\"ok\":true,"
            "\"nothing\":null,\"items\":[1,2.5,\"x\\\"y\\n\"]}");
}

TEST(Json, RoundTripsThroughParse) {
  Json doc = Json::object();
  doc.set("name", "round trip é\t");
  doc.set("big", std::uint64_t{18446744073709551615ull});
  doc.set("neg", std::int64_t{-123456789});
  doc.set("pi", 3.140625);  // exactly representable
  Json arr = Json::array();
  for (int i = 0; i < 4; ++i) arr.push(i);
  doc.set("seq", std::move(arr));

  std::string error;
  const auto parsed = Json::parse(doc.dump(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->dump(), doc.dump());
  // Pretty-printed form parses back to the same compact dump too.
  const auto pretty = Json::parse(doc.dump(2), &error);
  ASSERT_TRUE(pretty.has_value()) << error;
  EXPECT_EQ(pretty->dump(), doc.dump());
}

TEST(Json, ParseRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(Json::parse("{\"a\":", &error).has_value());
  EXPECT_FALSE(Json::parse("[1,2,]", &error).has_value());
  EXPECT_FALSE(Json::parse("{\"a\":1} trailing", &error).has_value());
  EXPECT_FALSE(Json::parse("'single'", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST_F(ReportTest, CapturesTablesSpansAndCounters) {
  { const Span s("phase"); }
  Counters::incr("widgets", 5);

  RunReport report("unit_report");
  report.set_meta("seed", std::uint64_t{7});
  Table t({"circuit", "gates"});
  t.row().add("c17").add(std::uint64_t{6});
  report.add_table("demo", t);
  Json rec = Json::object();
  rec.set("role", "original");
  report.add_record("circuits", std::move(rec));

  const Json doc = report.to_json();
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("name")->as_string(), "unit_report");
  EXPECT_EQ(doc.find("meta")->find("seed")->as_u64(), 7u);
  EXPECT_GE(doc.find("wall_seconds")->as_double(), 0.0);

  const Json* tables = doc.find("tables");
  ASSERT_NE(tables, nullptr);
  const Json* demo = tables->find("demo");
  ASSERT_NE(demo, nullptr);
  ASSERT_EQ(demo->find("rows")->size(), 1u);
  EXPECT_EQ(demo->find("rows")->at(0).find("circuit")->as_string(), "c17");
  EXPECT_EQ(demo->find("rows")->at(0).find("gates")->as_string(), "6");

  bool saw_span = false;
  const Json* spans = doc.find("spans");
  ASSERT_NE(spans, nullptr);
  for (std::size_t i = 0; i < spans->size(); ++i) {
    saw_span |= spans->at(i).find("label")->as_string() == "phase";
  }
  EXPECT_TRUE(saw_span);

  const Json* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("widgets"), nullptr);
  EXPECT_EQ(counters->find("widgets")->as_u64(), 5u);

  ASSERT_NE(doc.find("circuits"), nullptr);
  EXPECT_EQ(doc.find("circuits")->at(0).find("role")->as_string(), "original");

  // The whole document survives a serialize/parse round trip.
  std::string error;
  const auto parsed = Json::parse(doc.dump(2), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->dump(), doc.dump());
}

TEST_F(ReportTest, ResynthCountersMatchReturnedStats) {
  Netlist nl = make_benchmark("cmp8");
  ResynthOptions opt;
  opt.k = 5;
  const ResynthStats st = resynthesize(nl, opt);

  EXPECT_EQ(Counters::value("resynth.runs"), 1u);
  EXPECT_EQ(Counters::value("resynth.passes"), st.passes);
  EXPECT_EQ(Counters::value("resynth.replacements"), st.replacements);
  EXPECT_EQ(Counters::value("resynth.cones_considered"), st.cones_considered);
  EXPECT_EQ(Counters::value("resynth.comparison_cones"), st.comparison_cones);

  // Per-pass history is consistent with the aggregate stats.
  ASSERT_EQ(st.history.size(), st.passes);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < st.history.size(); ++i) {
    EXPECT_EQ(st.history[i].pass, i + 1);
    total += st.history[i].replacements;
  }
  EXPECT_EQ(total, st.replacements);
  if (!st.history.empty()) {
    EXPECT_EQ(st.history.back().gates, st.gates_after);
    EXPECT_EQ(st.history.back().paths, st.paths_after);
  }

  // Spans were recorded for the run and for each pass.
  const auto snap = Trace::snapshot();
  bool saw_run = false, saw_pass = false;
  for (const SpanStats& s : snap) {
    if (s.label == "resynth") {
      saw_run = true;
      EXPECT_EQ(s.count, 1u);
    }
    if (s.label == "resynth.pass") {
      saw_pass = true;
      EXPECT_EQ(s.count, st.passes);
    }
  }
  EXPECT_TRUE(saw_run);
  EXPECT_TRUE(saw_pass);
}

#endif  // COMPSYN_TRACE

// ---------------------------------------------------------- sink matrix --

/// Which sinks received a record: the span's sinks, plus the Chrome
/// markers (an instant and a counter-track sample) and a counter bumped at
/// the same level.
struct SinkHits {
  bool aggregate = false;
  bool histogram = false;
  bool phase = false;
  bool hot_cone = false;
  bool chrome = false;
  bool events = false;
  bool markers = false;
  bool counter = false;
  bool operator==(const SinkHits&) const = default;
};

std::ostream& operator<<(std::ostream& os, const SinkHits& h) {
  return os << "{aggregate=" << h.aggregate << " histogram=" << h.histogram
            << " phase=" << h.phase << " hot_cone=" << h.hot_cone
            << " chrome=" << h.chrome << " events=" << h.events
            << " markers=" << h.markers << " counter=" << h.counter << "}";
}

/// Opens the Chrome buffer and the event log, closes one span of `kind` at
/// `level` (then emits the markers and the counter), and reports which
/// sinks received a record.
SinkHits hits_for(ObsLevel level, SpanKind kind) {
  const std::string events_path = test_temp_path("obs_sinks.jsonl");
  Trace::reset();
  Counters::reset();
  Histogram::reset();
  telemetry_reset();
  ChromeTrace::reset();
  ChromeTrace::open(test_temp_path("obs_sinks.json"));
  EXPECT_TRUE(EventLog::open(events_path, "obs_test"));
  obs_set_level(level);
  // The level is the one runtime gate; compiled out it is constant off.
  EXPECT_EQ(obs_level(), COMPSYN_TRACE ? level : ObsLevel::off);
  { const Span sp("matrix", kind); }
  const std::size_t span_events = ChromeTrace::event_count();
  ChromeTrace::instant("matrix.instant");
  ChromeTrace::counter("matrix.series", 1.0);
  Counters::incr("matrix.counter");
  obs_set_level(ObsLevel::off);
  SinkHits h;
  h.aggregate = !Trace::snapshot().empty();
  h.histogram = !Histogram::snapshot().empty();
  h.phase = !telemetry_phases().empty();
  h.hot_cone = !telemetry_hot_cones().empty();
  h.chrome = span_events > 0;
  h.markers = ChromeTrace::event_count() > span_events;
  h.counter = Counters::value("matrix.counter") > 0;
  ChromeTrace::reset();
  EventLog::finish("ok");
  std::ifstream is(events_path);
  std::string line;
  while (std::getline(is, line)) {
    h.events |= line.find("\"type\":\"phase\"") != std::string::npos;
  }
  std::remove(events_path.c_str());
  Trace::reset();
  Counters::reset();
  Histogram::reset();
  telemetry_reset();
  return h;
}

// For each level x span kind, exactly which sinks received a record. The
// Chrome buffer and the event log are open in every cell -- they are sinks,
// not gates -- so the level and the kind alone decide. Off records nothing;
// under -DCOMPSYN_TRACE=0 every cell is empty (spans and counters compile
// out).
TEST(SpanSinks, EachLevelAndKindFeedsExactlyItsSinks) {
  constexpr bool T = COMPSYN_TRACE != 0;
  constexpr bool F = false;
  const struct {
    ObsLevel level;
    SpanKind kind;
    SinkHits want;
  } matrix[] = {
      //                           aggr hist phase hot chrome events markers counter
      {ObsLevel::off, SpanKind::Scope, {F, F, F, F, F, F, F, F}},
      {ObsLevel::off, SpanKind::Sample, {F, F, F, F, F, F, F, F}},
      {ObsLevel::off, SpanKind::Phase, {F, F, F, F, F, F, F, F}},
      {ObsLevel::off, SpanKind::Root, {F, F, F, F, F, F, F, F}},
      {ObsLevel::report, SpanKind::Scope, {T, F, F, F, T, F, F, T}},
      {ObsLevel::report, SpanKind::Sample, {F, F, F, F, F, F, F, T}},
      {ObsLevel::report, SpanKind::Phase, {F, F, F, F, F, F, F, T}},
      {ObsLevel::report, SpanKind::Root, {F, F, F, F, F, F, F, T}},
      {ObsLevel::extended, SpanKind::Scope, {T, F, F, F, T, F, T, T}},
      {ObsLevel::extended, SpanKind::Sample, {F, T, F, F, T, F, T, T}},
      {ObsLevel::extended, SpanKind::Phase, {F, F, T, F, T, T, T, T}},
      {ObsLevel::extended, SpanKind::Root, {F, F, F, T, F, F, T, T}},
  };
  for (const auto& cell : matrix) {
    SCOPED_TRACE(testing::Message()
                 << "level " << static_cast<int>(cell.level) << ", kind "
                 << static_cast<int>(cell.kind));
    EXPECT_EQ(hits_for(cell.level, cell.kind), cell.want);
  }
}

// Consumers parse report files long after the producing run is gone, so the
// failure modes of interest are on-disk: a complete file must round-trip,
// and a truncated or corrupted one must be *rejected* by the strict parser,
// never misread as a shorter-but-valid report.
TEST(ReportRoundTrip, WrittenFileParsesBackIdentically) {
  RunReport report("roundtrip");
  report.set_meta("status", "ok");
  report.set_meta("k", std::uint64_t{6});
  Json rec = Json::object();
  rec.set("name", "c17");
  rec.set("gates", std::uint64_t{6});
  report.add_record("circuits", std::move(rec));

  const std::string path = test_temp_path("obs_roundtrip.json");
  std::string error;
  ASSERT_TRUE(report.write(path, &error)) << error;

  std::ifstream is(path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  is.close();
  ASSERT_FALSE(text.empty());
  const auto parsed = Json::parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->find("name")->as_string(), "roundtrip");
  EXPECT_EQ(parsed->find("meta")->find("status")->as_string(), "ok");
  EXPECT_EQ(parsed->find("meta")->find("k")->as_u64(), 6u);
  EXPECT_EQ(parsed->find("circuits")->at(0).find("gates")->as_u64(), 6u);
  // Dump -> parse -> dump is a fixpoint.
  EXPECT_EQ(Json::parse(parsed->dump(2))->dump(), parsed->dump());
  std::remove(path.c_str());
}

TEST(ReportRoundTrip, TruncatedReportFailsToParse) {
  RunReport report("truncated");
  report.set_meta("status", "ok");
  for (int i = 0; i < 8; ++i) {
    Json rec = Json::object();
    rec.set("i", static_cast<std::uint64_t>(i));
    report.add_record("rows", std::move(rec));
  }
  const std::string text = report.to_json().dump(2);
  for (double frac : {0.1, 0.5, 0.9}) {
    const auto cut = static_cast<std::size_t>(text.size() * frac);
    std::string error;
    EXPECT_FALSE(Json::parse(text.substr(0, cut), &error).has_value())
        << "fraction " << frac;
    EXPECT_FALSE(error.empty());
  }
}

TEST(ReportRoundTrip, CorruptedReportFailsToParse) {
  RunReport report("corrupt");
  report.set_meta("status", "ok");
  const std::string text = report.to_json().dump(2);
  // Structural damage at assorted positions: braces, quotes, separators.
  const struct { char find; char replace; } edits[] = {
      {'{', '<'}, {'"', '\''}, {':', ';'}, {'}', '!'}};
  for (const auto& e : edits) {
    std::string bad = text;
    const auto pos = bad.find(e.find);
    ASSERT_NE(pos, std::string::npos) << e.find;
    bad[pos] = e.replace;
    EXPECT_FALSE(Json::parse(bad).has_value())
        << "edit '" << e.find << "' -> '" << e.replace << "'";
  }
}

}  // namespace
}  // namespace compsyn
