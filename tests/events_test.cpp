// Streaming event log (--events, compsyn-events-v1): schema round-trip of
// every record type, and the shape of the deterministic progress record
// sequence (commit-point ticks at a fixed work stride).
//
// Under -DCOMPSYN_TRACE=0 the log degrades to a schema-valid start/finish
// pair; the shape checks below run either way.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "atpg/redundancy.hpp"
#include "core/resynth.hpp"
#include "gen/circuits.hpp"
#include "obs/events.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "temp_path.hpp"

namespace compsyn {
namespace {

std::string temp_path(const std::string& leaf) {
  return test_temp_path("events_" + leaf);
}

std::vector<Json> read_log(const std::string& path) {
  std::ifstream is(path);
  std::vector<Json> records;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::string err;
    auto j = Json::parse(line, &err);
    EXPECT_TRUE(j.has_value()) << line << ": " << err;
    if (j.has_value()) records.push_back(std::move(*j));
  }
  return records;
}

std::string str_field(const Json& rec, const char* key) {
  const Json* v = rec.find(key);
  return v == nullptr ? "" : v->as_string();
}

/// Every record carries type / monotonically increasing seq / numeric t_ms;
/// the first is a start record with the schema tag, the last a finish.
void check_envelope(const std::vector<Json>& records) {
  ASSERT_GE(records.size(), 2u);
  std::uint64_t prev_seq = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Json& r = records[i];
    ASSERT_TRUE(r.is_object());
    ASSERT_NE(r.find("type"), nullptr);
    ASSERT_NE(r.find("seq"), nullptr);
    ASSERT_NE(r.find("t_ms"), nullptr);
    const std::uint64_t seq = r.find("seq")->as_u64();
    if (i > 0) {
      EXPECT_GT(seq, prev_seq) << "seq not increasing at " << i;
    }
    prev_seq = seq;
  }
  EXPECT_EQ(str_field(records.front(), "type"), "start");
  EXPECT_EQ(str_field(records.front(), "schema"), kEventSchema);
  EXPECT_NE(records.front().find("pid"), nullptr);
  EXPECT_EQ(str_field(records.back(), "type"), "finish");
  EXPECT_NE(records.back().find("status"), nullptr);
}

TEST(EventLog, MinimalLogIsSchemaValid) {
  const std::string path = temp_path("minimal.jsonl");
  std::string err;
  ASSERT_TRUE(EventLog::open(path, "events_test", &err)) << err;
  EventLog::finish("ok");
  const auto records = read_log(path);
  check_envelope(records);
  EXPECT_EQ(str_field(records.front(), "name"), "events_test");
  EXPECT_EQ(str_field(records.back(), "status"), "ok");
  std::remove(path.c_str());
}

TEST(EventLog, OpenFailsOnBadPath) {
  std::string err;
  EXPECT_FALSE(EventLog::open(temp_path("no/such/dir/x.jsonl"), "t", &err));
  EXPECT_FALSE(err.empty());
}

#if COMPSYN_TRACE

class EventLogTest : public ::testing::Test {
 protected:
  void TearDown() override {
    EventLog::reset();
    obs_set_level(ObsLevel::off);
    telemetry_reset();
  }
};

TEST_F(EventLogTest, RoundTripsEveryRecordType) {
  const std::string path = temp_path("types.jsonl");
  std::string err;
  ASSERT_TRUE(EventLog::open(path, "events_test", &err)) << err;
  EventLog::phase("resynth", true);
  EventLog::progress("resynth.roots", 16, 64);
  EventLog::heartbeat("resynth.roots", 1.25);
  EventLog::milestone("checkpoint.write");
  EventLog::phase("resynth", false);
  EventLog::finish("degraded");

  const auto records = read_log(path);
  check_envelope(records);
  ASSERT_EQ(records.size(), 7u);
  EXPECT_EQ(str_field(records[1], "type"), "phase");
  EXPECT_EQ(str_field(records[1], "phase"), "resynth");
  EXPECT_EQ(str_field(records[1], "event"), "begin");
  EXPECT_EQ(str_field(records[2], "type"), "progress");
  EXPECT_EQ(records[2].find("done")->as_u64(), 16u);
  EXPECT_EQ(records[2].find("total")->as_u64(), 64u);
  EXPECT_EQ(str_field(records[3], "type"), "heartbeat");
  EXPECT_DOUBLE_EQ(records[3].find("elapsed_s")->as_double(), 1.25);
  EXPECT_EQ(str_field(records[4], "type"), "milestone");
  EXPECT_EQ(str_field(records[4], "what"), "checkpoint.write");
  EXPECT_EQ(str_field(records[5], "event"), "end");
  EXPECT_EQ(str_field(records[6], "status"), "degraded");
  std::remove(path.c_str());
}

TEST_F(EventLogTest, RecordsNothingAfterFinish) {
  const std::string path = temp_path("closed.jsonl");
  ASSERT_TRUE(EventLog::open(path, "events_test"));
  EventLog::finish("ok");
  EventLog::milestone("late");
  EventLog::finish("twice");
  const auto records = read_log(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(str_field(records.back(), "status"), "ok");
  std::remove(path.c_str());
}

TEST_F(EventLogTest, ProgressTicksFollowTheStride) {
  const std::string path = temp_path("stride.jsonl");
  ASSERT_TRUE(EventLog::open(path, "events_test"));
  obs_set_level(ObsLevel::extended);
  const std::uint64_t total = kProgressStride * 2 + 5;
  for (std::uint64_t done = 1; done <= total; ++done) {
    telemetry_progress("sweep", done, total);
  }
  EventLog::finish("ok");
  const auto records = read_log(path);
  std::vector<std::uint64_t> dones;
  for (const Json& r : records) {
    if (str_field(r, "type") == "progress") {
      dones.push_back(r.find("done")->as_u64());
    }
  }
  // One record per stride multiple plus the final tick.
  EXPECT_EQ(dones, (std::vector<std::uint64_t>{
                       kProgressStride, 2 * kProgressStride, total}));
  std::remove(path.c_str());
}

struct ProgressRecord {
  std::string phase;
  std::uint64_t done = 0;
  std::uint64_t total = 0;
};

/// Progress records produced by one resynthesis run followed by redundancy
/// removal, in order. t_ms and heartbeats (both timing data) are ignored.
std::vector<ProgressRecord> progress_records() {
  const std::string path = temp_path("progress.jsonl");
  EXPECT_TRUE(EventLog::open(path, "events_test"));
  obs_set_level(ObsLevel::extended);
  Netlist nl = make_benchmark("alu4");
  (void)procedure2(nl, 5);
  (void)remove_redundancies(nl);
  EventLog::finish("ok");
  std::vector<ProgressRecord> out;
  for (const Json& r : read_log(path)) {
    if (str_field(r, "type") != "progress") continue;
    out.push_back({str_field(r, "phase"), r.find("done")->as_u64(),
                   r.find("total")->as_u64()});
  }
  std::remove(path.c_str());
  return out;
}

// Every sweep closes with a done == total record: the last record of each
// phase, and every record a new sweep of the same phase follows (its done
// restarts lower).
TEST_F(EventLogTest, ProgressSequenceClosesEverySweep) {
  const auto serial = progress_records();
  EXPECT_FALSE(serial.empty());

  std::map<std::string, ProgressRecord> last;
  for (const ProgressRecord& p : serial) {
    const auto it = last.find(p.phase);
    if (it != last.end() && p.done < it->second.done) {
      EXPECT_EQ(it->second.done, it->second.total)
          << p.phase << " sweep ended without a final record";
    }
    last[p.phase] = p;
  }
  EXPECT_EQ(last.size(), 2u);  // resynth.roots and redundancy.faults
  for (const auto& [phase, p] : last) {
    EXPECT_EQ(p.done, p.total) << phase;
  }
}

#endif  // COMPSYN_TRACE

}  // namespace
}  // namespace compsyn
