// Unit tests for the compsyn-serve-wal-v1 job journal (serve/wal.hpp):
// record encode/decode round trips, guard detection of corruption, replay
// of real files, tolerance of torn/garbage tails, refusal of foreign
// headers, tmp+rename compaction, and the dead-on-first-failure append
// policy under scripted wal:N injection.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "robust/inject.hpp"
#include "serve/wal.hpp"
#include "temp_path.hpp"

namespace compsyn::serve {
namespace {

std::string temp_path(const std::string& leaf) {
  return test_temp_path("wal_" + leaf);
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << text;
  ASSERT_TRUE(os.good()) << path;
}

WalRecord accepted_record(std::uint64_t seq, const std::string& circuit) {
  WalRecord rec;
  rec.type = "accepted";
  rec.seq = seq;
  Json job = Json::object();
  job.set("circuit", circuit);
  rec.fields.set("job", job);
  return rec;
}

TEST(WalRecord, EncodeDecodeRoundTrip) {
  WalRecord rec;
  rec.type = "finished";
  rec.seq = 42;
  rec.fields.set("status", "ok");
  rec.fields.set("bench", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n");
  const std::string line = rec.encode();
  // The guard is the last key, so the line is self-checking as raw bytes.
  EXPECT_NE(line.find("\"guard\":\""), std::string::npos);
  EXPECT_EQ(line.rfind('}'), line.size() - 1);

  std::string err;
  const std::optional<WalRecord> back = WalRecord::decode(line, &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->type, "finished");
  EXPECT_EQ(back->seq, 42u);
  ASSERT_NE(back->fields.find("status"), nullptr);
  EXPECT_EQ(back->fields.find("status")->as_string(), "ok");
  ASSERT_NE(back->fields.find("bench"), nullptr);
  EXPECT_EQ(back->fields.find("bench")->as_string(),
            "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n");
  // The guard itself is not surfaced as a payload field.
  EXPECT_EQ(back->fields.find("guard"), nullptr);
}

TEST(WalRecord, GuardDetectsEverySingleByteFlip) {
  const std::string line = accepted_record(7, "c17").encode();
  for (std::size_t i = 0; i < line.size(); ++i) {
    std::string bad = line;
    bad[i] ^= 0x01;
    std::string err;
    EXPECT_FALSE(WalRecord::decode(bad, &err).has_value())
        << "flip at offset " << i << " went undetected";
  }
}

TEST(WalRecord, TruncationsAreRejected) {
  const std::string line = accepted_record(9, "add8").encode();
  for (std::size_t keep : {std::size_t{0}, line.size() / 2, line.size() - 1}) {
    std::string err;
    EXPECT_FALSE(WalRecord::decode(line.substr(0, keep), &err).has_value())
        << "kept " << keep << " bytes";
  }
}

TEST(JobWal, FreshOpenAppendReopenReplays) {
  const std::string path = temp_path("fresh.wal");
  std::remove(path.c_str());
  std::string err;
  {
    JobWal wal;
    JobWal::Replay replay;
    ASSERT_TRUE(wal.open(path, &replay, &err)) << err;
    EXPECT_TRUE(replay.records.empty());
    EXPECT_EQ(replay.dropped, 0u);
    ASSERT_TRUE(wal.append(accepted_record(1, "c17"), &err)) << err;
    WalRecord started;
    started.type = "started";
    started.seq = 1;
    ASSERT_TRUE(wal.append(started, &err)) << err;
    wal.close();
  }
  // First line is the format header.
  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text[0], '{');
  EXPECT_LT(text.find(kWalFormat), text.find('\n'));

  JobWal wal;
  JobWal::Replay replay;
  ASSERT_TRUE(wal.open(path, &replay, &err)) << err;
  EXPECT_EQ(replay.dropped, 0u);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[0].type, "accepted");
  EXPECT_EQ(replay.records[0].seq, 1u);
  EXPECT_EQ(replay.records[1].type, "started");
  std::remove(path.c_str());
}

TEST(JobWal, TornAndGarbageTailIsDroppedNotFatal) {
  const std::string path = temp_path("torn.wal");
  std::remove(path.c_str());
  std::string err;
  {
    JobWal wal;
    JobWal::Replay replay;
    ASSERT_TRUE(wal.open(path, &replay, &err)) << err;
    ASSERT_TRUE(wal.append(accepted_record(1, "c17"), &err)) << err;
    ASSERT_TRUE(wal.append(accepted_record(2, "add8"), &err)) << err;
    wal.close();
  }
  // Simulate a crash mid-append: a half-written record then stray bytes.
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    const std::string half = accepted_record(3, "mux4").encode();
    os << half.substr(0, half.size() / 2) << "\n";
    os << "not json at all\n";
  }
  JobWal wal;
  JobWal::Replay replay;
  ASSERT_TRUE(wal.open(path, &replay, &err)) << err;
  ASSERT_EQ(replay.records.size(), 2u) << "intact prefix must survive";
  EXPECT_EQ(replay.records[1].seq, 2u);
  EXPECT_GE(replay.dropped, 1u);
  // The reopened journal still accepts appends after the damage.
  ASSERT_TRUE(wal.append(accepted_record(4, "s27"), &err)) << err;
  std::remove(path.c_str());
}

TEST(JobWal, ForeignHeaderRefused) {
  const std::string path = temp_path("foreign.wal");
  spit(path, "{\"type\":\"header\",\"format\":\"some-other-format-v9\"}\n");
  JobWal wal;
  JobWal::Replay replay;
  std::string err;
  EXPECT_FALSE(wal.open(path, &replay, &err));
  EXPECT_FALSE(err.empty());
  std::remove(path.c_str());
}

TEST(JobWal, CompactionKeepsOnlyGivenRecordsAndStaysAppendable) {
  const std::string path = temp_path("compact.wal");
  std::remove(path.c_str());
  std::string err;
  JobWal wal;
  JobWal::Replay replay;
  ASSERT_TRUE(wal.open(path, &replay, &err)) << err;
  for (std::uint64_t s = 1; s <= 5; ++s) {
    ASSERT_TRUE(wal.append(accepted_record(s, "c17"), &err)) << err;
  }
  ASSERT_TRUE(wal.compact({accepted_record(5, "c17")}, &err)) << err;
  ASSERT_TRUE(wal.append(accepted_record(6, "add8"), &err)) << err;
  wal.close();

  JobWal back;
  JobWal::Replay after;
  ASSERT_TRUE(back.open(path, &after, &err)) << err;
  ASSERT_EQ(after.records.size(), 2u);
  EXPECT_EQ(after.records[0].seq, 5u);
  EXPECT_EQ(after.records[1].seq, 6u);
  EXPECT_EQ(after.dropped, 0u);
  std::remove(path.c_str());
}

TEST(JobWal, InjectedAppendFailureMarksJournalDead) {
  const std::string path = temp_path("dead.wal");
  std::remove(path.c_str());
  std::string err;
  // Append ordinals are global: the fresh-open header write is the 1st.
  const auto parsed = robust::FaultPlan::parse("wal:3", &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  robust::InjectScope scope(*parsed);

  JobWal wal;
  JobWal::Replay replay;
  ASSERT_TRUE(wal.open(path, &replay, &err)) << err;
  ASSERT_TRUE(wal.append(accepted_record(1, "c17"), &err)) << err;
  // The 3rd append is scripted to fail; the journal goes dead and every
  // later append fails too (a torn line poisons everything after it).
  EXPECT_FALSE(wal.append(accepted_record(2, "add8"), &err));
  EXPECT_FALSE(wal.append(accepted_record(3, "mux4"), &err));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace compsyn::serve
