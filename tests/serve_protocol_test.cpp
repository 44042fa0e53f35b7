// compsyn-serve-v1 framing and message-codec tests: frame round-trips over
// real pipes, every framing failure mode (clean EOF, truncated prefix,
// truncated payload, oversized and zero length prefixes, should_stop), and
// the JobSpec/JobResult JSON codecs including field validation.
#include <gtest/gtest.h>

#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"

namespace compsyn::serve {
namespace {

struct Pipe {
  int rfd = -1;
  int wfd = -1;
  Pipe() {
    int fds[2];
    EXPECT_EQ(::pipe(fds), 0);
    rfd = fds[0];
    wfd = fds[1];
  }
  ~Pipe() {
    close_write();
    if (rfd >= 0) ::close(rfd);
  }
  void close_write() {
    if (wfd >= 0) ::close(wfd);
    wfd = -1;
  }
};

/// Writes raw bytes (not a valid frame necessarily).
void write_raw(int fd, const std::string& bytes) {
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
}

TEST(ServeFraming, RoundTripsPayloads) {
  Pipe p;
  std::string err;
  const std::vector<std::string> payloads = {
      "{}", "x", std::string("\x00\xff\x7f", 3)};
  for (const std::string& sent : payloads) {
    ASSERT_TRUE(write_frame(p.wfd, sent, &err)) << err;
    std::string got;
    ASSERT_EQ(read_frame(p.rfd, &got, &err), FrameStatus::Ok) << err;
    EXPECT_EQ(got, sent);
  }
}

TEST(ServeFraming, RoundTripsPayloadLargerThanPipeBuffer) {
  // 70000 bytes exceeds the default 64KiB pipe capacity, so the writer must
  // run concurrently with the reader (write_all would otherwise block).
  Pipe p;
  const std::string sent(70000, 'a');
  std::thread writer([&] {
    std::string werr;
    EXPECT_TRUE(write_frame(p.wfd, sent, &werr)) << werr;
  });
  std::string got, err;
  EXPECT_EQ(read_frame(p.rfd, &got, &err), FrameStatus::Ok) << err;
  writer.join();
  EXPECT_EQ(got, sent);
}

TEST(ServeFraming, BackToBackFramesKeepBoundaries) {
  Pipe p;
  std::string err;
  ASSERT_TRUE(write_frame(p.wfd, "first", &err));
  ASSERT_TRUE(write_frame(p.wfd, "second", &err));
  std::string got;
  ASSERT_EQ(read_frame(p.rfd, &got, &err), FrameStatus::Ok);
  EXPECT_EQ(got, "first");
  ASSERT_EQ(read_frame(p.rfd, &got, &err), FrameStatus::Ok);
  EXPECT_EQ(got, "second");
}

TEST(ServeFraming, CleanEofBeforeAnyByte) {
  Pipe p;
  p.close_write();
  std::string got, err;
  EXPECT_EQ(read_frame(p.rfd, &got, &err), FrameStatus::Eof);
}

TEST(ServeFraming, TruncatedLengthPrefix) {
  Pipe p;
  write_raw(p.wfd, std::string("\x00\x00", 2));
  p.close_write();
  std::string got, err;
  EXPECT_EQ(read_frame(p.rfd, &got, &err), FrameStatus::Truncated);
  EXPECT_NE(err.find("length prefix"), std::string::npos) << err;
}

TEST(ServeFraming, TruncatedPayload) {
  Pipe p;
  // Announce 100 bytes, deliver 10.
  write_raw(p.wfd, std::string("\x00\x00\x00\x64", 4));
  write_raw(p.wfd, std::string(10, 'x'));
  p.close_write();
  std::string got, err;
  EXPECT_EQ(read_frame(p.rfd, &got, &err), FrameStatus::Truncated);
  EXPECT_NE(err.find("100-byte frame payload"), std::string::npos) << err;
}

TEST(ServeFraming, OversizedLengthPrefixIsRejectedWithoutAllocating) {
  Pipe p;
  write_raw(p.wfd, std::string("\xff\xff\xff\xff", 4));
  std::string got, err;
  EXPECT_EQ(read_frame(p.rfd, &got, &err), FrameStatus::TooLarge);
  EXPECT_NE(err.find("exceeds"), std::string::npos) << err;
}

TEST(ServeFraming, CustomLimitApplies) {
  Pipe p;
  std::string err;
  ASSERT_TRUE(write_frame(p.wfd, std::string(64, 'y'), &err));
  std::string got;
  EXPECT_EQ(read_frame(p.rfd, &got, &err, {}, /*max_payload=*/16),
            FrameStatus::TooLarge);
}

TEST(ServeFraming, ZeroLengthFrameIsInvalid) {
  Pipe p;
  write_raw(p.wfd, std::string("\x00\x00\x00\x00", 4));
  std::string got, err;
  EXPECT_EQ(read_frame(p.rfd, &got, &err), FrameStatus::TooLarge);
  EXPECT_NE(err.find("empty frames"), std::string::npos) << err;
}

TEST(ServeFraming, WriteRejectsEmptyAndOversized) {
  Pipe p;
  std::string err;
  EXPECT_FALSE(write_frame(p.wfd, "", &err));
  EXPECT_FALSE(write_frame(p.wfd, std::string(32, 'z'), &err,
                           /*max_payload=*/16));
}

TEST(ServeFraming, ShouldStopAbandonsABlockedRead) {
  Pipe p;  // nothing ever written
  std::atomic<bool> stop{false};
  std::string got, err;
  FrameStatus st = FrameStatus::Ok;
  std::thread reader([&] {
    st = read_frame(p.rfd, &got, &err, [&] { return stop.load(); });
  });
  stop.store(true);
  reader.join();
  EXPECT_EQ(st, FrameStatus::Stopped);
}

TEST(ServeJobSpec, RoundTripsAllFields) {
  JobSpec spec;
  spec.id = "j1";
  spec.circuit = "dir/c432.bench";
  spec.bench = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
  spec.proc = "combined";
  spec.k = 8;
  spec.weight_gates = 0.25;
  spec.weight_paths = 1.75;
  spec.verify = "both";
  spec.budget = 12345;
  spec.deadline = 1.5;
  std::string err;
  const std::optional<JobSpec> back = JobSpec::from_json(spec.to_json(), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->id, spec.id);
  EXPECT_EQ(back->circuit, spec.circuit);
  EXPECT_EQ(back->bench, spec.bench);
  EXPECT_EQ(back->proc, spec.proc);
  EXPECT_EQ(back->k, spec.k);
  EXPECT_EQ(back->weight_gates, spec.weight_gates);
  EXPECT_EQ(back->weight_paths, spec.weight_paths);
  EXPECT_EQ(back->verify, spec.verify);
  EXPECT_EQ(back->budget, spec.budget);
  EXPECT_EQ(back->deadline, spec.deadline);
  EXPECT_EQ(back->option_key(), spec.option_key());
}

TEST(ServeJobSpec, DefaultsMatchResynthFlow) {
  Json j = Json::object();
  j.set("type", "job");
  j.set("id", "d");
  j.set("circuit", "add8");
  std::string err;
  const std::optional<JobSpec> spec = JobSpec::from_json(j, &err);
  ASSERT_TRUE(spec.has_value()) << err;
  EXPECT_EQ(spec->proc, "2");
  EXPECT_EQ(spec->k, 6u);
  EXPECT_EQ(spec->weight_gates, 1.0);
  EXPECT_EQ(spec->weight_paths, 1.0);
  EXPECT_EQ(spec->verify, "sim");
  EXPECT_FALSE(spec->budget.has_value());
  EXPECT_EQ(spec->deadline, 0.0);
}

TEST(ServeJobSpec, BudgetZeroIsKept) {
  // --budget=0 sets no limit but asks for the status meta, so a job must
  // carry it as given, not drop it as "no budget".
  JobSpec spec;
  spec.id = "z";
  spec.circuit = "c17";
  spec.budget = 0;
  const Json j = spec.to_json();
  ASSERT_NE(j.find("budget"), nullptr);
  std::string err;
  const std::optional<JobSpec> back = JobSpec::from_json(j, &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->budget, std::optional<std::uint64_t>(0));
}

TEST(ServeJobSpec, ValidationRejectsBadFields) {
  auto base = [] {
    Json j = Json::object();
    j.set("type", "job");
    j.set("id", "x");
    j.set("circuit", "c17");
    return j;
  };
  std::string err;
  Json j = base();
  j.set("proc", "4");
  EXPECT_FALSE(JobSpec::from_json(j, &err).has_value());
  EXPECT_NE(err.find("proc"), std::string::npos);
  j = base();
  j.set("k", std::uint64_t{0});
  EXPECT_FALSE(JobSpec::from_json(j, &err).has_value());
  j = base();
  j.set("k", std::uint64_t{9});
  EXPECT_FALSE(JobSpec::from_json(j, &err).has_value());
  EXPECT_NE(err.find("'k'"), std::string::npos);
  j = base();
  j.set("k", std::uint64_t{8});
  EXPECT_TRUE(JobSpec::from_json(j, &err).has_value()) << err;
  j = base();
  j.set("verify", "always");
  EXPECT_FALSE(JobSpec::from_json(j, &err).has_value());
  // Missing id / circuit.
  j = Json::object();
  j.set("circuit", "c17");
  EXPECT_FALSE(JobSpec::from_json(j, &err).has_value());
  j = Json::object();
  j.set("id", "x");
  EXPECT_FALSE(JobSpec::from_json(j, &err).has_value());
  j = base();
  j.set("circuit", "");
  EXPECT_FALSE(JobSpec::from_json(j, &err).has_value());
}

TEST(ServeJobSpec, IllTypedFieldsAreErrorsNotTruncations) {
  auto with = [](const char* key, Json value) {
    Json j = Json::object();
    j.set("type", "job");
    j.set("id", "x");
    j.set("circuit", "c17");
    j.set(key, std::move(value));
    return j;
  };
  std::string err;
  // A fractional K or a string weight is refused, not truncated to 5 or 0.
  EXPECT_FALSE(JobSpec::from_json(with("k", 5.7), &err).has_value());
  EXPECT_NE(err.find("'k'"), std::string::npos) << err;
  EXPECT_FALSE(JobSpec::from_json(with("weight_gates", "x"), &err).has_value());
  EXPECT_NE(err.find("'weight_gates'"), std::string::npos) << err;
  EXPECT_FALSE(JobSpec::from_json(with("k", std::int64_t{-1}), &err).has_value());
  EXPECT_FALSE(JobSpec::from_json(with("budget", 1.5), &err).has_value());
  EXPECT_NE(err.find("'budget'"), std::string::npos) << err;
  EXPECT_FALSE(JobSpec::from_json(with("proc", std::uint64_t{3}), &err).has_value());
  EXPECT_FALSE(JobSpec::from_json(with("verify", true), &err).has_value());
  EXPECT_FALSE(JobSpec::from_json(with("deadline", "soon"), &err).has_value());
  EXPECT_NE(err.find("'deadline'"), std::string::npos) << err;
  // Integral weights and deadlines are numbers too.
  EXPECT_TRUE(JobSpec::from_json(with("weight_paths", std::uint64_t{2}), &err)
                  .has_value())
      << err;
  EXPECT_TRUE(JobSpec::from_json(with("deadline", std::uint64_t{3}), &err)
                  .has_value())
      << err;
}

TEST(ServeJobSpec, OptionKeySeparatesEveryKnob) {
  JobSpec a;
  a.id = "a";
  a.circuit = "c17";
  std::vector<JobSpec> variants(7, a);
  variants[0].proc = "3";
  variants[1].k = 7;
  variants[2].weight_gates = 2.0;
  variants[3].weight_paths = 0.5;
  variants[4].verify = "sat";
  variants[5].budget = 99;
  variants[6].budget = 0;  // set, so the report carries the status meta
  for (const JobSpec& v : variants) {
    EXPECT_NE(v.option_key(), a.option_key());
  }
  // id and deadline are NOT part of the key: ids are correlation-only and
  // deadline jobs are never cached at all.
  JobSpec b = a;
  b.id = "other";
  b.deadline = 3.0;
  EXPECT_EQ(b.option_key(), a.option_key());
}

TEST(ServeJobResult, RoundTrips) {
  JobResult r;
  r.id = "j9";
  r.status = robust::RunStatus::Degraded;
  r.cache_hit = true;
  r.error = "budget";
  r.bench = "# c\nINPUT(a)\n";
  Json rep = Json::object();
  rep.set("name", "resynth_flow");
  r.report = rep;
  r.stdout_text = "circuit c: ...\n";
  r.wall_ms = 12.5;
  std::string err;
  const std::optional<JobResult> back =
      JobResult::from_json(r.to_json(), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->id, r.id);
  EXPECT_EQ(back->status, r.status);
  EXPECT_TRUE(back->cache_hit);
  EXPECT_EQ(back->error, r.error);
  EXPECT_EQ(back->bench, r.bench);
  EXPECT_EQ(back->report.dump(), r.report.dump());
  EXPECT_EQ(back->stdout_text, r.stdout_text);
  EXPECT_EQ(back->wall_ms, r.wall_ms);
}

}  // namespace
}  // namespace compsyn::serve
