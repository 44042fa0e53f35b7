#include "serve/protocol.hpp"

#include <cerrno>
#include <cstring>

#include <poll.h>
#include <unistd.h>

namespace compsyn::serve {
namespace {

/// Reads exactly n bytes. Distinguishes clean EOF before the first byte
/// (Eof) from EOF mid-buffer (Truncated).
FrameStatus read_exact(int fd, char* buf, std::size_t n, std::string* error,
                       const std::function<bool()>& should_stop) {
  std::size_t got = 0;
  while (got < n) {
    if (should_stop && should_stop()) return FrameStatus::Stopped;
    struct pollfd pfd = {fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, kPollIntervalMs);
    if (pr < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = std::string("poll: ") + std::strerror(errno);
      return FrameStatus::Error;
    }
    if (pr == 0) continue;  // timeout: re-check should_stop
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = std::string("read: ") + std::strerror(errno);
      return FrameStatus::Error;
    }
    if (r == 0) return got == 0 ? FrameStatus::Eof : FrameStatus::Truncated;
    got += static_cast<std::size_t>(r);
  }
  return FrameStatus::Ok;
}

bool write_all(int fd, const char* buf, std::size_t n, std::string* error) {
  std::size_t put = 0;
  while (put < n) {
    const ssize_t w = ::write(fd, buf + put, n - put);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = std::string("write: ") + std::strerror(errno);
      return false;
    }
    put += static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

FrameStatus read_frame(int fd, std::string* payload, std::string* error,
                       const std::function<bool()>& should_stop,
                       std::uint32_t max_payload) {
  char head[4];
  FrameStatus st = read_exact(fd, head, 4, error, should_stop);
  if (st == FrameStatus::Truncated && error != nullptr) {
    *error = "stream ended inside a length prefix";
  }
  if (st != FrameStatus::Ok) return st;
  const std::uint32_t len = (static_cast<std::uint32_t>(
                                 static_cast<unsigned char>(head[0]))
                             << 24) |
                            (static_cast<std::uint32_t>(
                                 static_cast<unsigned char>(head[1]))
                             << 16) |
                            (static_cast<std::uint32_t>(
                                 static_cast<unsigned char>(head[2]))
                             << 8) |
                            static_cast<std::uint32_t>(
                                static_cast<unsigned char>(head[3]));
  if (len == 0 || len > max_payload) {
    if (error != nullptr) {
      *error = "frame length " + std::to_string(len) +
               (len == 0 ? " (empty frames are invalid)"
                         : " exceeds the " + std::to_string(max_payload) +
                               "-byte limit");
    }
    return FrameStatus::TooLarge;
  }
  payload->resize(len);
  st = read_exact(fd, payload->data(), len, error, should_stop);
  if (st == FrameStatus::Eof || st == FrameStatus::Truncated) {
    if (error != nullptr) {
      *error = "stream ended inside a " + std::to_string(len) +
               "-byte frame payload";
    }
    return FrameStatus::Truncated;
  }
  return st;
}

bool write_frame(int fd, std::string_view payload, std::string* error,
                 std::uint32_t max_payload) {
  if (payload.empty() || payload.size() > max_payload) {
    if (error != nullptr) {
      *error = "refusing to write a " + std::to_string(payload.size()) +
               "-byte frame";
    }
    return false;
  }
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  char head[4] = {static_cast<char>(len >> 24), static_cast<char>(len >> 16),
                  static_cast<char>(len >> 8), static_cast<char>(len)};
  return write_all(fd, head, 4, error) &&
         write_all(fd, payload.data(), payload.size(), error);
}

bool write_message(int fd, const Json& message, std::string* error) {
  return write_frame(fd, message.dump(), error);
}

std::string JobSpec::option_key() const {
  std::string key;
  key.reserve(128);
  key += "circuit=";
  key += circuit;
  key += "|proc=";
  key += proc;
  key += "|k=";
  key += std::to_string(k);
  key += "|wg=";
  key += Json(weight_gates).dump();  // exact double round-trip formatting
  key += "|wp=";
  key += Json(weight_paths).dump();
  key += "|verify=";
  key += verify;
  if (budget) {
    key += "|budget=";
    key += std::to_string(*budget);
  }
  return key;
}

Json JobSpec::to_json() const {
  Json j = Json::object();
  j.set("type", "job");
  j.set("id", id);
  j.set("circuit", circuit);
  if (!bench.empty()) j.set("bench", bench);
  write_json(j);
  if (deadline > 0.0) j.set("deadline", deadline);
  return j;
}

std::optional<JobSpec> JobSpec::from_json(const Json& j, std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<JobSpec> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  if (!j.is_object()) return fail("job message is not an object");
  JobSpec spec;
  const Json* f = j.find("id");
  if (f == nullptr || f->type() != Json::Type::String) {
    return fail("job message missing string 'id'");
  }
  spec.id = f->as_string();
  f = j.find("circuit");
  if (f == nullptr || f->type() != Json::Type::String || f->as_string().empty()) {
    return fail("job message missing non-empty string 'circuit'");
  }
  spec.circuit = f->as_string();
  if ((f = j.find("bench")) != nullptr) {
    if (f->type() != Json::Type::String) return fail("'bench' must be a string");
    spec.bench = f->as_string();
  }
  if ((f = j.find("deadline")) != nullptr) {
    if (!f->is_number()) return fail("'deadline' must be a number");
    spec.deadline = f->as_double();
  }
  std::string invalid;
  if (!spec.read_json(j, &invalid)) return fail(invalid);
  return spec;
}

Json JobResult::to_json() const {
  Json j = Json::object();
  j.set("type", "result");
  j.set("id", id);
  j.set("status", robust::to_string(status));
  j.set("cache", cache_hit ? "hit" : "miss");
  if (!error.empty()) j.set("error", error);
  if (!bench.empty()) j.set("bench", bench);
  if (report.is_object()) j.set("report", report);
  if (!stdout_text.empty()) j.set("stdout", stdout_text);
  j.set("wall_ms", wall_ms);
  if (retry_after_ms > 0) j.set("retry_after_ms", retry_after_ms);
  return j;
}

std::optional<JobResult> JobResult::from_json(const Json& j,
                                              std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<JobResult> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  if (!j.is_object()) return fail("result message is not an object");
  JobResult r;
  const Json* f = j.find("id");
  if (f == nullptr) return fail("result missing 'id'");
  r.id = f->as_string();
  f = j.find("status");
  if (f == nullptr) return fail("result missing 'status'");
  const std::optional<robust::RunStatus> status =
      robust::parse_run_status(f->as_string());
  if (!status) return fail("result has an unknown 'status'");
  r.status = *status;
  if ((f = j.find("cache")) != nullptr) r.cache_hit = f->as_string() == "hit";
  if ((f = j.find("error")) != nullptr) r.error = f->as_string();
  if ((f = j.find("bench")) != nullptr) r.bench = f->as_string();
  if ((f = j.find("report")) != nullptr) r.report = *f;
  if ((f = j.find("stdout")) != nullptr) r.stdout_text = f->as_string();
  if ((f = j.find("wall_ms")) != nullptr) r.wall_ms = f->as_double();
  if ((f = j.find("retry_after_ms")) != nullptr) r.retry_after_ms = f->as_u64();
  return r;
}

}  // namespace compsyn::serve
