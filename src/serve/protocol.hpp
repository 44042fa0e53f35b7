// The compsyn-serve-v1 wire protocol (DESIGN.md §13).
//
// Transport: a byte stream (Unix-domain socket or a stdio pipe) carrying a
// sequence of *frames*. One frame is a 4-byte big-endian payload length
// followed by that many bytes of UTF-8 JSON (one message per frame, compact
// or pretty -- the strict obs parser decides). Length 0 is invalid; lengths
// above the receiver's limit (kMaxFramePayload by default) are a protocol
// error: the receiver answers with an "error" message and drops the
// connection, because the stream position after an oversized or truncated
// frame is unrecoverable. Malformed *payloads* (bad JSON, missing fields,
// unparseable .bench) are recoverable: they yield a per-message "error" or
// per-job "result" with status "error", and the connection keeps serving.
//
// Messages (JSON objects, discriminated by "type"):
//   client -> server
//     {"type":"job", "id":..., "circuit":..., ["bench":...,] job flags...}
//     {"type":"ping"}              liveness probe
//     {"type":"stats"}             daemon counters snapshot
//     {"type":"shutdown"}          drain queued jobs, then exit 0
//   server -> client
//     {"type":"result", "id":..., "status":"ok|degraded|interrupted|error",
//      "cache":"hit|miss", ["error":...,] ["bench":..., "report":{...},
//      "stdout":...,] "wall_ms":...}
//     {"type":"pong", "schema":"compsyn-serve-v1"}
//     {"type":"stats", ...counters}
//     {"type":"bye", "jobs_served":N}
//     {"type":"error", "error":...}   protocol-level failure
//
// Framing helpers here are plain blocking-fd functions with an optional
// should_stop predicate (polled every kPollIntervalMs) so reader threads
// wind down promptly when the daemon drains.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "flow/flow.hpp"
#include "obs/json.hpp"
#include "robust/robust.hpp"

namespace compsyn::serve {

inline constexpr const char* kServeSchema = "compsyn-serve-v1";

/// Hard ceiling on one frame's payload (guards against hostile or corrupt
/// length prefixes allocating unbounded memory).
inline constexpr std::uint32_t kMaxFramePayload = 64u * 1024 * 1024;

/// Poll granularity of the framing loops: how often should_stop is checked
/// while a read or write would block.
inline constexpr int kPollIntervalMs = 100;

/// Outcome of one framed read.
enum class FrameStatus {
  Ok,         // *payload holds one complete frame
  Eof,        // clean end of stream before any byte of a frame
  Truncated,  // stream ended inside a frame (length prefix or payload)
  TooLarge,   // length prefix exceeds the limit; stream position is lost
  Stopped,    // should_stop() fired while waiting
  Error,      // read(2)/write(2) failure; *error holds errno text
};

/// Reads one length-prefixed frame from `fd`. Blocks (poll + read loop)
/// until a full frame, EOF, an error, or should_stop. On TooLarge the bad
/// length is reported in *error; no payload bytes are consumed.
FrameStatus read_frame(int fd, std::string* payload, std::string* error,
                       const std::function<bool()>& should_stop = {},
                       std::uint32_t max_payload = kMaxFramePayload);

/// Writes one frame (4-byte big-endian length + payload). Returns false on
/// error or when the payload exceeds max_payload.
bool write_frame(int fd, std::string_view payload, std::string* error,
                 std::uint32_t max_payload = kMaxFramePayload);

/// Serializes a message and writes it as one frame (compact JSON).
bool write_message(int fd, const Json& message, std::string* error);

/// One resynthesis job as it travels on the wire: the flow's own options
/// (FlowSpec, the knob set of the one-shot `resynth_flow` binary) plus what
/// only a job carries, so a job's result can be byte-compared against a
/// one-shot run (DESIGN.md §13.2).
struct JobSpec : FlowSpec {
  std::string id;            // client-chosen correlation id
  std::string circuit;       // suite name, or the path string of a .bench
  std::string bench;         // .bench text ("" = build `circuit` via the suite)
  double deadline = 0.0;     // per-job wall-clock watchdog (0 = none)

  /// The flag-set part of the cache key: every field that changes the
  /// result or the report, in a fixed order. Deadline is excluded -- jobs
  /// with a deadline are never cached (their outcome is wall-clock
  /// dependent); the executor enforces that separately.
  std::string option_key() const;

  /// Encodes as a {"type":"job"} message.
  Json to_json() const;

  /// Decodes a {"type":"job"} message; returns nullopt and fills *error on
  /// missing/ill-typed fields or out-of-range values.
  static std::optional<JobSpec> from_json(const Json& j, std::string* error);
};

/// One job's outcome as it travels back.
struct JobResult {
  std::string id;
  robust::RunStatus status = robust::RunStatus::Complete;
  bool cache_hit = false;
  std::string error;    // non-empty iff status is error or interrupted
  std::string bench;    // resynthesized .bench text (empty on error)
  Json report;          // the resynth_flow-shaped run report (object)
  std::string stdout_text;  // the one-shot flow's stdout, byte-identical
  double wall_ms = 0.0;     // queue-to-response wall time (envelope only)
  // Set (non-zero) only on admission-control rejections (error
  // "overloaded"): how long the client should back off before
  // re-submitting. Deterministic -- computed from queue state, never from
  // the wall clock.
  std::uint64_t retry_after_ms = 0;

  Json to_json() const;
  static std::optional<JobResult> from_json(const Json& j, std::string* error);
};

}  // namespace compsyn::serve
