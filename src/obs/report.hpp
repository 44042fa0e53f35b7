// Machine-readable run reports: one RunReport per bench/example invocation
// collects run metadata, the plain-text tables as structured records, and a
// snapshot of every span and counter, then writes a single JSON document.
//
// The report layer is always compiled in -- it is the explicit, user-facing
// sink behind --report=<file>; only the span/counter snapshots it embeds
// are subject to the COMPSYN_TRACE / ObsLevel gating (they come out empty
// when instrumentation is off).
//
// obs_cli_start / obs_cli_finish are the one place the observability flags
// of a one-shot binary turn into a level and open sinks.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace compsyn {

class Cli;
class Table;

class RunReport {
 public:
  /// `name` identifies the producing binary ("table2_proc2", ...). Wall time
  /// is measured from `start_ns` (now_ns() clock; construction by default)
  /// to to_json()/write().
  explicit RunReport(std::string name);
  RunReport(std::string name, std::uint64_t start_ns);

  const std::string& name() const { return name_; }

  /// Run metadata (seed, K, circuit list, flag values, ...).
  void set_meta(std::string key, Json value);

  /// Captures a printed table as structured rows: each row becomes an object
  /// mapping column header to cell text.
  void add_table(std::string label, const Table& t);

  /// Appends a free-form record to a named section (e.g. per-circuit stats).
  void add_record(std::string section, Json record);

  /// The full document: name, meta, wall_seconds, spans, counters,
  /// distributions, tables, and every record section.
  Json to_json() const;

  /// Writes to_json() to `path` as pretty JSON. Returns false and fills
  /// *error on I/O failure.
  bool write(const std::string& path, std::string* error = nullptr) const;

  /// Human-readable sink: span and counter summary tables.
  void print_summary(std::ostream& os) const;

 private:
  std::string name_;
  std::uint64_t start_ns_;
  Json meta_ = Json::object();
  std::vector<std::pair<std::string, Json>> tables_;    // label -> {headers, rows}
  std::vector<std::pair<std::string, Json>> sections_;  // section -> array
};

/// The sections every run report embeds -- "spans", "counters" and
/// "distributions" -- written by the report's own code, for a checkpoint to
/// carry.
Json obs_snapshot_json();

/// Adds a snapshot taken by obs_snapshot_json() to the current spans,
/// counters and distributions, so a resumed run reports the work done
/// before its checkpoint too. A missing entry adds nothing.
void obs_merge_json(const Json& snapshot);

/// Reads the observability flags of a one-shot binary:
///   --report=F, --trace                            -> ObsLevel::report
///   --trace-out=F, --events=F, --progress[=SECS]   -> ObsLevel::extended,
/// and opens the sinks those flags name (`name` labels the event log and
/// the stderr heartbeat). Returns false after printing "error: ..." to
/// stderr when the event log cannot be opened.
bool obs_cli_start(const Cli& cli, const std::string& name);

/// Flag-gated end of a one-shot run: writes --report, prints the --trace
/// summary to `out`, writes --trace-out, and finishes the event log with
/// `status`. Returns false after printing "error: ..." to stderr for each
/// artifact that could not be written.
bool obs_cli_finish(const Cli& cli, const RunReport& report,
                    std::string_view status, std::ostream& out);

}  // namespace compsyn
