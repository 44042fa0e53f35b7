#include "obs/report.hpp"

#include <fstream>
#include <iostream>

#include "obs/chrome_trace.hpp"
#include "obs/counters.hpp"
#include "obs/events.hpp"
#include "obs/histogram.hpp"
#include "obs/memstats.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace compsyn {
namespace {

Json spans_json() {
  Json arr = Json::array();
  for (const SpanStats& s : Trace::snapshot()) {
    Json o = Json::object();
    o.set("label", s.label);
    o.set("count", s.count);
    o.set("total_ns", s.total_ns);
    o.set("self_ns", s.self_ns);
    o.set("min_ns", s.min_ns);
    o.set("max_ns", s.max_ns);
    arr.push(std::move(o));
  }
  return arr;
}

Json counters_json() {
  Json o = Json::object();
  for (const CounterStat& c : Counters::counters()) o.set(c.name, c.value);
  return o;
}

Json distributions_json() {
  Json arr = Json::array();
  for (const DistStat& d : Counters::distributions()) {
    Json o = Json::object();
    o.set("name", d.name);
    o.set("count", d.count);
    o.set("sum", d.sum);
    o.set("min", d.min);
    o.set("max", d.max);
    arr.push(std::move(o));
  }
  return arr;
}

Json histograms_json() {
  Json arr = Json::array();
  for (const HistStat& h : Histogram::snapshot()) {
    Json o = Json::object();
    o.set("name", h.name);
    o.set("count", h.count);
    o.set("sum_ns", h.sum_ns);
    // Trailing-zero buckets are elided; the layout is fixed (power-of-two
    // ns ranges, bucket k = [2^k, 2^(k+1)) ns), so indices alone identify
    // the ranges.
    std::size_t last = h.buckets.size();
    while (last > 0 && h.buckets[last - 1] == 0) --last;
    Json buckets = Json::array();
    for (std::size_t k = 0; k < last; ++k) buckets.push(h.buckets[k]);
    o.set("buckets", std::move(buckets));
    arr.push(std::move(o));
  }
  return arr;
}

Json phases_json() {
  Json arr = Json::array();
  for (const PhaseStat& p : telemetry_phases()) {
    Json o = Json::object();
    o.set("name", p.name);
    o.set("wall_ns", p.wall_ns);
    o.set("alloc_count", p.alloc_count);
    o.set("alloc_bytes", p.alloc_bytes);
    o.set("peak_rss_bytes", p.peak_rss_bytes);
    arr.push(std::move(o));
  }
  return arr;
}

Json hot_cones_json() {
  Json arr = Json::array();
  for (const HotCone& c : telemetry_hot_cones()) {
    Json o = Json::object();
    o.set("root", c.root);
    o.set("total_ns", c.total_ns);
    o.set("cones", c.cones);
    arr.push(std::move(o));
  }
  return arr;
}

}  // namespace

RunReport::RunReport(std::string name) : RunReport(std::move(name), now_ns()) {}

RunReport::RunReport(std::string name, std::uint64_t start_ns)
    : name_(std::move(name)), start_ns_(start_ns) {}

Json obs_snapshot_json() {
  Json j = Json::object();
  j.set("spans", spans_json());
  j.set("counters", counters_json());
  j.set("distributions", distributions_json());
  return j;
}

void obs_merge_json(const Json& snapshot) {
  // A missing member reads as null: 0, 0.0 or "".
  auto get = [](const Json& o, const char* key) {
    const Json* v = o.find(key);
    return v != nullptr ? *v : Json();
  };
  const Json spans = get(snapshot, "spans");
  const Json counters = get(snapshot, "counters");
  const Json dists = get(snapshot, "distributions");
  std::vector<SpanStats> span_stats;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Json& s = spans.at(i);
    span_stats.push_back({get(s, "label").as_string(), get(s, "count").as_u64(),
                          get(s, "total_ns").as_u64(), get(s, "self_ns").as_u64(),
                          get(s, "min_ns").as_u64(), get(s, "max_ns").as_u64()});
  }
  std::vector<CounterStat> counter_stats;
  for (const auto& [name, value] : counters.items()) {
    counter_stats.push_back({name, value.as_u64()});
  }
  std::vector<DistStat> dist_stats;
  for (std::size_t i = 0; i < dists.size(); ++i) {
    const Json& d = dists.at(i);
    dist_stats.push_back({get(d, "name").as_string(), get(d, "count").as_u64(),
                          get(d, "sum").as_double(), get(d, "min").as_double(),
                          get(d, "max").as_double()});
  }
  Trace::merge(span_stats);
  Counters::merge(counter_stats, dist_stats);
}

void RunReport::set_meta(std::string key, Json value) {
  meta_.set(std::move(key), std::move(value));
}

void RunReport::add_table(std::string label, const Table& t) {
  Json headers = Json::array();
  for (const std::string& h : t.headers()) headers.push(h);
  Json rows = Json::array();
  for (const auto& r : t.rows()) {
    Json row = Json::object();
    for (std::size_t c = 0; c < t.headers().size(); ++c) {
      row.set(t.headers()[c], c < r.size() ? Json(r[c]) : Json());
    }
    rows.push(std::move(row));
  }
  Json table = Json::object();
  table.set("headers", std::move(headers));
  table.set("rows", std::move(rows));
  tables_.emplace_back(std::move(label), std::move(table));
}

void RunReport::add_record(std::string section, Json record) {
  for (auto& [name, arr] : sections_) {
    if (name == section) {
      arr.push(std::move(record));
      return;
    }
  }
  Json arr = Json::array();
  arr.push(std::move(record));
  sections_.emplace_back(std::move(section), std::move(arr));
}

Json RunReport::to_json() const {
  const double wall = static_cast<double>(now_ns() - start_ns_) / 1e9;
  Json doc = Json::object();
  doc.set("name", name_);
  doc.set("meta", meta_);
  doc.set("wall_seconds", wall);
  const Json obs = obs_snapshot_json();
  for (const auto& [key, section] : obs.items()) doc.set(key, section);
  // Extended sections appear ONLY at the extended level: reports from plain
  // --report runs stay byte-identical (the golden-reference tests depend on
  // it).
  if (obs_level() == ObsLevel::extended) {
    doc.set("histograms", histograms_json());
    doc.set("phases", phases_json());
    doc.set("hot_cones", hot_cones_json());
    doc.set("peak_rss_bytes", peak_rss_bytes());
  }
  Json tables = Json::object();
  for (const auto& [label, t] : tables_) tables.set(label, t);
  doc.set("tables", std::move(tables));
  for (const auto& [section, arr] : sections_) doc.set(section, arr);
  return doc;
}

bool RunReport::write(const std::string& path, std::string* error) const {
  std::ofstream os(path);
  if (!os) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  to_json().write(os, 2);
  os << '\n';
  os.flush();
  if (!os) {
    if (error != nullptr) *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

void RunReport::print_summary(std::ostream& os) const {
  os << "== " << name_ << ": span summary ==\n";
  Trace::print_summary(os);
  os << "\n== " << name_ << ": counters ==\n";
  Counters::print_summary(os);
}

bool obs_cli_start(const Cli& cli, const std::string& name) {
  const bool extended =
      cli.has("trace-out") || cli.has("events") || cli.has("progress");
  if (extended) {
    obs_set_level(ObsLevel::extended);
  } else if (cli.has("report") || cli.has("trace")) {
    obs_set_level(ObsLevel::report);
  }
  // Armed up front so a SIGINT/deadline wind-down still flushes the profile.
  if (cli.has("trace-out")) ChromeTrace::open(cli.get("trace-out"));
  if (cli.has("events")) {
    std::string err;
    if (!EventLog::open(cli.get("events"), name, &err)) {
      std::cerr << "error: " << err << "\n";
      return false;
    }
  }
  if (cli.has("progress")) {
    const double interval = cli.get_double("progress", 1.0);
    telemetry_set_progress(name, interval > 0 ? interval : 1.0);
  }
  return true;
}

bool obs_cli_finish(const Cli& cli, const RunReport& report,
                    std::string_view status, std::ostream& out) {
  bool ok = true;
  std::string err;
  if (cli.has("report") && !report.write(cli.get("report"), &err)) {
    std::cerr << "error: " << err << "\n";
    ok = false;
  }
  if (cli.has("trace")) {
    out << "\n";
    report.print_summary(out);
  }
  if (!ChromeTrace::flush(&err)) {
    std::cerr << "error: " << err << "\n";
    ok = false;
  }
  EventLog::finish(status);
  return ok;
}

}  // namespace compsyn
