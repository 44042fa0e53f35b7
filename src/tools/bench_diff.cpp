// Compares two bench reports (compsyn-bench-v2, legacy reports auto-tagged)
// and renders per-span / per-counter deltas: the perf-regression gate behind
// CI's perf-smoke job and the manual "did my change cost anything" check.
//
//   $ ./bench_diff base.json new.json
//   $ ./bench_diff --tolerance=0.25 --json=verdict.json base.json new.json
//   $ ./bench_diff --strict-counters --tolerance=1000 base.json new.json
//
// Time metrics (wall_seconds, span total_ns, histogram sum_ns) regress when
// the new report is more than --tolerance (relative, default 0.10 = +10%)
// slower on a metric whose base or new total clears --min-ns (default 1ms;
// sub-millisecond spans are clock noise). Counters are deterministic, so
// they are compared exactly: differences are always listed, and with
// --strict-counters any difference fails the gate (with a huge --tolerance
// this turns bench_diff into a pure determinism check, which is what the CI
// perf-smoke job runs -- wall time on shared runners is not a signal).
//
// --json=FILE writes a machine verdict; --trajectory=FILE appends a one-line
// JSONL summary of the NEW report (see BENCH_trajectory.jsonl).
//
// Exit codes: 0 no regression, 1 regression, 2 usage or input error.
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/bench_schema.hpp"
#include "obs/json.hpp"
#include "robust/guard.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace compsyn;

namespace {

double as_number(const Json& j) {
  switch (j.type()) {
    case Json::Type::Int:
      return static_cast<double>(j.as_i64());
    case Json::Type::Uint:
      return static_cast<double>(j.as_u64());
    case Json::Type::Double:
      return j.as_double();
    default:
      return 0.0;
  }
}

bool load_report(const std::string& path, Json* out, std::string* err) {
  std::ifstream is(path);
  if (!is) {
    *err = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  std::optional<Json> doc = Json::parse(buf.str(), err);
  if (!doc) {
    *err = path + ": " + *err;
    return false;
  }
  if (!bench_normalize_v2(std::move(*doc), out, err)) {
    *err = path + ": " + *err;
    return false;
  }
  return true;
}

/// One comparable time metric ("span:resynth", "hist:sat.query.ns", ...).
struct TimeMetric {
  std::string name;
  double base_ns = 0;
  double new_ns = 0;
  bool in_base = false;
  bool in_new = false;
};

/// Name-keyed merge of a {label/name, value_key} array from both reports.
void collect_array_metric(const Json& base, const Json& next,
                          const char* section, const char* key_field,
                          const char* value_field, const std::string& prefix,
                          std::vector<TimeMetric>* out) {
  auto scan = [&](const Json& doc, bool is_base) {
    const Json* arr = doc.find(section);
    if (arr == nullptr || !arr->is_array()) return;
    for (std::size_t i = 0; i < arr->size(); ++i) {
      const Json& e = arr->at(i);
      const Json* name = e.find(key_field);
      const Json* value = e.find(value_field);
      if (name == nullptr || value == nullptr) continue;
      const std::string full = prefix + name->as_string();
      TimeMetric* m = nullptr;
      for (TimeMetric& t : *out) {
        if (t.name == full) {
          m = &t;
          break;
        }
      }
      if (m == nullptr) {
        out->push_back(TimeMetric{full, 0, 0, false, false});
        m = &out->back();
      }
      if (is_base) {
        m->base_ns = as_number(*value);
        m->in_base = true;
      } else {
        m->new_ns = as_number(*value);
        m->in_new = true;
      }
    }
  };
  scan(base, true);
  scan(next, false);
}

struct CounterDelta {
  std::string name;
  std::string base;  // rendered value ("-" when absent)
  std::string next;
};

void collect_counter_deltas(const Json& base, const Json& next,
                            std::vector<CounterDelta>* out) {
  const Json* cb = base.find("counters");
  const Json* cn = next.find("counters");
  auto render = [](const Json* obj, const std::string& key) -> std::string {
    if (obj == nullptr) return "-";
    const Json* v = obj->find(key);
    return v == nullptr ? "-" : v->dump();
  };
  // Union of names, base order first so the listing is stable.
  std::vector<std::string> names;
  auto add_names = [&](const Json* obj) {
    if (obj == nullptr || !obj->is_object()) return;
    for (const auto& [k, v] : obj->items()) {
      (void)v;
      bool seen = false;
      for (const std::string& n : names) {
        if (n == k) {
          seen = true;
          break;
        }
      }
      if (!seen) names.push_back(k);
    }
  };
  add_names(cb);
  add_names(cn);
  for (const std::string& n : names) {
    const std::string b = render(cb, n);
    const std::string w = render(cn, n);
    if (b != w) out->push_back(CounterDelta{n, b, w});
  }
}

std::string format_ms(double ns) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << ns / 1e6;
  return os.str();
}

std::string format_rel(double rel) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(1);
  os << (rel >= 0 ? "+" : "") << rel * 100.0 << "%";
  return os.str();
}

int diff_main(int argc, char** argv) {
  Cli cli(argc, argv);
  if (cli.positional().size() != 2) {
    std::cerr << "usage: bench_diff [--tolerance=FRAC] [--min-ns=N] "
                 "[--strict-counters] [--json=verdict.json] "
                 "[--trajectory=file.jsonl] <base.json> <new.json>\n";
    return 2;
  }
  const double tolerance = cli.get_double("tolerance", 0.10);
  const double min_ns = cli.get_double("min-ns", 1e6);
  const bool strict_counters = cli.has("strict-counters");
  const std::string base_path = cli.positional()[0];
  const std::string new_path = cli.positional()[1];

  Json base, next;
  std::string err;
  if (!load_report(base_path, &base, &err) ||
      !load_report(new_path, &next, &err)) {
    std::cerr << "error: " << err << "\n";
    return 2;
  }

  std::vector<TimeMetric> metrics;
  {
    const Json* wb = base.find("wall_seconds");
    const Json* wn = next.find("wall_seconds");
    TimeMetric wall{"wall", 0, 0, wb != nullptr, wn != nullptr};
    if (wb != nullptr) wall.base_ns = as_number(*wb) * 1e9;
    if (wn != nullptr) wall.new_ns = as_number(*wn) * 1e9;
    metrics.push_back(wall);
  }
  collect_array_metric(base, next, "spans", "label", "total_ns", "span:",
                       &metrics);
  collect_array_metric(base, next, "histograms", "name", "sum_ns", "hist:",
                       &metrics);
  collect_array_metric(base, next, "phases", "name", "wall_ns", "phase:",
                       &metrics);

  std::vector<CounterDelta> counter_deltas;
  collect_counter_deltas(base, next, &counter_deltas);

  Json regressions = Json::array();
  Json improvements = Json::array();
  Table table({"metric", "base ms", "new ms", "delta", "verdict"});
  for (const TimeMetric& m : metrics) {
    // Sub-threshold on both sides: clock noise, not evidence.
    if (m.base_ns < min_ns && m.new_ns < min_ns) continue;
    const double rel =
        m.base_ns > 0 ? (m.new_ns - m.base_ns) / m.base_ns
                      : (m.new_ns > 0 ? 1.0 : 0.0);  // new-from-zero = +100%
    const char* verdict = "ok";
    if (!m.in_base || !m.in_new) {
      verdict = m.in_new ? "new" : "gone";
    } else if (rel > tolerance) {
      verdict = "REGRESSION";
    } else if (rel < -tolerance) {
      verdict = "improved";
    }
    table.row()
        .add(m.name)
        .add(m.in_base ? format_ms(m.base_ns) : "-")
        .add(m.in_new ? format_ms(m.new_ns) : "-")
        .add(m.in_base && m.in_new ? format_rel(rel) : "-")
        .add(verdict);
    if (std::string(verdict) == "REGRESSION") {
      Json r = Json::object();
      r.set("metric", m.name);
      r.set("base_ns", m.base_ns);
      r.set("new_ns", m.new_ns);
      r.set("rel", rel);
      regressions.push(std::move(r));
    } else if (std::string(verdict) == "improved") {
      Json r = Json::object();
      r.set("metric", m.name);
      r.set("base_ns", m.base_ns);
      r.set("new_ns", m.new_ns);
      r.set("rel", rel);
      improvements.push(std::move(r));
    }
  }

  const std::string bn =
      base.find("name") != nullptr ? base.find("name")->as_string() : "?";
  const std::string nn =
      next.find("name") != nullptr ? next.find("name")->as_string() : "?";
  std::cout << "bench_diff: " << bn << " (" << base_path << ") vs " << nn
            << " (" << new_path << ")\n"
            << "tolerance " << format_rel(tolerance).substr(1) << ", min "
            << format_ms(min_ns) << " ms"
            << (strict_counters ? ", strict counters" : "") << "\n\n";
  table.print(std::cout);

  Json counters_changed = Json::array();
  if (!counter_deltas.empty()) {
    std::cout << "\ncounters changed (" << counter_deltas.size() << "):\n";
    Table ct({"counter", "base", "new"});
    for (const CounterDelta& d : counter_deltas) {
      ct.row().add(d.name).add(d.base).add(d.next);
      Json r = Json::object();
      r.set("name", d.name);
      r.set("base", d.base);
      r.set("new", d.next);
      counters_changed.push(std::move(r));
    }
    ct.print(std::cout);
  } else {
    std::cout << "\ncounters identical\n";
  }

  const bool counters_fail = strict_counters && !counter_deltas.empty();
  const bool regressed = regressions.size() > 0 || counters_fail;
  std::cout << "\nverdict: "
            << (regressed ? "REGRESSION" : "ok")
            << (counters_fail ? " (counter deltas under --strict-counters)"
                              : "")
            << "\n";

  if (cli.has("json")) {
    Json verdict = Json::object();
    verdict.set("schema", "compsyn-bench-diff-v1");
    verdict.set("base", base_path);
    verdict.set("new", new_path);
    verdict.set("tolerance", tolerance);
    verdict.set("min_ns", min_ns);
    verdict.set("strict_counters", strict_counters);
    verdict.set("regressions", std::move(regressions));
    verdict.set("improvements", std::move(improvements));
    verdict.set("counters_changed", std::move(counters_changed));
    verdict.set("verdict", regressed ? "regression" : "ok");
    std::ofstream os(cli.get("json"));
    if (!os) {
      std::cerr << "error: cannot open " << cli.get("json") << "\n";
      return 2;
    }
    verdict.write(os, 2);
    os << '\n';
  }

  if (cli.has("trajectory")) {
    // One summary line for the NEW report: the commit-over-commit perf
    // trajectory file is built from these (BENCH_trajectory.jsonl).
    Json rec = Json::object();
    rec.set("schema", "compsyn-bench-trajectory-v1");
    rec.set("name", nn);
    if (const Json* w = next.find("wall_seconds")) rec.set("wall_seconds", *w);
    double spans_total = 0;
    for (const TimeMetric& m : metrics) {
      if (m.in_new && m.name.rfind("span:", 0) == 0) spans_total += m.new_ns;
    }
    rec.set("spans_total_ns", spans_total);
    if (const Json* c = next.find("counters")) rec.set("counters", *c);
    std::ofstream os(cli.get("trajectory"), std::ios::app);
    if (!os) {
      std::cerr << "error: cannot open " << cli.get("trajectory") << "\n";
      return 2;
    }
    rec.write(os, 0);
    os << '\n';
  }

  cli.warn_unrecognized(std::cerr);
  return regressed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return robust::guard_main("bench_diff", argc, argv,
                            [&] { return diff_main(argc, argv); });
}
