// Flow benchmark program. Runs one of the paper's flows on .bench circuits
// read from stdin, for a fixed wall time, and prints one JSON object of raw
// samples on stdout; run.py generates the circuits, launches this program
// and turns the samples into metrics.
//
//   flowbench --flow=p2|p3|rr --seconds=S [--trace] [--setup] < circuits
//
// Circuits on stdin are separated by lines "#@circuit <name>" (a .bench
// comment, so each chunk is a plain .bench text). The flows:
//   p2, p3  resynth_flow with default flags: parse, redundancy removal,
//           Procedure 2 (or 3) at K = 6, redundancy removal, equivalence
//           check against the irredundant circuit, write the .bench text;
//   rr      the irredundancy step alone: parse, redundancy removal,
//           equivalence check against the input, write the .bench text.
//
// Each circuit's flow is one latency sample. After every fourth one, a fixed
// reference computation that does not call compsyn is timed; run.py divides
// latencies by nearby reference times so that the host's speed drifting
// during and between runs cancels out.
//
//  * --trace: also time each flow stage, and afterwards run one probe per
//    lower layer (cone enumeration, cone function, comparison
//    identification, PODEM, fault simulation) on the irredundant netlist.
//    The probes are timed apart from the flow and do not enter its latency.
//  * --setup: parse every circuit, run one flow on the first and time the
//    reference computation a few times, then exit; run.py times such
//    launches as the set-up cost (process start, input parsing and
//    first-call initialisation) at a fixed host speed.
//
// Every flow result is checked outside the timed region: it must parse back
// from its .bench text, be structurally sound, and be proven equivalent to
// the input by an exhaustive sweep; p2 and rr must not add gates.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "atpg/podem.hpp"
#include "atpg/redundancy.hpp"
#include "bench_io/bench_io.hpp"
#include "core/comparison.hpp"
#include "core/cones.hpp"
#include "core/resynth.hpp"
#include "faults/fault.hpp"
#include "faults/fault_sim.hpp"
#include "netlist/equivalence.hpp"
#include "netlist/netlist.hpp"
#include "paths/paths.hpp"
#include "util/rng.hpp"

using namespace compsyn;

namespace {

using Clock = std::chrono::steady_clock;

// The reference computation runs after every kReferenceEvery-th circuit.
constexpr std::size_t kReferenceEvery = 4;

double ms_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

enum class Flow { P2, P3, RR };

struct Options {
  Flow flow = Flow::P2;
  double seconds = 10.0;
  bool trace = false;
  bool setup = false;
};

bool parse_args(int argc, char** argv, Options& opt) {
  bool have_flow = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--trace") {
      opt.trace = true;
    } else if (a == "--setup") {
      opt.setup = true;
    } else if (a == "--flow=p2" || a == "--flow=p3" || a == "--flow=rr") {
      opt.flow = a == "--flow=p2" ? Flow::P2 : a == "--flow=p3" ? Flow::P3 : Flow::RR;
      have_flow = true;
    } else if (a.rfind("--seconds=", 0) == 0) {
      opt.seconds = std::stod(a.substr(10));
    } else {
      std::cerr << "flowbench: unknown argument " << a << "\n";
      return false;
    }
  }
  return have_flow && opt.seconds > 0;
}

struct Circuit {
  std::string name;
  std::string text;
};

std::vector<Circuit> split_circuits(const std::string& all) {
  static const std::string kMark = "#@circuit ";
  std::vector<Circuit> out;
  std::size_t pos = all.find(kMark);
  while (pos != std::string::npos) {
    const std::size_t name_at = pos + kMark.size();
    std::size_t body = all.find('\n', name_at);
    if (body == std::string::npos) body = all.size();
    std::size_t next = all.find(kMark, body);
    const std::size_t end = next == std::string::npos ? all.size() : next;
    out.push_back({all.substr(name_at, body - name_at), all.substr(body, end - body)});
    pos = next;
  }
  return out;
}

// One flow run: stage times (milliseconds), its statistics, its products.
struct FlowRun {
  double parse = 0, rr = 0, verify = 0, write = 0;
  double latency = 0;
  bool flow_equivalent = false;
  ResynthStats rs;
  RedundancyRemovalStats rr0, rr1;
  Netlist irredundant;  // after the first redundancy removal
  std::string result;   // the result as .bench text
};

FlowRun run_flow(const Circuit& c, Flow flow) {
  FlowRun r;
  const auto t0 = Clock::now();
  Netlist nl = read_bench_string(c.text, c.name);
  const Netlist input = flow == Flow::RR ? nl : Netlist();
  const auto t1 = Clock::now();
  r.rr0 = remove_redundancies(nl);
  r.irredundant = nl.compacted();
  const auto t2 = Clock::now();
  if (flow != Flow::RR) {
    r.rs = flow == Flow::P3 ? procedure3(nl, 6) : procedure2(nl, 6);
  }
  const auto t3 = Clock::now();
  if (flow != Flow::RR) r.rr1 = remove_redundancies(nl);
  const auto t4 = Clock::now();
  Rng rng(1);
  r.flow_equivalent =
      check_equivalent(flow == Flow::RR ? input : r.irredundant, nl, rng, 128)
          .equivalent;
  const auto t5 = Clock::now();
  r.result = write_bench_string(nl);
  const auto t6 = Clock::now();
  r.parse = ms_since(t0, t1);
  r.rr = ms_since(t1, t2) + ms_since(t3, t4);
  r.verify = ms_since(t4, t5);
  r.write = ms_since(t5, t6);
  r.latency = ms_since(t0, t6);
  return r;
}

// Independent check of one result, and the result's quality.
struct Checked {
  std::string error;  // empty when the result holds
  double gate_ratio = 0, path_ratio = 0;
};

// (after + 1) / (before + 1): a result may legitimately have no gates left.
double ratio(std::uint64_t after, std::uint64_t before) {
  return (static_cast<double>(after) + 1.0) / (static_cast<double>(before) + 1.0);
}

Checked check_result(const Circuit& c, Flow flow, const FlowRun& r) {
  Checked out;
  if (!r.flow_equivalent) {
    out.error = "the flow's own equivalence check failed";
    return out;
  }
  const Netlist input = read_bench_string(c.text, c.name);
  const Netlist result = read_bench_string(r.result, c.name);
  Rng rng(2);
  if (std::string err = result.check(); !err.empty()) {
    out.error = "unsound netlist: " + err;
  } else if (result.inputs().size() != input.inputs().size() ||
             result.outputs().size() != input.outputs().size()) {
    out.error = "interface changed";
  } else if (const EquivalenceResult eq = check_equivalent(input, result, rng, 64);
             !eq.proven) {
    out.error = "equivalence not proven (too many inputs)";
  } else if (!eq.equivalent) {
    out.error = "result not equivalent to the input";
  } else if (flow != Flow::P3 &&
             result.equivalent_gate_count() > input.equivalent_gate_count()) {
    out.error = "gate count increased";
  }
  out.gate_ratio = ratio(result.equivalent_gate_count(), input.equivalent_gate_count());
  out.path_ratio =
      ratio(count_paths_clamped(result).total, count_paths_clamped(input).total);
  return out;
}

// Stage times (milliseconds) and flow statistics summed over a traced run.
struct Totals {
  double flow = 0, parse = 0, rr = 0, verify = 0;
  std::uint64_t passes = 0, replacements = 0, cones_considered = 0,
                comparison_cones = 0;
  std::uint64_t rr_removed = 0, rr_faults_checked = 0, rr_aborted = 0;
};

// Layer probes, each timed around its calls into one layer.
struct Probes {
  double cone_enum = 0, cone_function = 0, identify = 0, podem = 0, fsim = 0;
  std::uint64_t cones = 0, comparison_functions = 0;
  std::uint64_t podem_backtracks = 0, podem_aborts = 0;
};

void run_probes(const Netlist& nl, Probes& p) {
  ConeOptions copt;
  copt.max_leaves = 6;
  for (NodeId root : nl.topo_order()) {
    const GateType t = nl.node(root).type;
    if (t == GateType::Input || t == GateType::Const0 || t == GateType::Const1) {
      continue;
    }
    const auto t0 = Clock::now();
    const std::vector<Cone> cones = enumerate_cones(nl, root, copt);
    const auto t1 = Clock::now();
    std::vector<TruthTable> fns;
    fns.reserve(cones.size());
    for (const Cone& cone : cones) fns.push_back(cone_function(nl, cone));
    const auto t2 = Clock::now();
    for (const TruthTable& f : fns) {
      if (!identify_comparison(f).empty()) ++p.comparison_functions;
    }
    const auto t3 = Clock::now();
    p.cone_enum += ms_since(t0, t1);
    p.cone_function += ms_since(t1, t2);
    p.identify += ms_since(t2, t3);
    p.cones += cones.size();
  }

  const std::vector<StuckFault> faults = enumerate_faults(nl);
  const auto t0 = Clock::now();
  for (const StuckFault& f : faults) {
    const AtpgResult r = run_podem(nl, f);
    p.podem_backtracks += r.backtracks;
    if (r.status == AtpgStatus::Aborted) ++p.podem_aborts;
  }
  const auto t1 = Clock::now();
  p.podem += ms_since(t0, t1);

  FaultSimulator fs(nl, faults);
  Rng rng(7);
  std::vector<std::uint64_t> words(nl.inputs().size());
  const auto t2 = Clock::now();
  for (unsigned block = 0; block < 16; ++block) {
    for (std::uint64_t& w : words) w = rng.next();
    fs.simulate_block(words, block * 64ull);
  }
  p.fsim += ms_since(t2, Clock::now());
}

// Fixed work that does not call compsyn: build a random 20000-node netlist
// as vectors of fanin lists and simulate it four times. It allocates and
// chases indices the way the flow does, so when the host's speed changes
// (by up to 50% on a shared host) both slow alike; run.py divides latencies
// by it. A lighter kernel of sets, hash maps and sorting tracked the flow
// only to within about 10%. Returns a checksum so the work stays.
std::uint64_t reference_work() {
  std::uint64_t x = 88172645463325252ull;
  auto next = [&] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  constexpr std::uint32_t kNodes = 20000;
  std::vector<std::vector<std::uint32_t>> fanins(kNodes);
  for (std::uint32_t i = 1; i < kNodes; ++i) {
    const unsigned arity = 1 + static_cast<unsigned>(next() % 3);
    for (unsigned j = 0; j < arity; ++j) {
      fanins[i].push_back(static_cast<std::uint32_t>(next() % i));
    }
  }
  std::vector<std::uint64_t> value(kNodes);
  std::uint64_t sum = 0;
  for (int pass = 0; pass < 4; ++pass) {
    value[0] = next();
    for (std::uint32_t i = 1; i < kNodes; ++i) {
      std::uint64_t w = ~0ull;
      for (std::uint32_t f : fanins[i]) w &= (i & 1) ? ~value[f] : value[f];
      value[i] = w;
    }
    sum += value[kNodes - 1];
  }
  return sum;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += static_cast<unsigned char>(ch) < 0x20 ? ' ' : ch;
  }
  return out + "\"";
}

void json_array(std::ostream& os, const char* key, const std::vector<double>& v) {
  os << ",\"" << key << "\":[";
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
  os << "]";
}

int bench_main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::cerr << "usage: flowbench --flow=p2|p3|rr --seconds=S [--trace] "
                 "[--setup] < circuits\n";
    return 2;
  }
  const std::string all(std::istreambuf_iterator<char>(std::cin), {});
  const std::vector<Circuit> circuits = split_circuits(all);
  if (circuits.empty()) {
    std::cerr << "flowbench: no circuits on stdin\n";
    return 2;
  }

  if (opt.setup) {
    std::uint64_t gates = 0;
    for (const Circuit& c : circuits) {
      gates += read_bench_string(c.text, c.name).equivalent_gate_count();
    }
    const FlowRun r = run_flow(circuits.front(), opt.flow);
    const bool ok = check_result(circuits.front(), opt.flow, r).error.empty();
    // Reference timings, so run.py can state the launch time at a fixed
    // host speed (and subtract these timings from it).
    std::vector<double> reference;
    std::uint64_t checksum = 0;
    for (int i = 0; i < 11; ++i) {
      const auto r0 = Clock::now();
      checksum += reference_work();
      reference.push_back(ms_since(r0, Clock::now()));
    }
    std::cout.precision(17);
    std::cout << "{\"circuits\":" << circuits.size() << ",\"gates\":" << gates
              << ",\"failed\":" << (ok ? 0 : 1) << ",\"checksum\":" << checksum % 1000;
    json_array(std::cout, "reference_ms", reference);
    std::cout << "}\n";
    return 0;
  }

  run_flow(circuits.front(), opt.flow);  // warm-up: lazy initialisation

  std::vector<double> latency, reference, gate_ratio, path_ratio;
  std::uint64_t failed = 0, checksum = 0;
  std::string first_error;
  Totals t;
  Probes probes;
  const auto start = Clock::now();
  for (std::size_t i = 0; ms_since(start, Clock::now()) < opt.seconds * 1000.0; ++i) {
    const Circuit& c = circuits[i % circuits.size()];
    const FlowRun r = run_flow(c, opt.flow);
    latency.push_back(r.latency);
    if (i % kReferenceEvery == 0) {
      const auto r0 = Clock::now();
      checksum += reference_work();
      reference.push_back(ms_since(r0, Clock::now()));
    }

    const Checked chk = check_result(c, opt.flow, r);
    if (!chk.error.empty()) {
      ++failed;
      if (first_error.empty()) first_error = c.name + ": " + chk.error;
      continue;
    }
    gate_ratio.push_back(chk.gate_ratio);
    path_ratio.push_back(chk.path_ratio);
    if (!opt.trace) continue;
    t.flow += r.latency;
    t.parse += r.parse + r.write;
    t.rr += r.rr;
    t.verify += r.verify;
    t.passes += r.rs.passes;
    t.replacements += r.rs.replacements;
    t.cones_considered += r.rs.cones_considered;
    t.comparison_cones += r.rs.comparison_cones;
    t.rr_removed += r.rr0.removed + r.rr1.removed;
    t.rr_faults_checked += r.rr0.faults_checked + r.rr1.faults_checked;
    t.rr_aborted += r.rr0.aborted + r.rr1.aborted;
    run_probes(r.irredundant, probes);
  }

  std::ostream& os = std::cout;
  os.precision(17);
  os << "{\"attempted\":" << latency.size() << ",\"failed\":" << failed
     << ",\"checked\":" << gate_ratio.size()
     << ",\"distinct_circuits\":" << circuits.size()
     << ",\"wall_ms\":" << ms_since(start, Clock::now())
     << ",\"checksum\":" << checksum % 1000
     << ",\"first_error\":" << json_string(first_error);
  json_array(os, "latency_ms", latency);
  json_array(os, "reference_ms", reference);
  json_array(os, "gate_ratio", gate_ratio);
  json_array(os, "path_ratio", path_ratio);
  if (opt.trace) {
    os << ",\"layers\":{"
       << "\"flow_ms\":" << t.flow << ",\"parse_ms\":" << t.parse
       << ",\"rr_ms\":" << t.rr << ",\"verify_ms\":" << t.verify
       << ",\"resynth_passes\":" << t.passes
       << ",\"replacements\":" << t.replacements
       << ",\"cones_considered\":" << t.cones_considered
       << ",\"comparison_cones\":" << t.comparison_cones
       << ",\"rr_removed\":" << t.rr_removed
       << ",\"rr_faults_checked\":" << t.rr_faults_checked
       << ",\"rr_aborted\":" << t.rr_aborted
       << ",\"probe_cone_enum_ms\":" << probes.cone_enum
       << ",\"probe_cone_function_ms\":" << probes.cone_function
       << ",\"probe_identify_ms\":" << probes.identify
       << ",\"probe_podem_ms\":" << probes.podem
       << ",\"probe_fsim_ms\":" << probes.fsim
       << ",\"probe_cones\":" << probes.cones
       << ",\"probe_comparison_functions\":" << probes.comparison_functions
       << ",\"probe_podem_backtracks\":" << probes.podem_backtracks
       << ",\"probe_podem_aborts\":" << probes.podem_aborts << "}";
  }
  os << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return bench_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "flowbench: " << e.what() << "\n";
    return 1;
  }
}
