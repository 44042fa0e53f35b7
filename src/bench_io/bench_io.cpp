#include "bench_io/bench_io.hpp"

#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "util/strings.hpp"

namespace compsyn {

BenchParseError::BenchParseError(int line_, int column_,
                                 const std::string& what)
    : InputError("bench parse error at line " + std::to_string(line_) +
                 ", column " + std::to_string(column_) + ": " + what),
      line(line_),
      column(column_) {}

namespace {

struct RawGate {
  std::string name;
  std::string func;
  std::vector<std::string> args;
  int line_no = 0;
  int name_col = 1;
  int func_col = 1;
  std::vector<int> arg_cols;
};

/// A declared INPUT/OUTPUT with its source position (for duplicate /
/// undefined-signal diagnostics).
struct RawPort {
  std::string name;
  int line_no = 0;
  int col = 1;
};

[[noreturn]] void fail(int line_no, int col, const std::string& what) {
  throw BenchParseError(line_no, col, what);
}

GateType gate_type_from_name(const std::string& f, int line_no, int col) {
  if (iequals(f, "AND")) return GateType::And;
  if (iequals(f, "NAND")) return GateType::Nand;
  if (iequals(f, "OR")) return GateType::Or;
  if (iequals(f, "NOR")) return GateType::Nor;
  if (iequals(f, "NOT") || iequals(f, "INV")) return GateType::Not;
  if (iequals(f, "BUF") || iequals(f, "BUFF")) return GateType::Buf;
  if (iequals(f, "XOR")) return GateType::Xor;
  if (iequals(f, "XNOR")) return GateType::Xnor;
  if (iequals(f, "CONST0")) return GateType::Const0;
  if (iequals(f, "CONST1")) return GateType::Const1;
  fail(line_no, col, "unknown gate function '" + f + "'");
}

}  // namespace

Netlist read_bench(std::istream& is, std::string circuit_name) {
  std::vector<RawPort> input_names;
  std::vector<RawPort> output_names;
  std::vector<RawGate> gates;
  std::map<std::string, std::size_t> gate_by_name;

  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::string_view s = trim(line);
    if (s.empty()) continue;

    // 1-based column of a subview of `line` (trim/substr never copy, so
    // every view's data pointer stays inside the original line buffer).
    const auto col_of = [&line](std::string_view sv) -> int {
      return static_cast<int>(sv.data() - line.data()) + 1;
    };

    const std::size_t eq = s.find('=');
    if (eq == std::string_view::npos) {
      // INPUT(x) or OUTPUT(x)
      const std::size_t open = s.find('(');
      const std::size_t close = s.rfind(')');
      if (open == std::string_view::npos || close == std::string_view::npos || close < open) {
        fail(line_no, col_of(s), "expected INPUT(...)/OUTPUT(...) or assignment");
      }
      if (!trim(s.substr(close + 1)).empty()) {
        fail(line_no, col_of(s.substr(close + 1)),
             "unexpected text after ')'");
      }
      const std::string_view kind = trim(s.substr(0, open));
      const std::string_view arg = trim(s.substr(open + 1, close - open - 1));
      if (arg.empty()) fail(line_no, col_of(s.substr(open)), "empty signal name");
      RawPort port{std::string(arg), line_no, col_of(arg)};
      if (iequals(kind, "INPUT")) input_names.push_back(std::move(port));
      else if (iequals(kind, "OUTPUT")) output_names.push_back(std::move(port));
      else fail(line_no, col_of(s), "unknown directive '" + std::string(kind) + "'");
      continue;
    }

    RawGate g;
    g.line_no = line_no;
    const std::string_view name = trim(s.substr(0, eq));
    g.name = std::string(name);
    g.name_col = name.empty() ? col_of(s) : col_of(name);
    std::string_view rhs = trim(s.substr(eq + 1));
    const std::size_t open = rhs.find('(');
    const std::size_t close = rhs.rfind(')');
    if (open == std::string_view::npos || close == std::string_view::npos || close < open) {
      fail(line_no, col_of(rhs), "expected function(args)");
    }
    if (!trim(rhs.substr(close + 1)).empty()) {
      fail(line_no, col_of(rhs.substr(close + 1)), "unexpected text after ')'");
    }
    const std::string_view func = trim(rhs.substr(0, open));
    g.func = std::string(func);
    g.func_col = func.empty() ? col_of(rhs) : col_of(func);
    const std::string_view args = trim(rhs.substr(open + 1, close - open - 1));
    // Split manually so every argument keeps its column.
    if (!args.empty()) {
      std::size_t start = 0;
      for (;;) {
        const std::size_t comma = args.find(',', start);
        const std::string_view raw =
            args.substr(start, comma == std::string_view::npos
                                   ? std::string_view::npos
                                   : comma - start);
        const std::string_view a = trim(raw);
        if (a.empty()) {
          fail(line_no, col_of(raw.empty() ? args.substr(start) : raw),
               "empty argument in '" + g.name + "'");
        }
        g.args.emplace_back(a);
        g.arg_cols.push_back(col_of(a));
        if (comma == std::string_view::npos) break;
        start = comma + 1;
      }
    }
    if (g.name.empty()) fail(line_no, g.name_col, "empty gate name");
    if (gate_by_name.count(g.name)) {
      fail(line_no, g.name_col,
           "duplicate definition of '" + g.name + "' (first defined at line " +
               std::to_string(gates[gate_by_name[g.name]].line_no) + ")");
    }
    gate_by_name[g.name] = gates.size();
    gates.push_back(std::move(g));
  }

  Netlist nl(std::move(circuit_name));
  std::map<std::string, NodeId> node_by_name;

  for (const RawPort& in : input_names) {
    if (node_by_name.count(in.name)) {
      fail(in.line_no, in.col, "duplicate INPUT '" + in.name + "'");
    }
    node_by_name[in.name] = nl.add_input(in.name);
  }
  // Scan conversion: every DFF output is a pseudo primary input.
  for (const RawGate& g : gates) {
    if (iequals(g.func, "DFF")) {
      if (g.args.size() != 1) fail(g.line_no, g.func_col, "DFF must have one argument");
      if (node_by_name.count(g.name)) {
        fail(g.line_no, g.name_col, "DFF output redefines '" + g.name + "'");
      }
      node_by_name[g.name] = nl.add_input(g.name);
    }
  }
  // A combinational gate whose name matches an INPUT (or a DFF output)
  // would silently lose to the input during resolution; reject it instead.
  for (const RawGate& g : gates) {
    if (iequals(g.func, "DFF")) continue;
    if (node_by_name.count(g.name)) {
      fail(g.line_no, g.name_col,
           "gate '" + g.name + "' redefines an INPUT of the same name");
    }
  }

  // Create combinational gates in dependency order (bench files may use
  // forward references). The dependency walk keeps an explicit stack: deep
  // gate chains must not overflow the call stack, and a back edge is
  // reported as a combinational cycle naming the gate it runs through.
  std::vector<int> state(gates.size(), 0);  // 0 unvisited, 1 on stack, 2 done
  struct Frame {
    std::size_t gi;
    std::size_t next = 0;       // args resolved so far
    std::vector<NodeId> fi;
  };
  std::vector<Frame> stack;
  const auto push_gate = [&](std::size_t gi) {
    const RawGate& g = gates[gi];
    if (state[gi] == 1) {
      fail(g.line_no, g.name_col,
           "combinational cycle through '" + g.name + "'");
    }
    state[gi] = 1;
    stack.push_back(Frame{gi, 0, {}});
  };
  const auto resolve = [&](const std::string& root, int ref_line,
                           int ref_col) -> NodeId {
    if (auto it = node_by_name.find(root); it != node_by_name.end()) {
      return it->second;
    }
    auto git = gate_by_name.find(root);
    if (git == gate_by_name.end()) {
      fail(ref_line, ref_col, "undefined signal '" + root + "'");
    }
    push_gate(git->second);
    NodeId result = kNoNode;
    while (!stack.empty()) {
      Frame& f = stack.back();
      const RawGate& g = gates[f.gi];
      if (iequals(g.func, "DFF")) {
        // A DFF reached through a combinational argument: its output is a
        // pseudo input, which node_by_name lookup already covers; landing
        // here means the lookup failed, i.e. an internal inconsistency.
        fail(g.line_no, g.name_col, "DFF '" + g.name + "' in combinational path");
      }
      if (f.next < g.args.size()) {
        const std::string& a = g.args[f.next];
        const int a_col = f.next < g.arg_cols.size() ? g.arg_cols[f.next] : 1;
        if (auto it = node_by_name.find(a); it != node_by_name.end()) {
          f.fi.push_back(it->second);
          ++f.next;
          continue;
        }
        auto agit = gate_by_name.find(a);
        if (agit == gate_by_name.end()) {
          fail(g.line_no, a_col, "undefined signal '" + a + "'");
        }
        push_gate(agit->second);
        continue;
      }
      const GateType t = gate_type_from_name(g.func, g.line_no, g.func_col);
      NodeId id;
      if (t == GateType::Const0 || t == GateType::Const1) {
        if (!g.args.empty()) fail(g.line_no, g.func_col, "CONST takes no arguments");
        id = nl.add_const(t == GateType::Const1, g.name);
      } else {
        std::vector<NodeId> fi = std::move(f.fi);
        if ((t == GateType::Buf || t == GateType::Not) && fi.size() != 1) {
          fail(g.line_no, g.func_col, "NOT/BUFF must have one argument");
        }
        if (fi.empty()) fail(g.line_no, g.func_col, "gate with no arguments");
        if (fi.size() == 1 && t != GateType::Buf && t != GateType::Not) {
          // Tolerate 1-input AND/OR/...: treat as BUF (or NOT for the
          // inverting types); seen in some distributed bench files.
          id = nl.add_gate(is_inverting(t) ? GateType::Not : GateType::Buf,
                           std::move(fi), g.name);
        } else {
          id = nl.add_gate(t, std::move(fi), g.name);
        }
      }
      state[f.gi] = 2;
      node_by_name[g.name] = id;
      stack.pop_back();
      if (stack.empty()) {
        result = id;
      } else {
        stack.back().fi.push_back(id);
        ++stack.back().next;
      }
    }
    return result;
  };

  for (const RawGate& g : gates) {
    if (iequals(g.func, "DFF")) continue;
    resolve(g.name, g.line_no, g.name_col);
  }
  // DFF data inputs become pseudo primary outputs.
  for (const RawGate& g : gates) {
    if (!iequals(g.func, "DFF")) continue;
    nl.mark_output(resolve(g.args[0], g.line_no,
                           g.arg_cols.empty() ? g.func_col : g.arg_cols[0]));
  }
  for (const RawPort& out : output_names) {
    auto it = node_by_name.find(out.name);
    if (it == node_by_name.end()) {
      fail(out.line_no, out.col, "OUTPUT of undefined signal '" + out.name + "'");
    }
    nl.mark_output(it->second);
  }
  return nl;
}

Netlist read_bench_string(const std::string& text, std::string circuit_name) {
  std::istringstream is(text);
  return read_bench(is, std::move(circuit_name));
}

Netlist read_bench_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw InputError("cannot open bench file: " + path);
  return read_bench(is, bench_name_from_path(path));
}

std::string bench_name_from_path(const std::string& path) {
  std::string name = path;
  const std::size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  const std::size_t dot = name.find_last_of('.');
  if (dot != std::string::npos) name = name.substr(0, dot);
  return name;
}

void write_bench(const Netlist& nl, std::ostream& os) {
  os << "# " << (nl.name().empty() ? std::string("circuit") : nl.name()) << '\n';
  // Synthetic names for unnamed nodes can collide with given names (e.g. an
  // unnamed node at id 289 next to a node named "n289"), so every emitted
  // name is uniquified deterministically over the live nodes in topo order.
  std::vector<std::string> names(nl.size());
  std::unordered_set<std::string> used;
  for (NodeId id : nl.topo_order()) {
    const Node& n = nl.node(id);
    std::string name = n.name.empty() ? ("n" + std::to_string(id)) : n.name;
    while (!used.insert(name).second) name += '_';
    names[id] = std::move(name);
  }
  for (NodeId pi : nl.inputs()) os << "INPUT(" << names[pi] << ")\n";
  for (NodeId po : nl.outputs()) os << "OUTPUT(" << names[po] << ")\n";
  os << '\n';
  for (NodeId id : nl.topo_order()) {
    const Node& n = nl.node(id);
    switch (n.type) {
      case GateType::Input:
        continue;
      case GateType::Const0:
        os << names[id] << " = CONST0()\n";
        continue;
      case GateType::Const1:
        os << names[id] << " = CONST1()\n";
        continue;
      default:
        break;
    }
    const char* f = "?";
    switch (n.type) {
      case GateType::Buf: f = "BUFF"; break;
      case GateType::Not: f = "NOT"; break;
      case GateType::And: f = "AND"; break;
      case GateType::Nand: f = "NAND"; break;
      case GateType::Or: f = "OR"; break;
      case GateType::Nor: f = "NOR"; break;
      case GateType::Xor: f = "XOR"; break;
      case GateType::Xnor: f = "XNOR"; break;
      default: break;
    }
    os << names[id] << " = " << f << '(';
    for (std::size_t i = 0; i < n.fanins.size(); ++i) {
      if (i) os << ", ";
      os << names[n.fanins[i]];
    }
    os << ")\n";
  }
}

std::string write_bench_string(const Netlist& nl) {
  std::ostringstream os;
  write_bench(nl, os);
  return os.str();
}

}  // namespace compsyn
