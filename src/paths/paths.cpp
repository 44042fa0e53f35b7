#include "paths/paths.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace compsyn {
namespace {

std::uint64_t checked_add(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a + b;
  if (s < a || s > kPathCountSaturated) {
    throw std::overflow_error("path count exceeds 2^63");
  }
  return s;
}

/// Saturating variant: once either operand is saturated (or the sum would
/// be), the result pins to kPathCountSaturated and stays there.
std::uint64_t clamped_add(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t s = a + b;
  if (s < a || s > kPathCountSaturated) return kPathCountSaturated;
  return s;
}

bool is_source(GateType t) {
  return t == GateType::Input || t == GateType::Const0 || t == GateType::Const1;
}

}  // namespace

PathCounts count_paths(const Netlist& nl) {
  const Span sp("paths.count");
  Counters::incr("paths.count_sweeps");
  PathCounts pc;
  pc.np.assign(nl.size(), 0);
  for (NodeId pi : nl.inputs()) {
    if (!nl.is_dead(pi)) pc.np[pi] = 1;
  }
  for (NodeId n : nl.topo_order()) {
    const Node& nd = nl.node(n);
    if (is_source(nd.type)) continue;
    std::uint64_t sum = 0;
    for (NodeId f : nd.fanins) sum = checked_add(sum, pc.np[f]);
    pc.np[n] = sum;
  }
  pc.output_offsets.reserve(nl.outputs().size() + 1);
  std::uint64_t total = 0;
  for (NodeId o : nl.outputs()) {
    pc.output_offsets.push_back(total);
    total = checked_add(total, pc.np[o]);
  }
  pc.output_offsets.push_back(total);
  pc.total = total;
  return pc;
}

PathCounts count_paths_clamped(const Netlist& nl) {
  const Span sp("paths.count");
  Counters::incr("paths.count_sweeps");
  PathCounts pc;
  pc.np.assign(nl.size(), 0);
  for (NodeId pi : nl.inputs()) {
    if (!nl.is_dead(pi)) pc.np[pi] = 1;
  }
  for (NodeId n : nl.topo_order()) {
    const Node& nd = nl.node(n);
    if (is_source(nd.type)) continue;
    std::uint64_t sum = 0;
    for (NodeId f : nd.fanins) sum = clamped_add(sum, pc.np[f]);
    pc.np[n] = sum;
  }
  pc.output_offsets.reserve(nl.outputs().size() + 1);
  std::uint64_t total = 0;
  for (NodeId o : nl.outputs()) {
    pc.output_offsets.push_back(total);
    total = clamped_add(total, pc.np[o]);
  }
  pc.output_offsets.push_back(total);
  pc.total = total;
  return pc;
}

std::string format_path_total(std::uint64_t total) {
  if (total >= kPathCountSaturated) return ">=2^63";
  return std::to_string(total);
}

namespace {

/// Emits paths ending at `n` (recursing towards inputs), appending the node
/// chain in output-to-input order into `rev`, flipping on emit.
void emit_paths(const Netlist& nl, const PathCounts& pc, NodeId n,
                std::uint64_t id_base, std::vector<NodeId>& rev,
                std::vector<Path>& out, std::size_t cap) {
  if (out.size() >= cap) return;
  rev.push_back(n);
  const Node& nd = nl.node(n);
  if (nd.type == GateType::Input) {
    Path p;
    p.nodes.assign(rev.rbegin(), rev.rend());
    p.id = id_base;
    out.push_back(std::move(p));
  } else {
    std::uint64_t off = 0;
    for (NodeId f : nd.fanins) {
      if (pc.np[f] != 0) emit_paths(nl, pc, f, id_base + off, rev, out, cap);
      off += pc.np[f];
      if (out.size() >= cap) break;
    }
  }
  rev.pop_back();
}

}  // namespace

std::vector<Path> enumerate_paths(const Netlist& nl, std::size_t cap) {
  const PathCounts pc = count_paths(nl);
  std::vector<Path> out;
  out.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(pc.total, cap)));
  std::vector<NodeId> rev;
  for (std::size_t k = 0; k < nl.outputs().size(); ++k) {
    if (out.size() >= cap) break;
    emit_paths(nl, pc, nl.outputs()[k], pc.output_offsets[k], rev, out, cap);
  }
  return out;
}

Path path_from_id(const Netlist& nl, const PathCounts& pc, std::uint64_t id) {
  assert(id < pc.total);
  // Find the output whose range contains id.
  const auto it = std::upper_bound(pc.output_offsets.begin(),
                                   pc.output_offsets.end(), id);
  const std::size_t k = static_cast<std::size_t>(it - pc.output_offsets.begin()) - 1;
  NodeId n = nl.outputs()[k];
  std::uint64_t rem = id - pc.output_offsets[k];
  std::vector<NodeId> rev{n};
  while (nl.node(n).type != GateType::Input) {
    const Node& nd = nl.node(n);
    NodeId chosen = kNoNode;
    for (NodeId f : nd.fanins) {
      if (rem < pc.np[f]) {
        chosen = f;
        break;
      }
      rem -= pc.np[f];
    }
    assert(chosen != kNoNode);
    n = chosen;
    rev.push_back(n);
  }
  Path p;
  p.nodes.assign(rev.rbegin(), rev.rend());
  p.id = id;
  return p;
}

}  // namespace compsyn
