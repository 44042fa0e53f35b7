#include "delay/robust.hpp"

#include <cassert>

namespace compsyn {

bool robustly_tests(const Netlist& nl, const Path& path, bool rising,
                    const std::vector<bool>& v1, const std::vector<bool>& v2) {
  assert(!path.nodes.empty());
  const auto waves = simulate_two_pattern(nl, v1, v2);
  const Wave& origin = waves[path.nodes.front()];
  if (!origin.transitions() || origin.v2 != rising) return false;
  for (std::size_t j = 1; j < path.nodes.size(); ++j) {
    const Node& nd = nl.node(path.nodes[j]);
    bool ok = false;
    for (std::size_t pin = 0; pin < nd.fanins.size() && !ok; ++pin) {
      if (nd.fanins[pin] == path.nodes[j - 1]) {
        ok = robust_edge(nl, waves, path.nodes[j], pin);
      }
    }
    if (!ok) return false;
  }
  return true;
}

std::optional<std::pair<std::vector<bool>, std::vector<bool>>> find_robust_test(
    const Netlist& nl, const Path& path, bool rising, unsigned exhaustive_limit) {
  const std::size_t n = nl.inputs().size();
  // Locate the origin among the primary inputs.
  std::size_t origin = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (nl.inputs()[i] == path.nodes.front()) origin = i;
  }
  assert(origin < n);

  auto unpack = [&](std::uint64_t bits, std::size_t skip) {
    std::vector<bool> v(n, false);
    std::size_t b = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i == skip) continue;
      v[i] = (bits >> b++) & 1ull;
    }
    return v;
  };

  // Phase 1: single-input-change pairs (the comparison-unit tests of
  // Table 1 all have this shape).
  if (n - 1 <= exhaustive_limit) {
    const std::uint64_t limit = 1ull << (n - 1);
    for (std::uint64_t bits = 0; bits < limit; ++bits) {
      std::vector<bool> v2 = unpack(bits, origin);
      std::vector<bool> v1 = v2;
      v2[origin] = rising;
      v1[origin] = !rising;
      if (robustly_tests(nl, path, rising, v1, v2)) return std::make_pair(v1, v2);
    }
  }
  // Phase 2: all vector pairs with the origin transition fixed.
  if (2 * (n - 1) <= exhaustive_limit) {
    const std::uint64_t limit = 1ull << (n - 1);
    for (std::uint64_t b1 = 0; b1 < limit; ++b1) {
      std::vector<bool> v1 = unpack(b1, origin);
      v1[origin] = !rising;
      for (std::uint64_t b2 = 0; b2 < limit; ++b2) {
        std::vector<bool> v2 = unpack(b2, origin);
        v2[origin] = rising;
        if (robustly_tests(nl, path, rising, v1, v2)) return std::make_pair(v1, v2);
      }
    }
  }
  return std::nullopt;
}

RobustPdfSimulator::RobustPdfSimulator(const Netlist& nl)
    : nl_(nl), pc_(count_paths(nl)) {
  bits_.assign(static_cast<std::size_t>((total_faults() + 63) / 64), 0);
}

bool RobustPdfSimulator::is_detected(std::uint64_t fault_id) const {
  return (bits_[fault_id >> 6] >> (fault_id & 63)) & 1ull;
}

void RobustPdfSimulator::mark(std::uint64_t fault_id) {
  std::uint64_t& w = bits_[fault_id >> 6];
  const std::uint64_t bit = 1ull << (fault_id & 63);
  if (!(w & bit)) {
    w |= bit;
    ++detected_count_;
  }
}

void RobustPdfSimulator::walk(NodeId n, std::uint64_t id_base,
                              const std::vector<Wave>& waves,
                              std::uint64_t& budget, std::uint64_t& newly) {
  if (budget == 0) return;
  --budget;
  const Node& nd = nl_.node(n);
  if (nd.type == GateType::Input) {
    // Fault id: rising origin transition -> even, falling -> odd.
    const std::uint64_t id = 2 * id_base + (waves[n].v1 ? 1 : 0);
    const std::uint64_t before = detected_count_;
    mark(id);
    newly += detected_count_ - before;
    return;
  }
  std::uint64_t off = 0;
  for (std::size_t pin = 0; pin < nd.fanins.size(); ++pin) {
    const NodeId f = nd.fanins[pin];
    if (waves[f].transitions() && robust_edge(nl_, waves, n, pin)) {
      walk(f, id_base + off, waves, budget, newly);
      if (budget == 0) return;
    }
    off += pc_.np[f];
  }
}

std::uint64_t RobustPdfSimulator::apply(const std::vector<bool>& v1,
                                        const std::vector<bool>& v2,
                                        std::uint64_t work_cap) {
  const auto waves = simulate_two_pattern(nl_, v1, v2);
  std::uint64_t newly = 0;
  std::uint64_t budget = work_cap;
  for (std::size_t k = 0; k < nl_.outputs().size(); ++k) {
    const NodeId po = nl_.outputs()[k];
    if (!waves[po].transitions()) continue;
    walk(po, pc_.output_offsets[k], waves, budget, newly);
    if (budget == 0) break;
  }
  return newly;
}

PdfExperimentResult random_robust_pdf(const Netlist& nl, Rng& rng,
                                      std::uint64_t stop_window,
                                      std::uint64_t max_pairs) {
  RobustPdfSimulator sim(nl);
  PdfExperimentResult res;
  res.total_faults = sim.total_faults();
  const std::size_t n = nl.inputs().size();
  std::vector<bool> v1(n), v2(n);
  std::uint64_t since_last = 0;
  for (std::uint64_t pair = 1; pair <= max_pairs; ++pair) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t r = rng.next();
      v1[i] = r & 1ull;
      v2[i] = (r >> 1) & 1ull;
    }
    const std::uint64_t newly = sim.apply(v1, v2);
    res.pairs_applied = pair;
    if (newly > 0) {
      res.last_effective_pair = pair;
      since_last = 0;
    } else if (++since_last >= stop_window) {
      break;
    }
    if (sim.detected_count() == sim.total_faults()) break;
  }
  res.detected = sim.detected_count();
  return res;
}

PdfTestability count_robustly_testable(const Netlist& nl,
                                       unsigned exhaustive_limit,
                                       std::size_t path_cap) {
  PdfTestability out;
  const auto paths = enumerate_paths(nl, path_cap);
  out.total_faults = 2 * paths.size();
  // Each path is tested for its rising and its falling transition.
  for (const Path& p : paths) {
    for (const bool rising : {true, false}) {
      if (find_robust_test(nl, p, rising, exhaustive_limit)) ++out.testable;
    }
  }
  return out;
}

}  // namespace compsyn
