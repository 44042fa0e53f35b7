#include "atpg/guided.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace compsyn {
namespace {

constexpr std::uint64_t kEvenBits = 0x5555555555555555ull;
constexpr std::uint64_t kOddBits = 0xAAAAAAAAAAAAAAAAull;

/// One 64-pattern block of PI words under the variant's distribution.
void gen_block(Rng& rng, RtpgVariant v, std::uint64_t block_index,
               std::vector<std::uint64_t>& pi) {
  switch (v) {
    case RtpgVariant::Uniform:
      for (auto& w : pi) w = rng.next();
      break;
    case RtpgVariant::Weighted: {
      // Cycle the 1-density across blocks: AND of two words (~1/4), raw
      // (~1/2), OR (~3/4) -- cheap weighted random in the TPG tradition.
      const unsigned phase = static_cast<unsigned>(block_index % 3);
      for (auto& w : pi) {
        const std::uint64_t a = rng.next();
        const std::uint64_t b = rng.next();
        w = phase == 0 ? (a & b) : phase == 1 ? a : (a | b);
      }
      break;
    }
    case RtpgVariant::Toggle:
      // Patterns come in complementary pairs: bit 2j random, bit 2j+1 its
      // complement, maximizing per-line toggling within a block.
      for (auto& w : pi) {
        const std::uint64_t r = rng.next();
        w = (r & kEvenBits) | (~(r << 1) & kOddBits);
      }
      break;
  }
}

}  // namespace

RandomTpgStats random_tpg(const Netlist& nl, FaultSimulator& sim,
                          const RandomTpgOptions& opt,
                          std::vector<TestPattern>& patterns) {
  const Span sp("atpg.rtpg");
  RandomTpgStats st;
  const std::size_t ni = nl.inputs().size();
  if (ni == 0 || opt.max_patterns == 0) return st;
  Rng rng(opt.seed);
  const std::size_t first = patterns.size();
  std::uint64_t effective = 0;  // patterns up to the last new detection
  unsigned stale = 0;
  std::vector<std::uint64_t> pi(ni);
  std::uint64_t applied = 0;
  while (applied < opt.max_patterns && sim.remaining() > 0) {
    if (opt.stale_blocks != 0 && stale >= opt.stale_blocks) break;
    const unsigned np = static_cast<unsigned>(
        std::min<std::uint64_t>(64, opt.max_patterns - applied));
    gen_block(rng, opt.variant, st.blocks, pi);
    const std::vector<std::size_t> newly = sim.simulate_block(pi, applied, np);
    ++st.blocks;
    st.detected += newly.size();
    for (std::size_t fi : newly) {
      effective = std::max(effective, sim.detecting_pattern(fi) + 1);
    }
    stale = newly.empty() ? stale + 1 : 0;
    for (unsigned k = 0; k < np; ++k) {
      TestPattern p;
      p.bits.resize(ni);
      for (std::size_t i = 0; i < ni; ++i) {
        p.bits[i] = static_cast<std::uint8_t>((pi[i] >> k) & 1u);
      }
      patterns.push_back(std::move(p));
    }
    applied += np;
  }
  st.patterns_applied = applied;
  // The tail past the last new detection was simulated and detected
  // nothing; dropping it cannot change the detected set.
  patterns.resize(first + static_cast<std::size_t>(effective));
  st.patterns_kept = effective;
  return st;
}

std::vector<std::size_t> order_faults(const Netlist& nl,
                                      const AtpgGuidance& guidance,
                                      const std::vector<StuckFault>& faults,
                                      FaultOrderPolicy policy) {
  std::vector<std::size_t> idx(faults.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  if (policy == FaultOrderPolicy::Index) return idx;
  std::vector<std::uint64_t> key(faults.size(), 0);
  if (policy == FaultOrderPolicy::HardFirst) {
    for (std::size_t i = 0; i < faults.size(); ++i) {
      key[i] = scoap_fault_hardness(nl, guidance.scoap, faults[i]);
    }
  } else {  // Cone: size of the fanout cone the fault effect enters.
    std::vector<std::int64_t> memo(nl.size(), -1);
    std::vector<char> vis;
    std::vector<NodeId> stack;
    const auto& fo = nl.fanouts();
    auto cone_size = [&](NodeId n) -> std::uint64_t {
      if (memo[n] >= 0) return static_cast<std::uint64_t>(memo[n]);
      vis.assign(nl.size(), 0);
      stack.assign(1, n);
      vis[n] = 1;
      std::uint64_t cnt = 0;
      while (!stack.empty()) {
        const NodeId m = stack.back();
        stack.pop_back();
        ++cnt;
        for (NodeId y : fo[m]) {
          if (!vis[y]) {
            vis[y] = 1;
            stack.push_back(y);
          }
        }
      }
      memo[n] = static_cast<std::int64_t>(cnt);
      return cnt;
    };
    for (std::size_t i = 0; i < faults.size(); ++i) {
      // f.node is the consuming gate for branch faults -- exactly where
      // the fault effect enters the circuit.
      key[i] = cone_size(faults[i].node);
    }
  }
  // Descending key; stable sort keeps ties in ascending fault index.
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::size_t a, std::size_t b) { return key[a] > key[b]; });
  return idx;
}

GuidedAtpgResult guided_atpg(const Netlist& nl, const GuidedAtpgOptions& opt) {
  const Span sp("atpg.guided");
  GuidedAtpgResult res;
  res.faults = enumerate_faults(nl, opt.collapse);
  const std::size_t nf = res.faults.size();
  res.status.assign(nf, AtpgStatus::Aborted);
  FaultSimulator sim(nl, res.faults);

  if (opt.rtpg_enabled) {
    res.rtpg = random_tpg(nl, sim, opt.rtpg, res.patterns);
  }

  const AtpgGuidance guidance = AtpgGuidance::build(nl);
  AtpgOptions popt;
  popt.backtrack_limit = opt.backtrack_limit;
  popt.strategy = opt.strategy;
  popt.guidance = &guidance;
  popt.record_cube = true;

  const std::vector<std::size_t> order =
      order_faults(nl, guidance, res.faults, opt.order);
  const std::size_t ni = nl.inputs().size();
  std::vector<std::uint64_t> pi(ni);
  for (std::size_t idx : order) {
    if (sim.is_detected(idx)) continue;  // dropped by an earlier pattern
    const AtpgResult r = run_podem(nl, res.faults[idx], popt);
    ++res.podem_calls;
    res.backtracks += r.backtracks;
    res.decisions += r.decisions;
    if (r.status == AtpgStatus::Detected) {
      ++res.podem_detected;
      TestPattern cube;
      cube.bits = r.cube;
      // Fill keyed by the cube's stream index: compact_patterns with the
      // same fill seed reproduces this exact pattern, so the dropping
      // decisions made here match the compactor's replay.
      const std::uint64_t pat_idx = res.patterns.size();
      const TestPattern filled = xfill_pattern(cube, opt.fill_seed, pat_idx);
      for (std::size_t i = 0; i < ni; ++i) {
        pi[i] = filled.bits[i] == kBit1 ? 1u : 0u;
      }
      sim.simulate_block(pi, pat_idx, 1);
      res.patterns.push_back(std::move(cube));
      // A PODEM cube detects its target under every X completion
      // (podem.hpp), so the filled pattern must have dropped it.
      assert(sim.is_detected(idx));
    } else {
      res.status[idx] = r.status;
    }
  }

  for (std::size_t i = 0; i < nf; ++i) {
    if (sim.is_detected(i)) res.status[i] = AtpgStatus::Detected;
    switch (res.status[i]) {
      case AtpgStatus::Detected: ++res.detected; break;
      case AtpgStatus::Untestable: ++res.untestable; break;
      case AtpgStatus::Aborted: ++res.aborted; break;
    }
  }

  Counters::incr("atpg.guided.calls");
  Counters::incr("atpg.guided.faults", nf);
  Counters::incr("atpg.guided.rtpg_patterns", res.rtpg.patterns_kept);
  Counters::incr("atpg.guided.rtpg_detected", res.rtpg.detected);
  Counters::incr("atpg.guided.podem_calls", res.podem_calls);
  Counters::incr("atpg.guided.podem_backtracks", res.backtracks);
  Counters::incr("atpg.guided.detected", res.detected);
  Counters::incr("atpg.guided.untestable", res.untestable);
  Counters::incr("atpg.guided.aborted", res.aborted);
  Counters::incr("atpg.guided.patterns", res.patterns.size());
  return res;
}

std::optional<BacktracePolicy> parse_backtrace_policy(std::string_view s) {
  if (s == "legacy") return BacktracePolicy::Legacy;
  if (s == "scoap") return BacktracePolicy::Scoap;
  return std::nullopt;
}

std::optional<FrontierPolicy> parse_frontier_policy(std::string_view s) {
  if (s == "legacy") return FrontierPolicy::Legacy;
  if (s == "scoap") return FrontierPolicy::Scoap;
  return std::nullopt;
}

std::optional<FaultOrderPolicy> parse_fault_order(std::string_view s) {
  if (s == "index") return FaultOrderPolicy::Index;
  if (s == "hard") return FaultOrderPolicy::HardFirst;
  if (s == "cone") return FaultOrderPolicy::Cone;
  return std::nullopt;
}

std::optional<RtpgVariant> parse_rtpg_variant(std::string_view s) {
  if (s == "uniform") return RtpgVariant::Uniform;
  if (s == "weighted") return RtpgVariant::Weighted;
  if (s == "toggle") return RtpgVariant::Toggle;
  return std::nullopt;
}

const char* to_string(BacktracePolicy p) {
  switch (p) {
    case BacktracePolicy::Legacy: return "legacy";
    case BacktracePolicy::Scoap: return "scoap";
  }
  return "?";
}

const char* to_string(FrontierPolicy p) {
  switch (p) {
    case FrontierPolicy::Legacy: return "legacy";
    case FrontierPolicy::Scoap: return "scoap";
  }
  return "?";
}

const char* to_string(FaultOrderPolicy p) {
  switch (p) {
    case FaultOrderPolicy::Index: return "index";
    case FaultOrderPolicy::HardFirst: return "hard";
    case FaultOrderPolicy::Cone: return "cone";
  }
  return "?";
}

const char* to_string(RtpgVariant v) {
  switch (v) {
    case RtpgVariant::Uniform: return "uniform";
    case RtpgVariant::Weighted: return "weighted";
    case RtpgVariant::Toggle: return "toggle";
  }
  return "?";
}

}  // namespace compsyn
