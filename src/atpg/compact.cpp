#include "atpg/compact.hpp"

#include <algorithm>

#include "faults/fault_sim.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace compsyn {
namespace {

std::uint64_t mix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Packs patterns[base .. base+np) into 64-pattern words: bit k of pi[i] is
/// pattern (base+k)'s value for input i. X packs as 0.
void pack_block(const std::vector<TestPattern>& pats, std::size_t base,
                unsigned np, std::size_t num_inputs,
                std::vector<std::uint64_t>& pi) {
  pi.assign(num_inputs, 0);
  for (unsigned k = 0; k < np; ++k) {
    const TestPattern& p = pats[base + k];
    for (std::size_t i = 0; i < num_inputs; ++i) {
      if (p.bits[i] == kBit1) pi[i] |= 1ull << k;
    }
  }
}

}  // namespace

std::uint8_t xfill_bit(std::uint64_t seed, std::uint64_t pattern_index,
                       std::uint64_t input_index) {
  return static_cast<std::uint8_t>(
      mix64(mix64(seed ^ pattern_index) ^ input_index) & 1u);
}

TestPattern xfill_pattern(const TestPattern& p, std::uint64_t seed,
                          std::uint64_t pattern_index) {
  TestPattern out = p;
  for (std::size_t i = 0; i < out.bits.size(); ++i) {
    if (out.bits[i] == kBitX) out.bits[i] = xfill_bit(seed, pattern_index, i);
  }
  return out;
}

CompactionResult compact_patterns(const Netlist& nl,
                                  const std::vector<StuckFault>& faults,
                                  const std::vector<TestPattern>& patterns,
                                  const CompactionOptions& opt) {
  const Span sp("atpg.compact");
  CompactionResult res;
  res.input_patterns = patterns.size();
  const std::size_t ni = nl.inputs().size();
  const std::size_t n = patterns.size();

  // X bits are keyed by the ORIGINAL pattern index, so the same pattern is
  // filled identically in the forward reference pass, the reverse election
  // pass, and the kept subset.
  std::vector<TestPattern> filled(n);
  for (std::size_t i = 0; i < n; ++i) {
    filled[i] = xfill_pattern(patterns[i], opt.fill_seed, i);
  }

  // Forward replay: the reference detected bitmap of the full filled set.
  {
    FaultSimulator fw(nl, faults);
    std::vector<std::uint64_t> pi;
    for (std::size_t base = 0; base < n; base += 64) {
      const unsigned np = static_cast<unsigned>(std::min<std::size_t>(64, n - base));
      pack_block(filled, base, np, ni, pi);
      fw.simulate_block(pi, base, np);
    }
    res.detected.assign(faults.size(), 0);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (fw.is_detected(i)) {
        res.detected[i] = 1;
        ++res.detected_count;
      }
    }
  }

  // Reverse election with fault dropping. Within a block the simulator
  // credits each newly detected fault to its lowest set bit -- the smallest
  // reverse index, i.e. the LATEST original pattern -- which is exactly the
  // pattern sequential reverse replay would have credited. A pattern is
  // kept iff it is some fault's first reverse-order detector; every fault
  // in the reference bitmap has one, so the kept subset re-detects all of
  // them, and (being a subset) nothing more: the bitmaps are byte-equal.
  std::vector<char> keep(n, 0);
  {
    FaultSimulator rv(nl, faults);
    std::vector<std::uint64_t> pi;
    for (std::size_t rbase = 0; rbase < n; rbase += 64) {
      const unsigned np = static_cast<unsigned>(std::min<std::size_t>(64, n - rbase));
      pi.assign(ni, 0);
      for (unsigned k = 0; k < np; ++k) {
        const TestPattern& p = filled[n - 1 - (rbase + k)];
        for (std::size_t i = 0; i < ni; ++i) {
          if (p.bits[i] == kBit1) pi[i] |= 1ull << k;
        }
      }
      for (std::size_t fi : rv.simulate_block(pi, rbase, np)) {
        keep[n - 1 - rv.detecting_pattern(fi)] = 1;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (keep[i]) res.patterns.push_back(filled[i]);
  }

  Counters::incr("compact.calls");
  Counters::incr("compact.in_patterns", res.input_patterns);
  Counters::incr("compact.kept", res.patterns.size());
  Counters::incr("compact.dropped", res.input_patterns - res.patterns.size());
  Counters::incr("compact.faults_detected", res.detected_count);
  return res;
}

std::vector<char> replay_detect(const Netlist& nl,
                                const std::vector<StuckFault>& faults,
                                const std::vector<TestPattern>& patterns) {
  FaultSimulator sim(nl, faults);
  std::vector<std::uint64_t> pi;
  const std::size_t ni = nl.inputs().size();
  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    const unsigned np =
        static_cast<unsigned>(std::min<std::size_t>(64, patterns.size() - base));
    pack_block(patterns, base, np, ni, pi);
    sim.simulate_block(pi, base, np);
  }
  std::vector<char> detected(faults.size(), 0);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    detected[i] = sim.is_detected(i) ? 1 : 0;
  }
  return detected;
}

}  // namespace compsyn
