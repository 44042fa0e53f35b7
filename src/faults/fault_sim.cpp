#include "faults/fault_sim.hpp"

#include <algorithm>
#include <cassert>

#include "exec/exec.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "robust/robust.hpp"

namespace compsyn {

namespace {
// Faults per chunk. Fixed (never derived from the job count) so the chunk
// partition -- and with it every merge order and exec.* counter -- is the
// same at any --jobs value.
constexpr std::size_t kFaultGrain = 64;
}  // namespace

FaultSimulator::FaultSimulator(const Netlist& nl, std::vector<StuckFault> faults)
    : nl_(nl), faults_(std::move(faults)) {
  detected_.assign(faults_.size(), 0);
  first_pattern_.assign(faults_.size(), 0);
  topo_rank_.assign(nl_.size(), 0);
  const auto& order = nl_.topo_order();
  for (std::uint32_t i = 0; i < order.size(); ++i) topo_rank_[order[i]] = i;
  is_po_.assign(nl_.size(), 0);
  for (NodeId o : nl_.outputs()) is_po_[o] = 1;
}

std::uint64_t FaultSimulator::propagate_fault(const StuckFault& f,
                                              std::uint64_t mask,
                                              Scratch& s) const {
  // s.fval mirrors good_ between faults (plus one spare slot at index
  // size()), so gates read faulty values in place; every node a fault
  // touches is restored before the next one.
  if (s.block != block_) {
    s.fval.assign(good_.begin(), good_.end());
    s.fval.push_back(0);
    s.block = block_;
  }
  auto set_faulty = [&](NodeId x, std::uint64_t v) {
    s.fval[x] = v;
    s.touched.push_back(x);
  };

  const std::uint64_t stuck_word = f.value ? ~0ull : 0ull;
  const NodeId origin = f.node;
  std::uint64_t origin_val = stuck_word;
  if (!f.is_stem()) {
    // The faulty pin reads the spare slot, which holds the stuck word.
    const Node& nd = nl_.node(origin);
    s.pin_fanins.assign(nd.fanins.begin(), nd.fanins.end());
    s.pin_fanins[static_cast<std::size_t>(f.pin)] = static_cast<NodeId>(nl_.size());
    s.fval[nl_.size()] = stuck_word;
    origin_val = eval_gate(nd.type, s.pin_fanins, s.fval.data());
  }
  if (((origin_val ^ good_[origin]) & mask) == 0) return 0;  // not activated
  ++s.activated;
  set_faulty(origin, origin_val);

  const auto& fanouts = nl_.fanouts();
  std::uint64_t po_diff = 0;
  if (is_po_[origin]) po_diff |= origin_val ^ good_[origin];
  s.heap.push({topo_rank_[origin], origin});
  while (!s.heap.empty()) {
    const NodeId x = s.heap.top().second;
    s.heap.pop();
    if (s.fval[x] == good_[x]) continue;  // difference died
    for (NodeId y : fanouts[x]) {
      const Node& nd = nl_.node(y);
      const std::uint64_t yv = eval_gate(nd.type, nd.fanins, s.fval.data());
      if (yv == s.fval[y]) continue;
      ++s.events;
      set_faulty(y, yv);
      if (is_po_[y]) po_diff |= yv ^ good_[y];
      s.heap.push({topo_rank_[y], y});
    }
  }
  for (NodeId x : s.touched) s.fval[x] = good_[x];
  s.touched.clear();
  return po_diff & mask;
}

std::vector<std::size_t> FaultSimulator::simulate_block(
    const std::vector<std::uint64_t>& pi_words, std::uint64_t base_pattern,
    unsigned num_patterns) {
  const Span sp("fsim.block");
  assert(num_patterns >= 1 && num_patterns <= 64);
  const std::uint64_t mask =
      num_patterns >= 64 ? ~0ull : ((1ull << num_patterns) - 1);
  nl_.simulate_into(pi_words, good_);
  ++block_;  // every worker re-syncs its faulty-value mirror
  nl_.fanouts();  // warm the shared lazy cache before the parallel region

  if (scratch_.size() < jobs()) scratch_.resize(jobs());
  for (Scratch& s : scratch_) {
    s.events = 0;
    s.activated = 0;
  }

  const std::size_t n = faults_.size();
  const std::size_t chunks = exec_detail::chunk_count(n, kFaultGrain);
  // Per chunk: (fault index, first detecting bit) hits, ascending by fault.
  std::vector<std::vector<std::pair<std::size_t, unsigned>>> hits(chunks);
  parallel_chunks(n, kFaultGrain,
                  [&](std::size_t begin, std::size_t end, unsigned worker) {
                    Scratch& s = scratch_[worker];
                    auto& out = hits[begin / kFaultGrain];
                    for (std::size_t fi = begin; fi < end; ++fi) {
                      if (detected_[fi]) continue;
                      const std::uint64_t diff =
                          propagate_fault(faults_[fi], mask, s);
                      if (diff != 0) {
                        out.emplace_back(
                            fi, static_cast<unsigned>(__builtin_ctzll(diff)));
                      }
                    }
                  });

  // Merge in chunk (= fault index) order: the newly-detected list and the
  // recorded first patterns match the serial sweep exactly.
  std::vector<std::size_t> newly;
  for (const auto& chunk_hits : hits) {
    for (const auto& [fi, bit] : chunk_hits) {
      detected_[fi] = 1;
      ++detected_total_;
      first_pattern_[fi] = base_pattern + bit;
      newly.push_back(fi);
    }
  }

  std::uint64_t events = 0, activated = 0;
  for (const Scratch& s : scratch_) {
    events += s.events;
    activated += s.activated;
  }
  // One budget tick per simulated pattern block, charged at this serial
  // merge point so the tick stream is jobs-invariant.
  robust::charge(1);
  // Batched per pattern block; patterns/sec falls out of the patterns
  // counter over the fsim.block span's total time.
  Counters::incr("fsim.blocks");
  Counters::incr("fsim.patterns", num_patterns);
  Counters::incr("fsim.events", events);
  Counters::incr("fsim.faults_activated", activated);
  Counters::incr("fsim.faults_dropped", newly.size());
  Counters::observe("fsim.dropped_per_block", static_cast<double>(newly.size()));
  // Counter track for the profile: live (undetected) faults after each
  // block, sampled at this serial merge point so the value sequence is
  // jobs-invariant.
  ChromeTrace::counter("fsim.live_faults",
                       static_cast<double>(faults_.size() - detected_total_));
  return newly;
}

SafExperimentResult random_saf_experiment(const Netlist& nl, Rng& rng,
                                          std::uint64_t max_patterns,
                                          bool collapse) {
  FaultSimulator sim(nl, enumerate_faults(nl, collapse));
  SafExperimentResult res;
  res.total_faults = sim.total_faults();
  const std::size_t n = nl.inputs().size();
  std::vector<std::uint64_t> pi(n);
  std::uint64_t applied = 0;
  while (applied < max_patterns && sim.remaining() > 0) {
    for (std::size_t i = 0; i < n; ++i) pi[i] = rng.next();
    const unsigned np = static_cast<unsigned>(
        std::min<std::uint64_t>(64, max_patterns - applied));
    const auto newly = sim.simulate_block(pi, applied, np);
    for (std::size_t fi : newly) {
      res.last_effective_pattern =
          std::max(res.last_effective_pattern, sim.detecting_pattern(fi) + 1);
    }
    applied += np;
  }
  res.patterns_applied = applied;
  res.remaining = sim.remaining();
  return res;
}

}  // namespace compsyn
