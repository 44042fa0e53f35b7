#include "faults/fault_sim.hpp"

#include <algorithm>
#include <cassert>

#include "obs/chrome_trace.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "robust/robust.hpp"

namespace compsyn {

FaultSimulator::FaultSimulator(const Netlist& nl, std::vector<StuckFault> faults)
    : nl_(nl), faults_(std::move(faults)) {
  const std::size_t n = nl_.size();
  detected_.assign(faults_.size(), 0);
  first_pattern_.assign(faults_.size(), 0);
  is_po_.assign(n, 0);
  for (NodeId o : nl_.outputs()) is_po_[o] = 1;
  topo_rank_.assign(n, 0);
  const auto& order = nl_.topo_order();
  for (std::uint32_t i = 0; i < order.size(); ++i) topo_rank_[order[i]] = i;
  by_rank_ = order;

  // FFRs, sinks first so a consumer's stem is known before its fanins'.
  // Dead nodes have no fanouts and stay their own stems.
  stem_of_.resize(n);
  for (NodeId x = 0; x < n; ++x) stem_of_[x] = x;
  consumer_.assign(n, kNoNode);
  consumer_pin_.assign(n, 0);
  const auto& fanouts = nl_.fanouts();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId x = *it;
    if (is_po_[x] || fanouts[x].size() != 1) continue;
    const NodeId c = fanouts[x].front();
    const auto& fi = nl_.node(c).fanins;
    consumer_[x] = c;
    consumer_pin_[x] = static_cast<std::uint32_t>(
        std::find(fi.begin(), fi.end(), x) - fi.begin());
    stem_of_[x] = stem_of_[c];
  }
  local_.assign(n, 0);
  local_stamp_.assign(n, 0);
  obs_.assign(n, 0);
  obs_stamp_.assign(n, 0);
  pending_.assign(order.size() / 64 + 1, 0);
}

std::uint64_t FaultSimulator::eval_with_pin(NodeId y, std::size_t pin,
                                            std::uint64_t v) {
  const Node& nd = nl_.node(y);
  pin_fanins_.assign(nd.fanins.begin(), nd.fanins.end());
  pin_fanins_[pin] = static_cast<NodeId>(nl_.size());
  fval_[nl_.size()] = v;
  return eval_gate(nd.type, pin_fanins_, fval_.data());
}

std::uint64_t FaultSimulator::local_observability(NodeId x) {
  // Walk towards the stem until a stem or a node memoised this block, then
  // fold the sensitisation words back down the path.
  path_.clear();
  NodeId y = x;
  while (consumer_[y] != kNoNode && local_stamp_[y] != block_) {
    path_.push_back(y);
    y = consumer_[y];
  }
  std::uint64_t l = consumer_[y] == kNoNode ? ~0ull : local_[y];
  for (auto it = path_.rbegin(); it != path_.rend(); ++it) {
    const NodeId z = *it;
    const NodeId c = consumer_[z];
    l &= eval_with_pin(c, consumer_pin_[z], ~good_[z]) ^ good_[c];
    local_[z] = l;
    local_stamp_[z] = block_;
  }
  return l;
}

std::uint64_t FaultSimulator::stem_observability(NodeId s, std::uint64_t mask) {
  if (obs_stamp_[s] == block_) return obs_[s];
  // Event-driven forward propagation of the stem's flip over fval_, which
  // mirrors good_ and is restored node by node afterwards. A consumer of a
  // changed node is queued once, as a bit of the rank-indexed pending_
  // set, and evaluated when the scan reaches its topological rank: after
  // every fanin that can still change.
  const auto& fanouts = nl_.fanouts();
  std::size_t last_word = 0;  // highest pending_ word with a queued rank
  auto changed = [&](NodeId x, std::uint64_t v) {
    fval_[x] = v;
    touched_.push_back(x);
    for (NodeId y : fanouts[x]) {
      const std::uint32_t r = topo_rank_[y];
      pending_[r / 64] |= 1ull << (r % 64);
      last_word = std::max<std::size_t>(last_word, r / 64);
    }
  };
  changed(s, ~good_[s]);
  std::uint64_t po_diff = is_po_[s] ? ~0ull : 0;
  for (std::size_t w = topo_rank_[s] / 64; w <= last_word; ++w) {
    // Consumers queued from word w land at higher bits of w or later words.
    while (pending_[w] != 0) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctzll(pending_[w]));
      pending_[w] &= pending_[w] - 1;
      const NodeId y = by_rank_[w * 64 + bit];
      const Node& nd = nl_.node(y);
      const std::uint64_t yv = eval_gate(nd.type, nd.fanins, fval_.data());
      if (yv == good_[y]) continue;  // the difference died here
      ++events_;
      if (is_po_[y]) po_diff |= yv ^ good_[y];
      changed(y, yv);
    }
  }
  for (NodeId x : touched_) fval_[x] = good_[x];
  touched_.clear();
  obs_[s] = po_diff & mask;
  obs_stamp_[s] = block_;
  return obs_[s];
}

std::vector<std::size_t> FaultSimulator::simulate_block(
    const std::vector<std::uint64_t>& pi_words, std::uint64_t base_pattern,
    unsigned num_patterns) {
  const Span sp("fsim.block");
  assert(num_patterns >= 1 && num_patterns <= 64);
  robust::poll_cancellation();
  const std::uint64_t mask =
      num_patterns >= 64 ? ~0ull : ((1ull << num_patterns) - 1);
  nl_.simulate_into(pi_words, good_);
  fval_.assign(good_.begin(), good_.end());
  fval_.push_back(0);  // the spare slot a substituted pin reads
  ++block_;  // invalidates every L and obs memo
  events_ = 0;

  std::vector<std::size_t> newly;
  std::uint64_t activated = 0;
  for (std::size_t fi = 0; fi < faults_.size(); ++fi) {
    if (detected_[fi]) continue;
    const StuckFault& f = faults_[fi];
    const std::uint64_t stuck = f.value ? ~0ull : 0ull;
    // The difference at the fault's gate output: the stem itself, or the
    // consumer evaluated with the faulty pin stuck.
    std::uint64_t local =
        f.is_stem()
            ? good_[f.node] ^ stuck
            : eval_with_pin(f.node, static_cast<std::size_t>(f.pin), stuck) ^
                  good_[f.node];
    if ((local & mask) == 0) continue;  // not activated
    local &= local_observability(f.node);
    if ((local & mask) == 0) continue;  // blocked inside the FFR
    ++activated;
    const std::uint64_t diff = local & stem_observability(stem_of_[f.node], mask);
    if (diff == 0) continue;
    detected_[fi] = 1;
    ++detected_total_;
    first_pattern_[fi] = base_pattern + static_cast<unsigned>(__builtin_ctzll(diff));
    newly.push_back(fi);
  }

  // One budget tick per simulated pattern block.
  robust::charge(1);
  // Batched per pattern block; patterns/sec falls out of the patterns
  // counter over the fsim.block span's total time.
  Counters::incr("fsim.blocks");
  Counters::incr("fsim.patterns", num_patterns);
  Counters::incr("fsim.events", events_);
  Counters::incr("fsim.faults_activated", activated);
  Counters::incr("fsim.faults_dropped", newly.size());
  Counters::observe("fsim.dropped_per_block", static_cast<double>(newly.size()));
  // Counter track for the profile: live (undetected) faults after each
  // block.
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
