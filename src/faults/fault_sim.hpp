// Parallel-pattern stuck-at fault simulator with fanout-free-region (FFR)
// critical-path tracing -- the FSIM [17] substrate (Lee & Ha, ITC 1991)
// used by the Table 6 experiment and the redundancy-removal filter.
//
// Each call simulates up to 64 patterns at once. After one fault-free pass,
// every live fault gets an exact 64-bit local word: the patterns on which
// the fault flips its FFR's stem. A node is a stem when it is a primary
// output or its fanout list does not have exactly one entry (fanouts() lists
// a consumer once per pin, so a node feeding two pins of one gate is a
// stem); every other node lies in the FFR of its one consumer's stem.
// Inside an FFR a fault effect travels along a single path, so the local
// word is the fault-site difference ANDed with the path's sensitisation
// L(x), where L(stem) is all-ones and L(x) = (eval(c with x flipped) ^
// good[c]) & L(c) for x's one consumer c. Re-evaluating c (rather than
// applying controlling-value rules) keeps XOR, XNOR and BUF exact.
//
// Downstream of the stem the faulty machine differs from the good one only
// by the stem's flip, so a fault's detection word is its local word ANDed
// with obs(stem): the primary-output difference of one event-driven forward
// propagation of ~good[stem]. The propagation evaluates a gate once, in
// topological order after all of its fanins, so an output difference is
// read from final values only; a transient value on a reconvergent path is
// never a detection. L and obs are computed lazily along the live faults'
// paths and memoised per block, so each stem is propagated at most once per
// block however many faults its FFR holds, and tail blocks with a handful
// of live faults pay only for their paths.
//
// The simulator is serial: detected sets, first-detecting patterns and the
// fsim.* counters are a pure function of the netlist, faults and patterns.
#pragma once

#include <cstdint>
#include <vector>

#include "faults/fault.hpp"
#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace compsyn {

class FaultSimulator {
 public:
  FaultSimulator(const Netlist& nl, std::vector<StuckFault> faults);

  std::size_t total_faults() const { return faults_.size(); }
  std::size_t detected_count() const { return detected_total_; }
  std::size_t remaining() const { return faults_.size() - detected_total_; }

  /// Simulates one block of up to 64 patterns (pi_words[i] = 64 values of
  /// input i; only the low `num_patterns` bits count as applied patterns).
  /// Returns the indices (into faults()) of newly detected faults, in
  /// ascending order. `base_pattern` is the global index of bit 0, used to
  /// record each fault's first detecting pattern.
  std::vector<std::size_t> simulate_block(const std::vector<std::uint64_t>& pi_words,
                                          std::uint64_t base_pattern,
                                          unsigned num_patterns = 64);

  const std::vector<StuckFault>& faults() const { return faults_; }
  bool is_detected(std::size_t fault_index) const { return detected_[fault_index]; }
  /// First pattern that detected the fault (valid when is_detected).
  std::uint64_t detecting_pattern(std::size_t fault_index) const {
    return first_pattern_[fault_index];
  }

 private:
  /// Gate y evaluated over the good values with pin `pin` reading `v`.
  std::uint64_t eval_with_pin(NodeId y, std::size_t pin, std::uint64_t v);
  /// L(x): the patterns on which flipping x flips its stem (memoised).
  std::uint64_t local_observability(NodeId x);
  /// obs(s): the masked PO difference of flipping stem s (memoised).
  std::uint64_t stem_observability(NodeId s, std::uint64_t mask);

  const Netlist& nl_;
  std::vector<StuckFault> faults_;
  std::vector<char> detected_;
  std::vector<std::uint64_t> first_pattern_;
  std::size_t detected_total_ = 0;

  // Structure, fixed at construction.
  std::vector<NodeId> stem_of_;        // the stem whose FFR holds each node
  std::vector<NodeId> consumer_;       // the one consumer; kNoNode for stems
  std::vector<std::uint32_t> consumer_pin_;  // x's pin on consumer_[x]
  std::vector<std::uint32_t> topo_rank_;
  std::vector<NodeId> by_rank_;        // live nodes in topological order
  std::vector<char> is_po_;

  // Per-block state. fval_ mirrors good_ (plus a spare slot at index size()
  // that a substituted pin reads) except during one stem propagation.
  std::uint64_t block_ = 0;  // simulate_block calls so far; memo stamp
  std::vector<std::uint64_t> good_;
  std::vector<std::uint64_t> fval_;
  std::vector<std::uint64_t> local_;  // L(x), valid when local_stamp_ == block_
  std::vector<std::uint64_t> local_stamp_;
  std::vector<std::uint64_t> obs_;    // obs(s), valid when obs_stamp_ == block_
  std::vector<std::uint64_t> obs_stamp_;
  std::vector<NodeId> path_;          // L's walk towards a stem or a memo
  std::vector<NodeId> touched_;       // nodes to restore after a propagation
  std::vector<std::uint64_t> pending_;  // queued ranks of a propagation
  std::vector<NodeId> pin_fanins_;    // fanins with one pin substituted
  std::uint64_t events_ = 0;  // stem-propagation events this block
};

/// Table 6 experiment: applies random pattern blocks until all faults are
/// detected or `max_patterns` have been applied (the final block is partial
/// when max_patterns is not a multiple of 64). Deterministic given the rng.
struct SafExperimentResult {
  std::size_t total_faults = 0;
  std::size_t remaining = 0;
  std::uint64_t last_effective_pattern = 0;  // 1-based; 0 if none effective
  std::uint64_t patterns_applied = 0;
};

SafExperimentResult random_saf_experiment(const Netlist& nl, Rng& rng,
                                          std::uint64_t max_patterns,
                                          bool collapse = true);

}  // namespace compsyn
