// Parallel-pattern single-fault-propagation (PPSFP) stuck-at fault
// simulator -- the FSIM [17] substrate used by the Table 6 experiment.
//
// Each call simulates up to 64 patterns at once: one fault-free pass, then
// for every still-undetected fault an event-driven forward propagation of
// the 64-bit difference word from the fault site; a fault is detected when
// a nonzero difference reaches a primary output.
//
// Faults are independent given the fault-free values, so a block fans the
// fault list out over the exec layer (exec/exec.hpp): the list is cut into
// fixed index chunks, every worker propagates its chunk's faults against
// private scratch, and detections are merged back in fault-index order.
// The chunk partition never depends on the job count, so detected sets,
// first-detecting patterns, and the fsim.* counters are byte-identical for
// --jobs=1 and --jobs=N.
#pragma once

#include <cstdint>
#include <queue>
#include <utility>
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
  /// Faulty values (a mirror of the good values for the current block,
  /// restored node by node after each fault) plus the event queue --
  /// everything one fault propagation touches besides the shared read-only
  /// good values. One per worker.
  struct Scratch {
    std::vector<std::uint64_t> fval;  // size() + 1: spare slot for a stuck pin
    std::uint64_t block = 0;          // block_ that fval mirrors
    std::vector<NodeId> touched;      // nodes to restore after this fault
    std::vector<NodeId> pin_fanins;   // branch-fault gate's fanins
    using HeapItem = std::pair<std::uint32_t, NodeId>;  // (topo rank, node)
    std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
    std::uint64_t events = 0;     // faulty-value propagation events
    std::uint64_t activated = 0;  // faults whose origin differed this block
  };

  /// Propagates one fault against the current good values; returns the
  /// masked PO difference word (nonzero = detected this block).
  std::uint64_t propagate_fault(const StuckFault& f, std::uint64_t mask,
                                Scratch& s) const;

  const Netlist& nl_;
  std::vector<StuckFault> faults_;
  std::vector<char> detected_;
  std::vector<std::uint64_t> first_pattern_;
  std::size_t detected_total_ = 0;

  std::vector<std::uint64_t> good_;   // fault-free values, shared read-only
  std::uint64_t block_ = 0;           // simulate_block calls so far
  std::vector<Scratch> scratch_;      // one slot per worker
  std::vector<std::uint32_t> topo_rank_;
  std::vector<char> is_po_;
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
