// Candidate-subcircuit (cone) enumeration per Section 4.1: starting from the
// single gate driving line g, repeatedly absorb a leaf's driver gate into the
// subcircuit, keeping at most K inputs. Constants are absorbed for free (they
// are not real inputs). The process is exhaustive up to `max_cones` distinct
// subcircuits per root.
//
// Enumeration is breadth-first and incremental: a grown cone's interior is
// its parent's plus one gate, and its leaves are the parent's minus that
// gate plus the gate's new fanins, so no cone is recomputed from scratch.
// Interiors are deduplicated through a hashed set with an exact confirm;
// both this and cone_function work in per-thread scratch buffers, so once
// those have grown the only allocations are the returned cones and tables.
#pragma once

#include <cstdint>
#include <vector>

#include "core/truth_table.hpp"
#include "netlist/netlist.hpp"

namespace compsyn {

struct Cone {
  NodeId root = kNoNode;
  std::vector<NodeId> leaves;    // external inputs I', sorted ascending
  std::vector<NodeId> interior;  // gates inside the cone, incl. root, sorted
};

struct ConeOptions {
  unsigned max_leaves = 6;      // the paper's K (5 or 6 in the experiments)
  std::size_t max_cones = 2000; // safety cap on the enumeration per root
  // Extension beyond the paper: cones with up to max_leaves + expand_slack
  // inputs keep expanding (they can shrink back under K when reconvergent
  // fanout is absorbed) but only cones within max_leaves are emitted as
  // candidates. expand_slack = 0 reproduces the paper's enumeration exactly.
  unsigned expand_slack = 3;
};

/// All distinct cones rooted at `root` (root must be a live gate node).
std::vector<Cone> enumerate_cones(const Netlist& nl, NodeId root,
                                  const ConeOptions& opt = {});

/// The function the cone computes at its root in terms of its leaves, with
/// leaf i = variable i (MSB-first per the TruthTable convention). Evaluates
/// only the interior, in a cone-local topological order.
TruthTable cone_function(const Netlist& nl, const Cone& cone);

/// Equivalent-2-input gate count of the interior gates that would become
/// removable if the cone were replaced: root's gate plus every interior gate
/// whose fanout goes, transitively, only to removable cone gates. Interior
/// gates with external fanout (shared logic) are excluded, as in Section 4.1.
std::uint64_t removable_gate_count(const Netlist& nl, const Cone& cone,
                                   std::vector<NodeId>* removable = nullptr);

}  // namespace compsyn
