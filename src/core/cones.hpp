// Candidate-subcircuit (cone) enumeration per Section 4.1, as a cut
// database.
//
// The paper grows a cone from the single gate driving line g by repeatedly
// absorbing a leaf's driver gate, keeping at most K inputs; constants are
// absorbed for free (they are not real inputs). Every cone that process can
// reach is determined by its leaf set: its interior is everything reachable
// from g backwards without passing through a leaf. So the cones of g are
// exactly the K-feasible cuts of g whose leaf set is the fanin set of that
// reach-set interior, and CutDatabase enumerates them bottom-up, once per
// netlist state, instead of growing each root top-down:
//
//  * In topological order, each gate's cuts are merged from its fanins'
//    cuts one fanin at a time (Pan & Lin, FPGA 1998): sorted leaf arrays,
//    a 64-bit leaf-signature prefilter, merges above K leaves dropped, each
//    partial list deduplicated by leaf set.
//  * A merge in which a leaf of one side lies inside the other side's
//    interior is a pseudo-cut -- that leaf cuts the other side's interior
//    short, so the leaf set is not the fanin set of any interior -- and is
//    rejected (interior-signature prefilter, exact reach check).
//  * K is at most kMaxLeaves, and a node keeps at most kMaxCuts cuts:
//    merging stops once a partial list is full, so the first kMaxCuts in
//    build order survive. The bound keeps a pass's memory and time linear
//    in the netlist, as the top-down grower's cap of 2000 cones per root
//    did. It never binds at K <= 7 on the synthetic suites (at most 345
//    cones per node at K = 6 and 1,147 at K = 7) and binds at 0.3-2% of
//    the nodes at K = 8.
//  * At K <= 6 each cut carries its function as one 64-bit word, composed
//    from the fanins' cut functions by the gate's operator (as DAG-aware
//    rewriting does, Mishchenko, Chatterjee & Brayton, DAC 2006), so no cone
//    is simulated.
//
// RootCones lists one root's cones in the canonical scoring order --
// interior size, then leaf list -- with their interiors.
#pragma once

#include <cstdint>
#include <span>
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
  unsigned max_leaves = 6;  // the paper's K (5 or 6 in the experiments)
};

/// One cut of a node in a CutDatabase.
struct Cut {
  // Signatures: bit (id mod 64) set for each leaf, and for each interior
  // gate. Disjoint signatures prove disjoint sets.
  std::uint64_t leaf_sig = 0;
  std::uint64_t interior_sig = 0;
  // At K <= 6: the node's function over the leaves in TruthTable order
  // (leaf i is variable i, minterm bit n-1-i), as a 6-variable word that
  // does not depend on its variables n..5. Unused above K = 6.
  std::uint64_t function = 0;
  std::uint32_t leaf_off = 0;  // leaves in the database's pool
  std::uint32_t num_leaves = 0;
};

/// The K-feasible cuts of every node of one netlist state, at most kMaxCuts
/// cones per node. A node's list
/// holds its trivial cut {n} first (inputs and gates; a constant has the
/// empty cut instead), then the cones of a gate. Node ids created after the
/// build have no cuts.
class CutDatabase {
 public:
  /// Largest K a database accepts. Cut counts grow about 3x per unit of K
  /// (syn1000: 29k cuts at K = 6, 193k at 8, 521k at 9), and no flow is
  /// measured above 8.
  static constexpr unsigned kMaxLeaves = 8;
  /// Largest K at which cuts carry their function word.
  static constexpr unsigned kFunctionLeaves = 6;
  /// Most cones a node keeps (see the header comment).
  static constexpr std::size_t kMaxCuts = 2000;

  /// Cuts of every live node of `nl`; max_leaves <= kMaxLeaves. A
  /// cancellation poll point: throws robust::CancelledError between nodes
  /// once a cancel is pending.
  CutDatabase(const Netlist& nl, unsigned max_leaves);
  /// Cuts of the transitive fanin of `root` only (a live gate).
  CutDatabase(const Netlist& nl, unsigned max_leaves, NodeId root);

  bool has_functions() const { return k_ <= kFunctionLeaves; }

  /// The cones of gate `root`: its cuts other than {root}, in build order.
  std::span<const Cut> cones(NodeId root) const;
  std::span<const NodeId> leaves(const Cut& c) const {
    return {leaf_pool_.data() + c.leaf_off, c.num_leaves};
  }
  /// The cut's function as a truth table over its leaves (has_functions()).
  TruthTable function(const Cut& c) const;

 private:
  void build(const Netlist& nl, std::span<const NodeId> topo);
  void build_gate(const Netlist& nl, NodeId g);
  std::size_t find_slot(std::uint64_t h, const NodeId* leaves, unsigned n) const;
  bool reaches(const Netlist& nl, std::span<const NodeId> roots,
               std::span<const NodeId> stop, std::span<const NodeId> targets,
               std::uint64_t targets_sig);

  unsigned k_;
  std::vector<Cut> cuts_;
  std::vector<NodeId> leaf_pool_;
  std::vector<std::uint32_t> begin_, end_;  // node -> its cuts in cuts_
  // Build scratch: partial cuts (over the fanins merged so far, with the
  // gate's operator folded over their functions), dedupe table, reach-check
  // marks.
  std::vector<Cut> cur_, next_;
  std::vector<NodeId> cur_pool_, next_pool_;
  std::vector<std::uint32_t> slots_;
  std::vector<std::pair<NodeId, bool>> fanins_;  // distinct, odd multiplicity
  std::vector<NodeId> roots_;                    // gate fanins merged so far
  std::vector<std::uint32_t> stop_mark_, seen_mark_;
  std::uint32_t epoch_ = 0;
  std::vector<NodeId> stack_;
};

/// One root's cones in the canonical order, with interiors: reusable
/// scratch, valid until the next collect().
class RootCones {
 public:
  struct Entry {
    const Cut* cut;
    std::span<const NodeId> leaves;
    std::span<const NodeId> interior;  // topological order, root last
  };

  /// Lists the cones of `root` in `db`, ordered by interior size, then leaf
  /// list. `nl` must be the netlist state `db` was built on, or one that
  /// differs from it only outside root's transitive fanin; both must
  /// outlive the listing.
  void collect(const Netlist& nl, const CutDatabase& db, NodeId root);

  NodeId root() const { return root_; }
  std::size_t size() const { return entries_.size(); }
  const Entry& operator[](std::size_t i) const { return entries_[i]; }
  /// Entry i as a Cone (interior sorted ascending).
  Cone cone(std::size_t i) const;
  /// True when every entry's cut carries its function word (K <= 6).
  bool has_functions() const { return db_->has_functions(); }
  /// Entry i's function over its leaves: the cut's word at K <= 6, a
  /// cone_function simulation above.
  TruthTable function(std::size_t i) const;

 private:
  const Netlist* nl_ = nullptr;
  const CutDatabase* db_ = nullptr;
  NodeId root_ = kNoNode;
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> offsets_;  // interior of entry i in pool_
  std::vector<NodeId> pool_;
  std::vector<std::uint32_t> stop_mark_, seen_mark_;
  std::uint32_t epoch_ = 0;
  std::vector<std::pair<NodeId, std::uint32_t>> stack_;
};

/// All distinct cones rooted at `root` (a live gate node), in the canonical
/// order: a single-root CutDatabase listed by RootCones.
std::vector<Cone> enumerate_cones(const Netlist& nl, NodeId root,
                                  const ConeOptions& opt = {});

/// The function the cone computes at its root in terms of its leaves, with
/// leaf i = variable i (MSB-first per the TruthTable convention). Evaluates
/// only the interior, in a cone-local topological order; serves cones wider
/// than CutDatabase::kFunctionLeaves.
TruthTable cone_function(const Netlist& nl, const Cone& cone);

/// Equivalent-2-input gate count of the interior gates that would become
/// removable if the cone were replaced: root's gate plus every interior gate
/// whose fanout goes, transitively, only to removable cone gates. Interior
/// gates with external fanout (shared logic) are excluded, as in Section 4.1.
/// `interior` must list every gate after its interior fanins (RootCones'
/// order). `removable` receives the removable gates, sorted ascending.
std::uint64_t removable_gate_count(const Netlist& nl, NodeId root,
                                   std::span<const NodeId> interior,
                                   std::vector<NodeId>* removable = nullptr);

}  // namespace compsyn
