// Gate-level combinational netlist: the substrate every other subsystem
// (path counting, resynthesis, fault simulation, ATPG, mapping) operates on.
//
// A Netlist is a DAG of nodes. Primary inputs are nodes of type Input;
// primary outputs are nodes carrying an output mark (a node may be both an
// internal stem and an output). Fanout branches are implicit: the branch of
// stem `u` feeding pin `p` of gate `v` is identified by the pair (v, p).
//
// Mutation model: resynthesis rewrites a node in place (redefine), so its
// fanout edges and output marks are preserved; nodes that become unreachable
// from the outputs are flagged dead by sweep() and physically removed only by
// compact(), which is the only operation that invalidates NodeIds.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace compsyn {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = 0xffffffffu;

/// Words per gate visit in Netlist::simulate_words: 16 words = 1,024
/// patterns. Chosen by measurement (DESIGN.md §17): narrower groups pay the
/// per-gate dispatch too often, and wider ones make a mid-size netlist's
/// node-major buffer outgrow the cache.
inline constexpr std::size_t kSimBlockWords = 16;

enum class GateType : std::uint8_t {
  Input,
  Const0,
  Const1,
  Buf,
  Not,
  And,
  Nand,
  Or,
  Nor,
  Xor,
  Xnor,
};

/// True for And/Nand/Or/Nor: gates with a controlling input value.
bool has_controlling_value(GateType t);
/// Controlling input value of the gate (0 for And/Nand, 1 for Or/Nor).
/// Precondition: has_controlling_value(t).
bool controlling_value(GateType t);
/// True if the gate inverts: Not, Nand, Nor, Xnor.
bool is_inverting(GateType t);
/// Output value given that some input has the controlling value.
inline bool controlled_output(GateType t) { return controlling_value(t) ^ is_inverting(t); }
/// Human-readable gate-type name ("AND", "NOR", ...).
const char* to_string(GateType t);

struct Node {
  GateType type = GateType::Input;
  bool is_output = false;
  bool dead = false;
  std::vector<NodeId> fanins;
  std::string name;  // optional; preserved through I/O round trips
};

class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  // -- construction -------------------------------------------------------
  NodeId add_input(std::string name = {});
  NodeId add_const(bool value, std::string name = {});
  /// Adds a gate whose fanins must already exist (keeps the DAG invariant).
  NodeId add_gate(GateType type, std::vector<NodeId> fanins, std::string name = {});
  void mark_output(NodeId n);

  // -- access --------------------------------------------------------------
  std::size_t size() const { return nodes_.size(); }
  const Node& node(NodeId n) const { return nodes_[n]; }
  const std::vector<NodeId>& inputs() const { return inputs_; }
  const std::vector<NodeId>& outputs() const { return outputs_; }
  bool is_dead(NodeId n) const { return nodes_[n].dead; }

  /// Number of live (non-dead) nodes, including inputs and constants.
  std::size_t live_count() const;

  /// Fanout lists, rebuilt lazily after mutations. Dead nodes have empty
  /// fanout lists and do not appear in any list.
  const std::vector<std::vector<NodeId>>& fanouts() const;

  /// Live nodes in topological order (fanins before fanouts). The reference
  /// stays valid until the next mutation.
  const std::vector<NodeId>& topo_order() const;

  /// Structural level of every live node (inputs at 0; Buf/Not count as a
  /// level). Dead nodes get 0.
  std::vector<std::uint32_t> levels() const;

  /// Number of gates (Buf/Not count 1) on the longest input-to-output path.
  std::uint32_t depth() const;

  // -- metrics -------------------------------------------------------------
  /// Equivalent 2-input gate count per the paper: a k-input gate adds k-1;
  /// Not/Buf add 0. Dead nodes are not counted.
  std::uint64_t equivalent_gate_count() const;
  /// Number of live gate nodes (everything except inputs/constants).
  std::uint64_t gate_count() const;

  // -- simulation ----------------------------------------------------------
  /// 64-pattern parallel simulation. pi_words[i] holds 64 values for
  /// inputs()[i]. Returns one word per node (dead nodes get 0).
  std::vector<std::uint64_t> simulate(const std::vector<std::uint64_t>& pi_words) const;

  /// As simulate(), writing into a caller-provided buffer of size() words,
  /// using a cached topological order. For inner loops (fault simulation).
  void simulate_into(const std::vector<std::uint64_t>& pi_words,
                     std::vector<std::uint64_t>& node_words) const;

  /// Block simulation for full sweeps over many patterns. The buffer is
  /// node-major: node n's 64-pattern words sit at values[n * stride + w].
  /// The caller writes the input rows; this evaluates every live gate over
  /// words [0, words), words <= stride, in topological order. Gates are
  /// visited once per group of kSimBlockWords words; a remainder shorter
  /// than a group goes word by word, so no word past `words` is touched.
  /// Rows of dead nodes are left as they are.
  void simulate_words(std::uint64_t* values, std::size_t stride,
                      std::size_t words) const;

  // -- mutation ------------------------------------------------------------
  /// Rewrites node n in place: fanout edges and output marks are kept.
  void redefine(NodeId n, GateType type, std::vector<NodeId> fanins);
  /// Replaces every occurrence of old_fanin in gate's fanin list.
  void replace_fanin(NodeId gate, NodeId old_fanin, NodeId new_fanin);

  /// Flags nodes unreachable from any output as dead (inputs stay live).
  /// Returns the number of newly dead nodes.
  std::size_t sweep();

  /// Constant folding + single-input gate reduction + buffer bypassing for
  /// non-output buffers, then sweep(). Returns true if anything changed.
  bool simplify();

  /// Rebuilds the netlist without dead nodes. out_map (if non-null) receives
  /// old-id -> new-id (kNoNode for removed nodes).
  Netlist compacted(std::vector<NodeId>* out_map = nullptr) const;

  /// Rebuilds a netlist from the parts a snapshot records: every node by id,
  /// dead ones and their fanins included, and the outputs in mark order (the
  /// inputs are the Input nodes in id order, as add_input makes them), so
  /// fanouts() and topo_order() come out as they were. Returns false and
  /// fills *error, leaving *this alone, when the parts are no netlist: an
  /// output out of range, or anything check() finds.
  bool assign_nodes(std::vector<Node> nodes, const std::vector<NodeId>& outputs,
                    std::string* error);

  /// Deep structural checks (fanin arity, DAG-ness, live invariants);
  /// returns an empty string when healthy, else a description.
  std::string check() const;

 private:
  void invalidate_caches() const;
  /// Live nodes in topological order into `order`; false, with *cycle_at (if
  /// non-null) a node on the cycle, when there is one.
  bool topo_sort(std::vector<NodeId>& order, NodeId* cycle_at) const;
  /// Evaluates every live gate over words [0, W) of each row.
  template <std::size_t W>
  void sweep_words(std::uint64_t* values, std::size_t stride) const;

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<NodeId> inputs_;
  std::vector<NodeId> outputs_;

  mutable bool fanouts_valid_ = false;
  mutable std::vector<std::vector<NodeId>> fanouts_;
  mutable bool topo_valid_ = false;
  mutable std::vector<NodeId> topo_;
};

/// Evaluates one gate over W consecutive 64-bit packed words. Values are
/// node-major: fanin f's words are read in place at values[f * stride + w],
/// w < W, and the result goes to out[0..W). The one word-parallel gate
/// switch behind simulation, fault propagation and cone functions; W is a
/// compile-time width so the inner loops unroll and vectorise.
template <std::size_t W>
inline void eval_gate_block(GateType t, std::span<const NodeId> fanins,
                            const std::uint64_t* values, std::size_t stride,
                            std::uint64_t* out) {
  // Fold the fanins into v from the fold's identity, then invert if the
  // gate inverts. Buf/Not fold their one fanin with OR.
  std::uint64_t v[W];
  const std::uint64_t identity =
      t == GateType::And || t == GateType::Nand ? ~0ull : 0ull;
  for (std::size_t w = 0; w < W; ++w) v[w] = identity;
  std::uint64_t flip = 0;
  switch (t) {
    case GateType::Input:
      assert(false && "inputs are not evaluated");
      return;
    case GateType::Const1:
      flip = ~0ull;
      [[fallthrough]];
    case GateType::Const0:
      break;
    case GateType::Nand:
      flip = ~0ull;
      [[fallthrough]];
    case GateType::And:
      for (NodeId f : fanins) {
        const std::uint64_t* in = values + f * stride;
        for (std::size_t w = 0; w < W; ++w) v[w] &= in[w];
      }
      break;
    case GateType::Not:
    case GateType::Nor:
      flip = ~0ull;
      [[fallthrough]];
    case GateType::Buf:
    case GateType::Or:
      for (NodeId f : fanins) {
        const std::uint64_t* in = values + f * stride;
        for (std::size_t w = 0; w < W; ++w) v[w] |= in[w];
      }
      break;
    case GateType::Xnor:
      flip = ~0ull;
      [[fallthrough]];
    case GateType::Xor:
      for (NodeId f : fanins) {
        const std::uint64_t* in = values + f * stride;
        for (std::size_t w = 0; w < W; ++w) v[w] ^= in[w];
      }
      break;
  }
  for (std::size_t w = 0; w < W; ++w) out[w] = v[w] ^ flip;
}

/// One gate over one word, fanin i's word read in place as
/// values[fanins[i]]: eval_gate_block at width 1, for the event-driven
/// users that re-evaluate single gates.
inline std::uint64_t eval_gate(GateType t, std::span<const NodeId> fanins,
                               const std::uint64_t* values) {
  std::uint64_t v = 0;
  eval_gate_block<1>(t, fanins, values, 1, &v);
  return v;
}

}  // namespace compsyn
