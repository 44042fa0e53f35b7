#include "atpg/podem.hpp"

#include <cassert>
#include <tuple>

#include "atpg/scoap.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "robust/robust.hpp"

namespace compsyn {
namespace {

constexpr std::uint8_t V0 = 0, V1 = 1, VX = 2;

std::uint8_t eval3(GateType t, const std::vector<std::uint8_t>& in) {
  switch (t) {
    case GateType::Const0: return V0;
    case GateType::Const1: return V1;
    case GateType::Buf: return in[0];
    case GateType::Not: return in[0] == VX ? VX : (in[0] ^ 1u);
    case GateType::And:
    case GateType::Nand: {
      bool any_x = false;
      for (std::uint8_t v : in) {
        if (v == V0) return t == GateType::Nand ? V1 : V0;
        any_x |= v == VX;
      }
      if (any_x) return VX;
      return t == GateType::Nand ? V0 : V1;
    }
    case GateType::Or:
    case GateType::Nor: {
      bool any_x = false;
      for (std::uint8_t v : in) {
        if (v == V1) return t == GateType::Nor ? V0 : V1;
        any_x |= v == VX;
      }
      if (any_x) return VX;
      return t == GateType::Nor ? V1 : V0;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      std::uint8_t acc = t == GateType::Xnor ? V1 : V0;
      for (std::uint8_t v : in) {
        if (v == VX) return VX;
        acc ^= v;
      }
      return acc;
    }
    case GateType::Input:
      break;
  }
  assert(false);
  return VX;
}

class Podem {
 public:
  Podem(const Netlist& nl, const StuckFault& fault, const AtpgOptions& opt)
      : nl_(nl), fault_(fault), opt_(opt), guide_(opt.guidance) {
    // Non-legacy policies read NodeId-indexed guidance tables; without them
    // the search degrades to the legacy order rather than reading nothing.
    if (guide_ != nullptr) {
      frontier_policy_ = opt.strategy.frontier;
      backtrace_policy_ = opt.strategy.backtrace;
    }
    pi_val_.assign(nl_.size(), VX);
    gv_.assign(nl_.size(), VX);
    fv_.assign(nl_.size(), VX);
    pi_index_.assign(nl_.size(), kNoNode);
    for (std::size_t i = 0; i < nl_.inputs().size(); ++i) {
      pi_index_[nl_.inputs()[i]] = static_cast<NodeId>(i);
    }
    // The faulty line's driver, whose good value activates the fault.
    site_ = fault.is_stem() ? fault.node
                            : nl_.node(fault.node).fanins[static_cast<std::size_t>(fault.pin)];
  }

  AtpgResult run() {
    AtpgResult res;
    imply();
    for (;;) {
      if (opt_.backtrack_limit != 0 && res.backtracks > opt_.backtrack_limit) {
        res.status = AtpgStatus::Aborted;
        return res;
      }
      // Cancellation winds the search down as an abort: the caller's
      // normal Aborted handling (SAT fallback, undecided marking) applies.
      if (robust::cancel_requested()) {
        res.status = AtpgStatus::Aborted;
        return res;
      }
      if (detected()) {
        res.status = AtpgStatus::Detected;
        res.test.assign(nl_.inputs().size(), false);
        for (std::size_t i = 0; i < nl_.inputs().size(); ++i) {
          res.test[i] = gv_[nl_.inputs()[i]] == V1;
        }
        if (opt_.record_cube) {
          // pi_val_ holds V0/V1/VX, which match kCube0/kCube1/kCubeX.
          res.cube.resize(nl_.inputs().size());
          for (std::size_t i = 0; i < nl_.inputs().size(); ++i) {
            res.cube[i] = pi_val_[nl_.inputs()[i]];
          }
        }
        return res;
      }
      NodeId obj_node = kNoNode;
      std::uint8_t obj_val = VX;
      const ObjectiveStatus st = objective(obj_node, obj_val);
      if (st == ObjectiveStatus::Fail) {
        if (!backtrack(res)) {
          res.status = AtpgStatus::Untestable;
          return res;
        }
        continue;
      }
      NodeId pi = kNoNode;
      std::uint8_t val = V0;
      if (st == ObjectiveStatus::Found) {
        std::tie(pi, val) = backtrace(obj_node, obj_val);
      } else {
        // Rare case: the frontier is alive but no good-machine X side input
        // exists (the X lives only in the faulty machine). Deciding any
        // unassigned input keeps the search complete.
        for (NodeId in : nl_.inputs()) {
          if (pi_val_[in] == VX) {
            pi = in;
            break;
          }
        }
        if (pi == kNoNode) {
          if (!backtrack(res)) {
            res.status = AtpgStatus::Untestable;
            return res;
          }
          continue;
        }
      }
      stack_.push_back({pi, val, false});
      ++res.decisions;
      pi_val_[pi] = val;
      imply();
    }
  }

 private:
  struct Decision {
    NodeId pi;
    std::uint8_t value;
    bool flipped;
  };

  void imply() {
    for (NodeId n : nl_.topo_order()) {
      const Node& nd = nl_.node(n);
      if (nd.type == GateType::Input) {
        gv_[n] = pi_val_[n];
        fv_[n] = pi_val_[n];
      } else {
        ins_g_.clear();
        ins_f_.clear();
        for (std::size_t p = 0; p < nd.fanins.size(); ++p) {
          ins_g_.push_back(gv_[nd.fanins[p]]);
          if (!fault_.is_stem() && n == fault_.node &&
              static_cast<int>(p) == fault_.pin) {
            ins_f_.push_back(fault_.value ? V1 : V0);
          } else {
            ins_f_.push_back(fv_[nd.fanins[p]]);
          }
        }
        gv_[n] = eval3(nd.type, ins_g_);
        fv_[n] = eval3(nd.type, ins_f_);
      }
      if (fault_.is_stem() && n == fault_.node) {
        fv_[n] = fault_.value ? V1 : V0;
      }
    }
  }

  bool has_d(NodeId n) const {
    return gv_[n] != VX && fv_[n] != VX && gv_[n] != fv_[n];
  }

  bool detected() const {
    for (NodeId o : nl_.outputs()) {
      if (has_d(o)) return true;
    }
    return false;
  }

  enum class ObjectiveStatus { Fail, Found, NoSideInput };

  /// Chooses the next objective; Fail means the current assignment cannot
  /// lead to a test (conflict / empty frontier / no X-path).
  ObjectiveStatus objective(NodeId& node, std::uint8_t& value) {
    const std::uint8_t stuck = fault_.value ? V1 : V0;
    if (gv_[site_] == stuck) return ObjectiveStatus::Fail;
    if (gv_[site_] == VX) {
      node = site_;
      value = stuck ^ 1u;
      return ObjectiveStatus::Found;
    }
    // Fault activated; collect the full D-frontier in topological order.
    for (NodeId n : nl_.topo_order()) {
      const Node& nd = nl_.node(n);
      if (nd.type == GateType::Input || nd.type == GateType::Const0 ||
          nd.type == GateType::Const1) {
        continue;
      }
      if (gv_[n] != VX && fv_[n] != VX) continue;  // past or dead
      bool d_in = false;
      for (NodeId f : nd.fanins) d_in |= has_d(f);
      if (!fault_.is_stem() && n == fault_.node) {
        // The faulty pin itself carries a D when the driver is at !stuck.
        d_in |= gv_[site_] != VX && gv_[site_] != stuck;
      }
      if (!d_in) continue;
      frontier_.push_back(n);
    }
    if (frontier_.empty()) {
      return ObjectiveStatus::Fail;
    }
    // X-path check: some frontier gate must reach an output through
    // X-valued nodes.
    if (!x_path_exists()) {
      frontier_.clear();
      return ObjectiveStatus::Fail;
    }
    // Objective: set an undetermined side input of a frontier gate to
    // non-controlling. The policy only ranks the gates the legacy scan
    // iterated (ties keep topological order; Legacy keys by position, so
    // the first eligible gate wins exactly as in the seed engine).
    bool found = false;
    std::uint64_t best_key = 0;
    for (std::size_t i = 0; i < frontier_.size(); ++i) {
      const NodeId n = frontier_[i];
      const Node& nd = nl_.node(n);
      const std::uint8_t want =
          has_controlling_value(nd.type)
              ? static_cast<std::uint8_t>(!controlling_value(nd.type))
              : V0;
      const NodeId side = pick_side_input(nd, want);
      if (side == kNoNode) continue;
      std::uint64_t key = i;
      switch (frontier_policy_) {
        case FrontierPolicy::Legacy: break;
        case FrontierPolicy::Level: key = guide_->out_dist[n]; break;
        case FrontierPolicy::Scoap: key = guide_->scoap.co[n]; break;
      }
      if (!found || key < best_key) {
        found = true;
        best_key = key;
        node = side;
        value = want;
      }
      if (frontier_policy_ == FrontierPolicy::Legacy) break;
    }
    frontier_.clear();
    return found ? ObjectiveStatus::Found : ObjectiveStatus::NoSideInput;
  }

  /// The gate's side input to target, among good-machine X fanins: the
  /// first (Legacy), the shallowest (Level), or the cheapest to drive to
  /// `want` (Scoap). kNoNode when no good-machine X fanin exists.
  NodeId pick_side_input(const Node& nd, std::uint8_t want) const {
    NodeId best = kNoNode;
    std::uint64_t best_key = 0;
    for (std::size_t p = 0; p < nd.fanins.size(); ++p) {
      const NodeId f = nd.fanins[p];
      if (gv_[f] != VX) continue;
      if (frontier_policy_ == FrontierPolicy::Legacy) return f;
      const std::uint64_t key = frontier_policy_ == FrontierPolicy::Level
                                    ? guide_->level[f]
                                    : guide_->scoap.cc(f, want == V1);
      if (best == kNoNode || key < best_key) {
        best = f;
        best_key = key;
      }
    }
    return best;
  }

  bool x_path_exists() {
    visited_.assign(nl_.size(), 0);
    std::vector<NodeId> stack = frontier_;
    for (NodeId n : stack) visited_[n] = 1;
    const auto& fanouts = nl_.fanouts();
    while (!stack.empty()) {
      const NodeId n = stack.back();
      stack.pop_back();
      if (nl_.node(n).is_output) return true;
      for (NodeId y : fanouts[n]) {
        if (visited_[y]) continue;
        if (gv_[y] != VX && fv_[y] != VX) continue;
        visited_[y] = 1;
        stack.push_back(y);
      }
    }
    return false;
  }

  std::pair<NodeId, std::uint8_t> backtrace(NodeId node, std::uint8_t value) {
    while (nl_.node(node).type != GateType::Input) {
      const Node& nd = nl_.node(node);
      if (is_inverting(nd.type)) value ^= 1u;
      // `value` is now the value wanted on the chosen fanin. The policies
      // rank the same X fanins the legacy scan iterated -- the admissible
      // set is unchanged, only the descent order differs.
      const NodeId next = pick_backtrace_fanin(nd, value);
      assert(next != kNoNode && "an X output must have an X input");
      node = next;
    }
    return {node, value};
  }

  NodeId pick_backtrace_fanin(const Node& nd, std::uint8_t value) const {
    NodeId best = kNoNode;
    std::uint64_t best_key = 0;
    // Classic SCOAP backtrace: when the wanted fanin value is the gate's
    // controlling value one fanin suffices -- chase the EASIEST; when it is
    // non-controlling every fanin must eventually comply -- chase the
    // HARDEST first so infeasible branches fail early. Gates without a
    // controlling value (XOR family) take the easiest fanin.
    const bool hardest =
        backtrace_policy_ == BacktracePolicy::Scoap &&
        has_controlling_value(nd.type) &&
        static_cast<bool>(value) != controlling_value(nd.type);
    for (NodeId f : nd.fanins) {
      if (gv_[f] != VX) continue;
      if (backtrace_policy_ == BacktracePolicy::Legacy) return f;
      std::uint64_t key = backtrace_policy_ == BacktracePolicy::Level
                              ? guide_->level[f]
                              : guide_->scoap.cc(f, value == V1);
      if (hardest) key = ~key;  // max-cost wins, ties still first-fanin
      if (best == kNoNode || key < best_key) {
        best = f;
        best_key = key;
      }
    }
    return best;
  }

  bool backtrack(AtpgResult& res) {
    while (!stack_.empty()) {
      Decision& d = stack_.back();
      if (!d.flipped) {
        ++res.backtracks;
        d.flipped = true;
        d.value ^= 1u;
        pi_val_[d.pi] = d.value;
        imply();
        return true;
      }
      pi_val_[d.pi] = VX;
      stack_.pop_back();
    }
    imply();
    return false;
  }

  const Netlist& nl_;
  const StuckFault& fault_;
  const AtpgOptions& opt_;
  const AtpgGuidance* guide_ = nullptr;
  FrontierPolicy frontier_policy_ = FrontierPolicy::Legacy;
  BacktracePolicy backtrace_policy_ = BacktracePolicy::Legacy;
  NodeId site_ = kNoNode;
  std::vector<std::uint8_t> pi_val_, gv_, fv_;
  std::vector<NodeId> pi_index_;
  std::vector<Decision> stack_;
  std::vector<NodeId> frontier_;
  std::vector<char> visited_;
  std::vector<std::uint8_t> ins_g_, ins_f_;
};

}  // namespace

AtpgResult run_podem(const Netlist& nl, const StuckFault& fault,
                     const AtpgOptions& opt) {
  const Span sp("atpg.podem");
  Podem engine(nl, fault, opt);
  AtpgResult res = engine.run();
  // One budget tick per call plus one per backtrack — the same unit
  // opt.backtrack_limit bounds per call.
  robust::charge(1 + res.backtracks);
  // Batched per call: one counter update per fault, nothing in the search.
  Counters::incr("atpg.calls");
  Counters::incr("atpg.decisions", res.decisions);
  Counters::incr("atpg.backtracks", res.backtracks);
  switch (res.status) {
    case AtpgStatus::Detected: Counters::incr("atpg.detected"); break;
    case AtpgStatus::Untestable: Counters::incr("atpg.redundancy_proofs"); break;
    case AtpgStatus::Aborted: Counters::incr("atpg.aborts"); break;
  }
  return res;
}

AtpgSummary run_podem_all(const Netlist& nl, const std::vector<StuckFault>& faults,
                          const AtpgOptions& opt) {
  AtpgSummary s;
  s.total = faults.size();
  for (const StuckFault& f : faults) {
    switch (run_podem(nl, f, opt).status) {
      case AtpgStatus::Detected: ++s.detected; break;
      case AtpgStatus::Untestable: ++s.untestable; break;
      case AtpgStatus::Aborted: ++s.aborted; break;
    }
  }
  return s;
}

}  // namespace compsyn
