#include "atpg/podem.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <span>
#include <tuple>

#include "atpg/scoap.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "robust/robust.hpp"

namespace compsyn {
namespace {

constexpr std::uint8_t V0 = 0, V1 = 1, VX = 2;

using Rank = std::uint32_t;  // position in the netlist's topological order
constexpr Rank kNoRank = 0xffffffffu;

/// Three-valued gate evaluation, reading fanin values in place:
/// fanin i's value is v[fi[i]].
std::uint8_t eval3(GateType t, std::span<const Rank> fi, const std::uint8_t* v) {
  switch (t) {
    case GateType::Const0: return V0;
    case GateType::Const1: return V1;
    case GateType::Buf: return v[fi[0]];
    case GateType::Not: return v[fi[0]] == VX ? VX : (v[fi[0]] ^ 1u);
    case GateType::And:
    case GateType::Nand: {
      bool any_x = false;
      for (Rank f : fi) {
        if (v[f] == V0) return t == GateType::Nand ? V1 : V0;
        any_x |= v[f] == VX;
      }
      if (any_x) return VX;
      return t == GateType::Nand ? V0 : V1;
    }
    case GateType::Or:
    case GateType::Nor: {
      bool any_x = false;
      for (Rank f : fi) {
        if (v[f] == V1) return t == GateType::Nor ? V0 : V1;
        any_x |= v[f] == VX;
      }
      if (any_x) return VX;
      return t == GateType::Nor ? V1 : V0;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      std::uint8_t acc = t == GateType::Xnor ? V1 : V0;
      for (Rank f : fi) {
        if (v[f] == VX) return VX;
        acc ^= v[f];
      }
      return acc;
    }
    case GateType::Input:
      break;
  }
  assert(false);
  return VX;
}

/// PODEM over a flat, rank-indexed view of the netlist (DESIGN.md §17).
/// Every value array is indexed by topological rank, fanins and fanouts are
/// CSR lists of ranks, and implication is a dirty-rank sweep: only nodes
/// downstream of a changed primary input are re-evaluated, in ascending
/// rank, so each node sees final fanin values exactly as in a full
/// re-simulation. Values are a pure function of the PI assignment, so the
/// search is decision-for-decision identical to a full sweep per decision.
class Podem {
 public:
  Podem(const Netlist& nl, const StuckFault& fault, const AtpgOptions& opt)
      : nl_(nl), opt_(opt), guide_(opt.guidance), node_(nl.topo_order()) {
    // Non-legacy policies read NodeId-indexed guidance tables; without them
    // the search degrades to the legacy order rather than reading nothing.
    if (guide_ != nullptr) {
      frontier_policy_ = opt.strategy.frontier;
      backtrace_policy_ = opt.strategy.backtrace;
    }
    build_view();
    stuck_ = fault.value ? V1 : V0;
    const Rank at = rank_[fault.node];
    if (fault.is_stem()) {
      stem_ = at;
      site_ = at;
    } else {
      // The faulty machine reads the stuck constant on the faulty pin: the
      // fault gate's faulty fanin list points that pin at the spare slot
      // fv_[n], which holds the constant.
      fault_gate_ = at;
      const auto fi = fanins(at);
      fault_fanins_.assign(fi.begin(), fi.end());
      site_ = fault_fanins_[static_cast<std::size_t>(fault.pin)];
      fault_fanins_[static_cast<std::size_t>(fault.pin)] =
          static_cast<Rank>(node_.size());
      fv_.back() = stuck_;
    }
    build_fault_cone(at);
  }

  AtpgResult run() {
    AtpgResult res;
    // The first implication is the same sweep with every rank dirty.
    for (Rank r = 0; r < node_.size(); ++r) mark(r);
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
        res.test.assign(pi_rank_.size(), false);
        for (std::size_t i = 0; i < pi_rank_.size(); ++i) {
          res.test[i] = gv_[pi_rank_[i]] == V1;
        }
        if (opt_.record_cube) {
          // pi_val_ holds V0/V1/VX, which match kCube0/kCube1/kCubeX.
          res.cube.resize(pi_rank_.size());
          for (std::size_t i = 0; i < pi_rank_.size(); ++i) {
            res.cube[i] = pi_val_[pi_rank_[i]];
          }
        }
        return res;
      }
      Rank obj_node = kNoRank;
      std::uint8_t obj_val = VX;
      const ObjectiveStatus st = objective(obj_node, obj_val);
      if (st == ObjectiveStatus::Fail) {
        if (!backtrack(res)) {
          res.status = AtpgStatus::Untestable;
          return res;
        }
        continue;
      }
      Rank pi = kNoRank;
      std::uint8_t val = V0;
      if (st == ObjectiveStatus::Found) {
        std::tie(pi, val) = backtrace(obj_node, obj_val);
      } else {
        // Rare case: the frontier is alive but no good-machine X side input
        // exists (the X lives only in the faulty machine). Deciding any
        // unassigned input keeps the search complete.
        for (Rank in : pi_rank_) {
          if (pi_val_[in] == VX) {
            pi = in;
            break;
          }
        }
        if (pi == kNoRank) {
          if (!backtrack(res)) {
            res.status = AtpgStatus::Untestable;
            return res;
          }
          continue;
        }
      }
      stack_.push_back({pi, val, false});
      ++res.decisions;
      assign(pi, val);
      imply();
    }
  }

 private:
  struct Decision {
    Rank pi;
    std::uint8_t value;
    bool flipped;
  };

  std::span<const Rank> fanins(Rank r) const {
    return {fi_.data() + fi_off_[r], fi_.data() + fi_off_[r + 1]};
  }
  std::span<const Rank> fanouts(Rank r) const {
    return {fo_.data() + fo_off_[r], fo_.data() + fo_off_[r + 1]};
  }

  /// Rank-indexed CSR copy of the netlist: types, fanins, fanouts, output
  /// marks, plus the value arrays sized to match.
  void build_view() {
    const std::size_t n = node_.size();
    rank_.assign(nl_.size(), kNoRank);
    for (Rank r = 0; r < n; ++r) rank_[node_[r]] = r;
    type_.resize(n);
    is_out_.assign(n, 0);
    fi_off_.assign(n + 1, 0);
    fo_off_.assign(n + 1, 0);
    fi_.clear();
    for (Rank r = 0; r < n; ++r) {
      const Node& nd = nl_.node(node_[r]);
      type_[r] = nd.type;
      is_out_[r] = nd.is_output;
      for (NodeId f : nd.fanins) {
        fi_.push_back(rank_[f]);
        ++fo_off_[rank_[f] + 1];
      }
      fi_off_[r + 1] = static_cast<std::uint32_t>(fi_.size());
    }
    for (Rank r = 0; r < n; ++r) fo_off_[r + 1] += fo_off_[r];
    fo_.resize(fi_.size());
    std::vector<std::uint32_t> fill(fo_off_.begin(), fo_off_.end() - 1);
    for (Rank r = 0; r < n; ++r) {
      for (Rank f : fanins(r)) fo_[fill[f]++] = r;
    }
    pi_rank_.clear();
    for (NodeId in : nl_.inputs()) pi_rank_.push_back(rank_[in]);
    pi_val_.assign(n, VX);
    gv_.assign(n, VX);
    fv_.assign(n + 1, VX);  // + the faulty-pin constant slot
    dirty_.assign((n + 63) / 64, 0);
    dirty_lo_ = dirty_.size();
    dirty_hi_ = 0;
    visit_.assign(n, 0);
  }

  /// The fault's fanout cone in ascending rank: the only nodes whose good
  /// and faulty values can differ, hence the only D-frontier candidates.
  /// Scanning it in rank order yields the frontier in topological order.
  void build_fault_cone(Rank root) {
    ++epoch_;
    visit_[root] = epoch_;
    walk_.assign(1, root);
    while (!walk_.empty()) {
      const Rank r = walk_.back();
      walk_.pop_back();
      cone_.push_back(r);
      if (is_out_[r]) cone_outputs_.push_back(r);
      for (Rank y : fanouts(r)) {
        if (visit_[y] == epoch_) continue;
        visit_[y] = epoch_;
        walk_.push_back(y);
      }
    }
    std::sort(cone_.begin(), cone_.end());
  }

  void mark(Rank r) {
    dirty_[r >> 6] |= 1ull << (r & 63);
    dirty_lo_ = std::min<std::size_t>(dirty_lo_, r >> 6);
    dirty_hi_ = std::max<std::size_t>(dirty_hi_, (r >> 6) + 1);
  }

  void assign(Rank pi, std::uint8_t value) {
    pi_val_[pi] = value;
    mark(pi);
  }

  /// Re-evaluates every dirty rank in ascending order. A node whose
  /// (good, faulty) pair changes dirties its fanouts, which all sit at
  /// higher ranks, so one forward pass over the dirty words settles the
  /// circuit.
  void imply() {
    for (std::size_t w = dirty_lo_; w < dirty_hi_; ++w) {
      while (dirty_[w] != 0) {
        const Rank r = static_cast<Rank>(w * 64 + std::countr_zero(dirty_[w]));
        dirty_[w] &= dirty_[w] - 1;
        evaluate(r);
      }
    }
    dirty_lo_ = dirty_.size();
    dirty_hi_ = 0;
  }

  void evaluate(Rank r) {
    std::uint8_t g, f;
    if (type_[r] == GateType::Input) {
      g = f = pi_val_[r];
    } else {
      g = eval3(type_[r], fanins(r), gv_.data());
      f = eval3(type_[r], r == fault_gate_ ? fault_fanins_ : fanins(r), fv_.data());
    }
    if (r == stem_) f = stuck_;
    if (g == gv_[r] && f == fv_[r]) return;
    gv_[r] = g;
    fv_[r] = f;
    for (Rank y : fanouts(r)) mark(y);
  }

  bool has_d(Rank r) const {
    return gv_[r] != VX && fv_[r] != VX && gv_[r] != fv_[r];
  }

  bool detected() const {
    for (Rank o : cone_outputs_) {
      if (has_d(o)) return true;
    }
    return false;
  }

  enum class ObjectiveStatus { Fail, Found, NoSideInput };

  /// Chooses the next objective; Fail means the current assignment cannot
  /// lead to a test (conflict / empty frontier / no X-path).
  ObjectiveStatus objective(Rank& node, std::uint8_t& value) {
    if (gv_[site_] == stuck_) return ObjectiveStatus::Fail;
    if (gv_[site_] == VX) {
      node = site_;
      value = stuck_ ^ 1u;
      return ObjectiveStatus::Found;
    }
    // Fault activated; collect the full D-frontier in topological order.
    for (Rank r : cone_) {
      const GateType t = type_[r];
      if (t == GateType::Input || t == GateType::Const0 || t == GateType::Const1) {
        continue;
      }
      if (gv_[r] != VX && fv_[r] != VX) continue;  // past or dead
      bool d_in = false;
      for (Rank f : fanins(r)) d_in |= has_d(f);
      if (r == fault_gate_) {
        // The faulty pin itself carries a D when the driver is at !stuck.
        d_in |= gv_[site_] != VX && gv_[site_] != stuck_;
      }
      if (!d_in) continue;
      frontier_.push_back(r);
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
      const Rank r = frontier_[i];
      const GateType t = type_[r];
      const std::uint8_t want =
          has_controlling_value(t)
              ? static_cast<std::uint8_t>(!controlling_value(t))
              : V0;
      const Rank side = pick_side_input(r, want);
      if (side == kNoRank) continue;
      const std::uint64_t key = frontier_policy_ == FrontierPolicy::Legacy
                                    ? i
                                    : guide_->scoap.co[node_[r]];
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
  /// first (Legacy) or the cheapest to drive to `want` (Scoap). kNoRank
  /// when no good-machine X fanin exists.
  Rank pick_side_input(Rank gate, std::uint8_t want) const {
    Rank best = kNoRank;
    std::uint64_t best_key = 0;
    for (Rank f : fanins(gate)) {
      if (gv_[f] != VX) continue;
      if (frontier_policy_ == FrontierPolicy::Legacy) return f;
      const std::uint64_t key = guide_->scoap.cc(node_[f], want == V1);
      if (best == kNoRank || key < best_key) {
        best = f;
        best_key = key;
      }
    }
    return best;
  }

  /// Whether some frontier gate reaches an output through nodes that are X
  /// in either machine. Reachable nodes stay inside the fault cone.
  bool x_path_exists() {
    if (++epoch_ == 0) {  // wrapped: forget every stale stamp
      std::fill(visit_.begin(), visit_.end(), 0);
      epoch_ = 1;
    }
    walk_.clear();
    for (Rank root : frontier_) {
      if (visit_[root] == epoch_) continue;
      visit_[root] = epoch_;
      walk_.push_back(root);
      while (!walk_.empty()) {
        const Rank r = walk_.back();
        walk_.pop_back();
        if (is_out_[r]) return true;
        for (Rank y : fanouts(r)) {
          if (visit_[y] == epoch_) continue;
          if (gv_[y] != VX && fv_[y] != VX) continue;
          visit_[y] = epoch_;
          walk_.push_back(y);
        }
      }
    }
    return false;
  }

  std::pair<Rank, std::uint8_t> backtrace(Rank node, std::uint8_t value) {
    while (type_[node] != GateType::Input) {
      if (is_inverting(type_[node])) value ^= 1u;
      // `value` is now the value wanted on the chosen fanin. The policies
      // rank the same X fanins the legacy scan iterated -- the admissible
      // set is unchanged, only the descent order differs.
      const Rank next = pick_backtrace_fanin(node, value);
      assert(next != kNoRank && "an X output must have an X input");
      node = next;
    }
    return {node, value};
  }

  Rank pick_backtrace_fanin(Rank gate, std::uint8_t value) const {
    Rank best = kNoRank;
    std::uint64_t best_key = 0;
    const GateType t = type_[gate];
    // Classic SCOAP backtrace: when the wanted fanin value is the gate's
    // controlling value one fanin suffices -- chase the EASIEST; when it is
    // non-controlling every fanin must eventually comply -- chase the
    // HARDEST first so infeasible branches fail early. Gates without a
    // controlling value (XOR family) take the easiest fanin.
    const bool hardest =
        backtrace_policy_ == BacktracePolicy::Scoap &&
        has_controlling_value(t) &&
        static_cast<bool>(value) != controlling_value(t);
    for (Rank f : fanins(gate)) {
      if (gv_[f] != VX) continue;
      if (backtrace_policy_ == BacktracePolicy::Legacy) return f;
      std::uint64_t key = guide_->scoap.cc(node_[f], value == V1);
      if (hardest) key = ~key;  // max-cost wins, ties still first-fanin
      if (best == kNoRank || key < best_key) {
        best = f;
        best_key = key;
      }
    }
    return best;
  }

  /// Flips the deepest unflipped decision, un-assigning the flipped ones
  /// above it; false when the decision tree is exhausted (the values are
  /// then left stale: the search is over).
  bool backtrack(AtpgResult& res) {
    while (!stack_.empty()) {
      Decision& d = stack_.back();
      if (!d.flipped) {
        ++res.backtracks;
        d.flipped = true;
        d.value ^= 1u;
        assign(d.pi, d.value);
        imply();
        return true;
      }
      assign(d.pi, VX);
      stack_.pop_back();
    }
    return false;
  }

  const Netlist& nl_;
  const AtpgOptions& opt_;
  const AtpgGuidance* guide_ = nullptr;
  FrontierPolicy frontier_policy_ = FrontierPolicy::Legacy;
  BacktracePolicy backtrace_policy_ = BacktracePolicy::Legacy;

  // Flat view: rank -> NodeId is the netlist's topological order.
  const std::vector<NodeId>& node_;
  std::vector<Rank> rank_;  // NodeId -> rank (kNoRank for dead nodes)
  std::vector<GateType> type_;
  std::vector<char> is_out_;
  std::vector<std::uint32_t> fi_off_, fo_off_;
  std::vector<Rank> fi_, fo_;
  std::vector<Rank> pi_rank_;  // rank of inputs()[i]

  // The fault, in rank space.
  std::uint8_t stuck_ = V0;
  Rank site_ = kNoRank;        // faulty line's driver (activation target)
  Rank stem_ = kNoRank;        // stem fault: the node forced to stuck_
  Rank fault_gate_ = kNoRank;  // branch fault: the gate reading the pin
  std::vector<Rank> fault_fanins_;
  std::vector<Rank> cone_, cone_outputs_;

  // Search state.
  std::vector<std::uint8_t> pi_val_, gv_, fv_;
  std::vector<std::uint64_t> dirty_;
  std::size_t dirty_lo_ = 0, dirty_hi_ = 0;  // dirty word range [lo, hi)
  std::vector<Decision> stack_;
  std::vector<Rank> frontier_, walk_;
  std::vector<std::uint32_t> visit_;
  std::uint32_t epoch_ = 0;
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
