#include "rar/rar.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "atpg/redundancy.hpp"
#include "faults/fault.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "paths/paths.hpp"
#include "rar/factor.hpp"
#include "util/rng.hpp"

namespace compsyn {
namespace {

bool is_and_family(GateType t) { return t == GateType::And || t == GateType::Nand; }
bool is_or_family(GateType t) { return t == GateType::Or || t == GateType::Nor; }

/// Transitive fanout of n (including n), for cycle avoidance.
std::vector<char> transitive_fanout(const Netlist& nl, NodeId n) {
  std::vector<char> in_tfo(nl.size(), 0);
  std::vector<NodeId> stack{n};
  in_tfo[n] = 1;
  const auto& fanouts = nl.fanouts();
  while (!stack.empty()) {
    const NodeId x = stack.back();
    stack.pop_back();
    for (NodeId y : fanouts[x]) {
      if (!in_tfo[y]) {
        in_tfo[y] = 1;
        stack.push_back(y);
      }
    }
  }
  return in_tfo;
}

/// Gates within `depth` levels upstream of root (inclusive).
std::vector<NodeId> tfi_gates(const Netlist& nl, NodeId root, unsigned depth) {
  std::vector<NodeId> out;
  std::set<NodeId> seen{root};
  std::vector<std::pair<NodeId, unsigned>> stack{{root, 0}};
  while (!stack.empty()) {
    auto [n, d] = stack.back();
    stack.pop_back();
    const Node& nd = nl.node(n);
    if (nd.type != GateType::Input && nd.type != GateType::Const0 &&
        nd.type != GateType::Const1) {
      out.push_back(n);
      if (d < depth) {
        for (NodeId f : nd.fanins) {
          if (seen.insert(f).second) stack.push_back({f, d + 1});
        }
      }
    }
  }
  return out;
}

}  // namespace

unsigned extract_common_pairs(Netlist& nl) {
  unsigned created = 0;
  for (bool and_family : {true, false}) {
    for (;;) {
      // Count unordered fanin pairs across all same-family gates with >= 3
      // inputs (pairs in 2-input gates cannot be profitably extracted).
      std::map<std::pair<NodeId, NodeId>, std::vector<NodeId>> occurrences;
      for (NodeId n = 0; n < nl.size(); ++n) {
        if (nl.is_dead(n)) continue;
        const Node& nd = nl.node(n);
        const bool family_match =
            and_family ? is_and_family(nd.type) : is_or_family(nd.type);
        if (!family_match || nd.fanins.size() < 3) continue;
        std::vector<NodeId> fi = nd.fanins;
        std::sort(fi.begin(), fi.end());
        fi.erase(std::unique(fi.begin(), fi.end()), fi.end());
        for (std::size_t i = 0; i < fi.size(); ++i) {
          for (std::size_t j = i + 1; j < fi.size(); ++j) {
            occurrences[{fi[i], fi[j]}].push_back(n);
          }
        }
      }
      std::pair<NodeId, NodeId> best{kNoNode, kNoNode};
      std::size_t best_uses = 1;
      for (const auto& [pair, gates] : occurrences) {
        if (gates.size() > best_uses) {
          best_uses = gates.size();
          best = pair;
        }
      }
      if (best.first == kNoNode) break;

      const NodeId divisor = nl.add_gate(
          and_family ? GateType::And : GateType::Or, {best.first, best.second});
      ++created;
      for (NodeId g : occurrences[best]) {
        std::vector<NodeId> fi;
        for (NodeId f : nl.node(g).fanins) {
          if (f != best.first && f != best.second) fi.push_back(f);
        }
        fi.push_back(divisor);
        nl.redefine(g, nl.node(g).type, std::move(fi));
      }
    }
  }
  nl.simplify();
  return created;
}

std::uint64_t literal_count(const Netlist& nl) {
  std::uint64_t total = 0;
  for (NodeId n = 0; n < nl.size(); ++n) {
    if (!nl.is_dead(n)) total += nl.node(n).fanins.size();
  }
  return total;
}

unsigned merge_duplicate_gates(Netlist& nl) {
  unsigned merged = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    std::map<std::tuple<GateType, std::vector<NodeId>>, NodeId> index;
    std::map<NodeId, NodeId> replace;
    for (NodeId n : nl.topo_order()) {
      const Node& nd = nl.node(n);
      if (nd.type == GateType::Input || nd.type == GateType::Const0 ||
          nd.type == GateType::Const1 || nd.is_output) {
        continue;
      }
      std::vector<NodeId> fi = nd.fanins;
      for (NodeId& f : fi) {
        auto it = replace.find(f);
        if (it != replace.end()) f = it->second;
      }
      std::sort(fi.begin(), fi.end());
      auto [it, inserted] = index.try_emplace({nd.type, fi}, n);
      if (!inserted) replace[n] = it->second;
    }
    if (!replace.empty()) {
      changed = true;
      merged += static_cast<unsigned>(replace.size());
      for (NodeId n = 0; n < nl.size(); ++n) {
        if (nl.is_dead(n)) continue;
        std::vector<NodeId> fi = nl.node(n).fanins;
        bool touched = false;
        for (NodeId& f : fi) {
          auto it = replace.find(f);
          if (it != replace.end()) {
            f = it->second;
            touched = true;
          }
        }
        if (touched) nl.redefine(n, nl.node(n).type, std::move(fi));
      }
      nl.sweep();
    }
  }
  return merged;
}

unsigned resubstitute_divisors(Netlist& nl) {
  unsigned rewrites = 0;
  for (bool and_family : {true, false}) {
    bool changed = true;
    while (changed) {
      changed = false;
      // Divisors: plain AND (resp. OR) gates, by their sorted fanin set.
      std::vector<std::pair<std::vector<NodeId>, NodeId>> divisors;
      const GateType base = and_family ? GateType::And : GateType::Or;
      for (NodeId n = 0; n < nl.size(); ++n) {
        if (nl.is_dead(n) || nl.node(n).type != base) continue;
        std::vector<NodeId> fi = nl.node(n).fanins;
        std::sort(fi.begin(), fi.end());
        fi.erase(std::unique(fi.begin(), fi.end()), fi.end());
        if (fi.size() >= 2) divisors.push_back({std::move(fi), n});
      }
      for (NodeId g = 0; g < nl.size() && !changed; ++g) {
        if (nl.is_dead(g)) continue;
        const Node& nd = nl.node(g);
        const bool family_match =
            and_family ? is_and_family(nd.type) : is_or_family(nd.type);
        if (!family_match || nd.fanins.size() < 3) continue;
        std::vector<NodeId> fi = nd.fanins;
        std::sort(fi.begin(), fi.end());
        fi.erase(std::unique(fi.begin(), fi.end()), fi.end());
        for (const auto& [dfi, d] : divisors) {
          if (d == g || dfi.size() >= fi.size()) continue;
          if (!std::includes(fi.begin(), fi.end(), dfi.begin(), dfi.end())) continue;
          std::vector<NodeId> rest;
          std::set_difference(fi.begin(), fi.end(), dfi.begin(), dfi.end(),
                              std::back_inserter(rest));
          rest.push_back(d);
          nl.redefine(g, nd.type, std::move(rest));
          ++rewrites;
          changed = true;
          break;
        }
      }
      nl.sweep();
    }
  }
  return rewrites;
}

RarStats rar_optimize(Netlist& nl, const RarOptions& opt) {
  const Span whole("rar.optimize");
  RarStats stats;
  stats.gates_before = nl.equivalent_gate_count();
  stats.paths_before = count_paths(nl).total;
  Rng rng(opt.seed);
  std::uint64_t connections_tried = 0;

  if (opt.run_redundancy_removal) {
    const Span sp("rar.redundancy_removal");
    RedundancyRemovalOptions rr;
    rr.atpg = opt.atpg;
    remove_redundancies(nl, rr);
  }
  if (opt.run_extraction) {
    const Span sp("rar.extraction");
    merge_duplicate_gates(nl);
    stats.extracted = extract_common_pairs(nl);
    resubstitute_divisors(nl);
    merge_duplicate_gates(nl);
    nl.simplify();
  }
  if (opt.run_factoring) {
    const Span sp("rar.factoring");
    factor_cones(nl);
    if (opt.run_extraction) {
      merge_duplicate_gates(nl);
      resubstitute_divisors(nl);
      nl.simplify();
    }
  }

  if (opt.run_addition_removal) {
    const Span sp("rar.addition_removal");
    // Snapshot of candidate destinations (new gates created later by
    // accepted transactions are not revisited; one sweep is the budget).
    std::vector<NodeId> destinations;
    for (NodeId n = 0; n < nl.size(); ++n) {
      if (!nl.is_dead(n) && has_controlling_value(nl.node(n).type) &&
          nl.node(n).fanins.size() < opt.max_gate_arity) {
        destinations.push_back(n);
      }
    }
    rng.shuffle(destinations);

    for (NodeId gd : destinations) {
      if (stats.additions >= opt.max_adds) break;
      if (nl.is_dead(gd)) continue;
      const Node& gd_node = nl.node(gd);
      if (!has_controlling_value(gd_node.type) ||
          gd_node.fanins.size() >= opt.max_gate_arity) {
        continue;
      }
      const auto in_tfo = transitive_fanout(nl, gd);
      // Sample candidate sources near (but not inside) the destination cone.
      std::vector<NodeId> sources;
      for (unsigned t = 0; t < opt.candidates_per_gate * 4 &&
                           sources.size() < opt.candidates_per_gate;
           ++t) {
        const NodeId ws = static_cast<NodeId>(rng.below(nl.size()));
        if (nl.is_dead(ws) || in_tfo[ws]) continue;
        const GateType wt = nl.node(ws).type;
        if (wt == GateType::Const0 || wt == GateType::Const1) continue;
        if (std::find(gd_node.fanins.begin(), gd_node.fanins.end(), ws) !=
            gd_node.fanins.end()) {
          continue;
        }
        sources.push_back(ws);
      }

      for (NodeId ws : sources) {
        ++connections_tried;
        const Netlist snapshot = nl;  // revert point for this transaction
        const std::uint64_t literals_at_start = literal_count(nl);

        std::vector<NodeId> fi = nl.node(gd).fanins;
        fi.push_back(ws);
        const int new_pin = static_cast<int>(fi.size()) - 1;
        nl.redefine(gd, nl.node(gd).type, std::move(fi));

        // The added connection must be provably redundant.
        const bool nc = !controlling_value(nl.node(gd).type);
        const AtpgResult proof = run_podem(nl, {gd, new_pin, nc}, opt.atpg);
        if (proof.status != AtpgStatus::Untestable) {
          nl = snapshot;
          continue;
        }

        // Hunt for wires the addition made redundant, nearby.
        unsigned removed_here = 0;
        for (NodeId g : tfi_gates(nl, gd, opt.neighborhood_depth)) {
          const Node& gn = nl.node(g);
          if (!has_controlling_value(gn.type)) continue;
          for (std::size_t pin = 0; pin < gn.fanins.size(); ++pin) {
            if (g == gd && static_cast<int>(pin) == new_pin) continue;
            const GateType st = nl.node(gn.fanins[pin]).type;
            if (st == GateType::Const0 || st == GateType::Const1) continue;
            const bool pin_nc = !controlling_value(gn.type);
            const AtpgResult r =
                run_podem(nl, {g, static_cast<int>(pin), pin_nc}, opt.atpg);
            if (r.status == AtpgStatus::Untestable) {
              NodeId k = nl.add_const(pin_nc);
              std::vector<NodeId> nfi = nl.node(g).fanins;
              nfi[pin] = k;
              nl.redefine(g, nl.node(g).type, std::move(nfi));
              ++removed_here;
              break;  // fanin list changed; move to the next gate
            }
          }
        }
        nl.simplify();
        // RAMBO-style acceptance: fewer connections overall (the added wire
        // must buy more than itself in removals).
        if (removed_here == 0 || literal_count(nl) >= literals_at_start) {
          nl = snapshot;  // not profitable
          continue;
        }
        ++stats.additions;
        stats.wires_removed += removed_here;
        break;  // one accepted transaction per destination
      }
    }
  }

  if (opt.run_redundancy_removal) {
    const Span sp("rar.redundancy_removal");
    RedundancyRemovalOptions rr;
    rr.atpg = opt.atpg;
    remove_redundancies(nl, rr);
  }
  nl.simplify();
  stats.gates_after = nl.equivalent_gate_count();
  stats.paths_after = count_paths(nl).total;
  Counters::incr("rar.runs");
  Counters::incr("rar.connections_tried", connections_tried);
  Counters::incr("rar.connections_added", stats.additions);
  Counters::incr("rar.wires_removed", stats.wires_removed);
  Counters::incr("rar.pairs_extracted", stats.extracted);
  return stats;
}

}  // namespace compsyn
