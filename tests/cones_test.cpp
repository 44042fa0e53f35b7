#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

#include "core/cones.hpp"
#include "core/resynth.hpp"
#include "gen/circuits.hpp"
#include "netlist/equivalence.hpp"

namespace compsyn {
namespace {

/// Two-level circuit: g = OR(AND(a,b), AND(b,c)); the first AND also feeds
/// a second output (shared logic).
struct Fixture {
  Netlist nl{"fx"};
  NodeId a, b, c, and1, and2, g, shared_out;
  Fixture() {
    a = nl.add_input("a");
    b = nl.add_input("b");
    c = nl.add_input("c");
    and1 = nl.add_gate(GateType::And, {a, b});
    and2 = nl.add_gate(GateType::And, {b, c});
    g = nl.add_gate(GateType::Or, {and1, and2});
    shared_out = nl.add_gate(GateType::Not, {and1});
    nl.mark_output(g);
    nl.mark_output(shared_out);
  }
};

TEST(Cones, EnumeratesAllSubcircuits) {
  Fixture fx;
  auto cones = enumerate_cones(fx.nl, fx.g, {.max_leaves = 4, .max_cones = 100});
  // Expected interiors: {g}, {g,and1}, {g,and2}, {g,and1,and2}.
  ASSERT_EQ(cones.size(), 4u);
  for (const auto& c : cones) {
    EXPECT_EQ(c.root, fx.g);
    EXPECT_TRUE(std::binary_search(c.interior.begin(), c.interior.end(), fx.g));
    EXPECT_LE(c.leaves.size(), 4u);
  }
  // The full cone has leaves {a, b, c}.
  bool found_full = false;
  for (const auto& c : cones) {
    if (c.interior.size() == 3) {
      EXPECT_EQ(c.leaves, (std::vector<NodeId>{fx.a, fx.b, fx.c}));
      found_full = true;
    }
  }
  EXPECT_TRUE(found_full);
}

TEST(Cones, LeafLimitRespected) {
  Fixture fx;
  auto cones = enumerate_cones(fx.nl, fx.g, {.max_leaves = 2, .max_cones = 100});
  // Only the single-gate cone fits in 2 leaves.
  ASSERT_EQ(cones.size(), 1u);
  EXPECT_EQ(cones[0].interior, (std::vector<NodeId>{fx.g}));
}

TEST(Cones, MaxConesCapRespected) {
  Fixture fx;
  auto cones = enumerate_cones(fx.nl, fx.g, {.max_leaves = 4, .max_cones = 2});
  EXPECT_EQ(cones.size(), 2u);
}

TEST(Cones, ConeFunctionMatchesSimulation) {
  Fixture fx;
  auto cones = enumerate_cones(fx.nl, fx.g, {.max_leaves = 4, .max_cones = 100});
  for (const auto& c : cones) {
    if (c.interior.size() != 3) continue;
    TruthTable f = cone_function(fx.nl, c);
    // f(a,b,c) = ab + bc with a=var0 (MSB), b=var1, c=var2.
    for (std::uint32_t m = 0; m < 8; ++m) {
      const bool a = (m >> 2) & 1, b = (m >> 1) & 1, cc = m & 1;
      EXPECT_EQ(f.get(m), (a && b) || (b && cc)) << m;
    }
  }
}

TEST(Cones, ConstantsAbsorbedIntoFunction) {
  Netlist nl("k");
  NodeId a = nl.add_input("a");
  NodeId k1 = nl.add_const(true);
  NodeId g = nl.add_gate(GateType::And, {a, k1});
  nl.mark_output(g);
  auto cones = enumerate_cones(nl, g, {});
  ASSERT_EQ(cones.size(), 1u);
  EXPECT_EQ(cones[0].leaves, (std::vector<NodeId>{a}));  // constant not a leaf
  TruthTable f = cone_function(nl, cones[0]);
  EXPECT_EQ(f.num_vars(), 1u);
  EXPECT_FALSE(f.get(0));
  EXPECT_TRUE(f.get(1));
}

TEST(Cones, RemovableCountExcludesSharedGates) {
  Fixture fx;
  auto cones = enumerate_cones(fx.nl, fx.g, {.max_leaves = 4, .max_cones = 100});
  for (const auto& c : cones) {
    std::vector<NodeId> removable;
    const std::uint64_t n = removable_gate_count(fx.nl, c, &removable);
    const bool has_and1 =
        std::binary_search(c.interior.begin(), c.interior.end(), fx.and1);
    const bool has_and2 =
        std::binary_search(c.interior.begin(), c.interior.end(), fx.and2);
    // and1 feeds shared_out externally, so it is never removable; the OR
    // counts 1, and2 counts 1 when inside.
    std::uint64_t expect = 1;  // the OR gate at the root
    if (has_and2) expect += 1;
    EXPECT_EQ(n, expect) << "and1=" << has_and1 << " and2=" << has_and2;
    EXPECT_EQ(std::count(removable.begin(), removable.end(), fx.and1), 0);
  }
}

TEST(Cones, RemovableCountTransitive) {
  // chain: g = NOT(x) ; x = AND(a, y); y = OR(a, b). Absorbing everything,
  // all three gates are removable (AND + OR = 2 equivalent gates; NOT = 0).
  Netlist nl("t");
  NodeId a = nl.add_input();
  NodeId b = nl.add_input();
  NodeId y = nl.add_gate(GateType::Or, {a, b});
  NodeId x = nl.add_gate(GateType::And, {a, y});
  NodeId g = nl.add_gate(GateType::Not, {x});
  nl.mark_output(g);
  auto cones = enumerate_cones(nl, g, {.max_leaves = 3, .max_cones = 100});
  bool saw_full = false;
  for (const auto& c : cones) {
    if (c.interior.size() == 3) {
      saw_full = true;
      EXPECT_EQ(removable_gate_count(nl, c), 2u);
    }
  }
  EXPECT_TRUE(saw_full);
}

TEST(Cones, InteriorOutputGateNotRemovable) {
  // y = AND(a,b) is itself a primary output; a cone over g = NOT(y) that
  // absorbs y must not count y as removable.
  Netlist nl("po");
  NodeId a = nl.add_input();
  NodeId b = nl.add_input();
  NodeId y = nl.add_gate(GateType::And, {a, b});
  NodeId g = nl.add_gate(GateType::Not, {y});
  nl.mark_output(y);
  nl.mark_output(g);
  auto cones = enumerate_cones(nl, g, {.max_leaves = 2, .max_cones = 100});
  for (const auto& c : cones) {
    if (c.interior.size() == 2) {
      EXPECT_EQ(removable_gate_count(nl, c), 0u);
    }
  }
}

TEST(Cones, WideRootYieldsNothing) {
  Netlist nl("wide");
  std::vector<NodeId> ins;
  for (int i = 0; i < 8; ++i) ins.push_back(nl.add_input());
  NodeId g = nl.add_gate(GateType::And, ins);
  nl.mark_output(g);
  EXPECT_TRUE(enumerate_cones(nl, g, {.max_leaves = 6}).empty());
}

TEST(Cones, DuplicateFaninsCountOnceAsLeaf) {
  Netlist nl("dup");
  NodeId a = nl.add_input();
  NodeId g = nl.add_gate(GateType::And, {a, a});
  nl.mark_output(g);
  auto cones = enumerate_cones(nl, g, {});
  ASSERT_EQ(cones.size(), 1u);
  EXPECT_EQ(cones[0].leaves.size(), 1u);
  TruthTable f = cone_function(nl, cones[0]);
  EXPECT_EQ(f.to_bits(), "01");  // AND(a,a) = a
}

// --- Differential reference -------------------------------------------------
//
// The original enumeration: every grown cone recomputed from scratch, with a
// std::set of sorted interiors for deduplication and a std::set for each
// leaf set. The library's incremental, hashed enumeration must produce the
// same cones in the same order (and so the same truncation point under
// max_cones).

bool ref_is_gate(const Netlist& nl, NodeId n) {
  const GateType t = nl.node(n).type;
  return t != GateType::Input && t != GateType::Const0 && t != GateType::Const1;
}

bool ref_is_const(const Netlist& nl, NodeId n) {
  const GateType t = nl.node(n).type;
  return t == GateType::Const0 || t == GateType::Const1;
}

std::vector<Cone> reference_enumerate_cones(const Netlist& nl, NodeId root,
                                            const ConeOptions& opt) {
  std::vector<Cone> out;
  std::set<std::vector<NodeId>> seen;

  auto make_cone = [&](std::vector<NodeId> interior) {
    std::sort(interior.begin(), interior.end());
    Cone c;
    c.root = root;
    c.interior = std::move(interior);
    std::set<NodeId> leaves;
    for (NodeId g : c.interior) {
      for (NodeId f : nl.node(g).fanins) {
        if (!std::binary_search(c.interior.begin(), c.interior.end(), f) &&
            !ref_is_const(nl, f)) {
          leaves.insert(f);
        }
      }
    }
    c.leaves.assign(leaves.begin(), leaves.end());
    return c;
  };

  const unsigned expand_limit = opt.max_leaves + opt.expand_slack;
  std::size_t visited = 0;

  Cone seed = make_cone({root});
  if (seed.leaves.size() > expand_limit) return out;
  seen.insert(seed.interior);
  if (seed.leaves.size() <= opt.max_leaves) out.push_back(seed);
  std::vector<Cone> frontier{std::move(seed)};
  ++visited;

  while (!frontier.empty() && visited < opt.max_cones) {
    std::vector<Cone> next;
    for (const Cone& c : frontier) {
      for (NodeId leaf : c.leaves) {
        if (!ref_is_gate(nl, leaf)) continue;
        std::vector<NodeId> key = c.interior;
        key.push_back(leaf);
        std::sort(key.begin(), key.end());
        if (seen.count(key)) continue;
        Cone grown = make_cone(key);
        if (grown.leaves.size() > expand_limit) continue;
        seen.insert(std::move(key));
        ++visited;
        if (grown.leaves.size() <= opt.max_leaves) out.push_back(grown);
        next.push_back(std::move(grown));
        if (visited >= opt.max_cones) break;
      }
      if (visited >= opt.max_cones) break;
    }
    frontier = std::move(next);
  }
  return out;
}

/// The original cone function: the netlist's global topological order
/// restricted to the cone, over a fresh nl.size() value vector.
TruthTable reference_cone_function(const Netlist& nl, const Cone& cone) {
  const unsigned k = static_cast<unsigned>(cone.leaves.size());
  std::vector<NodeId> order;
  for (NodeId n : nl.topo_order()) {
    if (std::binary_search(cone.interior.begin(), cone.interior.end(), n)) {
      order.push_back(n);
    }
  }
  TruthTable t(k);
  const std::uint32_t minterms = 1u << k;
  std::vector<std::uint64_t> value(nl.size(), 0);
  for (std::uint32_t base = 0; base < minterms; base += 64) {
    for (unsigned i = 0; i < k; ++i) {
      const unsigned shift = k - 1 - i;
      value[cone.leaves[i]] = shift < 6 ? exhaustive_mask(shift)
                              : ((base >> shift) & 1u) ? ~0ull
                                                       : 0ull;
    }
    for (NodeId g : cone.interior) {
      for (NodeId f : nl.node(g).fanins) {
        if (nl.node(f).type == GateType::Const1) value[f] = ~0ull;
        else if (nl.node(f).type == GateType::Const0) value[f] = 0;
      }
    }
    for (NodeId g : order) {
      value[g] = eval_gate(nl.node(g).type, nl.node(g).fanins, value.data());
    }
    const std::uint64_t w = value[cone.root];
    const std::uint32_t limit = std::min<std::uint32_t>(64, minterms - base);
    for (std::uint32_t b = 0; b < limit; ++b) t.set(base + b, (w >> b) & 1ull);
  }
  return t;
}

/// Every live gate of `nl` under every option combination: identical cone
/// vectors (order, interiors, leaves), and identical cone functions.
void expect_matches_reference(const Netlist& nl, const std::string& what) {
  std::size_t cones_checked = 0;
  for (NodeId root = 0; root < nl.size(); ++root) {
    if (nl.is_dead(root) || !ref_is_gate(nl, root)) continue;
    for (unsigned k = 3; k <= 7; ++k) {
      for (unsigned slack : {0u, 3u}) {
        for (std::size_t cap : {std::size_t{1}, std::size_t{7}, std::size_t{2000}}) {
          const ConeOptions opt{.max_leaves = k, .max_cones = cap,
                                .expand_slack = slack};
          const auto got = enumerate_cones(nl, root, opt);
          const auto want = reference_enumerate_cones(nl, root, opt);
          ASSERT_EQ(got.size(), want.size())
              << what << " root=" << root << " K=" << k << " slack=" << slack
              << " cap=" << cap;
          for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].root, want[i].root) << what << " cone " << i;
            ASSERT_EQ(got[i].interior, want[i].interior)
                << what << " root=" << root << " K=" << k << " slack=" << slack
                << " cap=" << cap << " cone " << i;
            ASSERT_EQ(got[i].leaves, want[i].leaves)
                << what << " root=" << root << " K=" << k << " slack=" << slack
                << " cap=" << cap << " cone " << i;
          }
          if (cap != 2000) continue;
          for (const Cone& c : got) {
            ASSERT_EQ(cone_function(nl, c), reference_cone_function(nl, c))
                << what << " root=" << root << " K=" << k;
          }
          cones_checked += got.size();
        }
      }
    }
  }
  EXPECT_GT(cones_checked, 0u) << what;
}

TEST(ConesDifferential, GeneratedCircuitsMatchReference) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    SyntheticOptions o;
    o.inputs = 12;
    o.outputs = 6;
    o.gates = 60;
    o.seed = seed;
    expect_matches_reference(make_synthetic(o), "syn60/" + std::to_string(seed));
  }
  expect_matches_reference(make_benchmark("syn150"), "syn150");
  expect_matches_reference(make_c17(), "c17");
  expect_matches_reference(make_alu_slice(2), "alu2");
}

TEST(ConesDifferential, ResynthesizedCircuitMatchesReference) {
  // After a replacement, redefined nodes take fanins with higher ids, so
  // node-id order is no longer a topological order: the cone-local order of
  // cone_function has to be a real one.
  Netlist nl = make_comparator(4);
  (void)procedure2(nl, 5);
  bool id_order_broken = false;
  for (NodeId n = 0; n < nl.size(); ++n) {
    if (nl.is_dead(n)) continue;
    for (NodeId f : nl.node(n).fanins) id_order_broken |= f > n;
  }
  EXPECT_TRUE(id_order_broken);
  expect_matches_reference(nl, "cmp4+proc2");
}

TEST(ConesDifferential, DuplicateAndConstantFaninsMatchReference) {
  Netlist nl("dupconst");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c = nl.add_input("c");
  const NodeId k0 = nl.add_const(false);
  const NodeId k1 = nl.add_const(true);
  const NodeId x = nl.add_gate(GateType::And, {a, a, k1});
  const NodeId y = nl.add_gate(GateType::Or, {x, b, k0, x});
  const NodeId z = nl.add_gate(GateType::Nand, {x, y, c, c});
  const NodeId w = nl.add_gate(GateType::Xor, {z, y, k1});
  const NodeId v = nl.add_gate(GateType::Nor, {w, w, z, a});
  nl.mark_output(v);
  nl.mark_output(y);
  expect_matches_reference(nl, "dupconst");
}

TEST(ConesDifferential, ConcurrentThreadsMatchSerial) {
  // Each thread enumerates and evaluates every root in its own per-thread
  // scratch; under TSan this is the race check for those buffers.
  const Netlist nl = make_benchmark("syn150");
  std::vector<NodeId> roots;
  for (NodeId n : nl.topo_order()) {
    if (ref_is_gate(nl, n)) roots.push_back(n);
  }
  auto sweep = [&] {
    std::vector<std::string> tables;
    for (NodeId r : roots) {
      for (const Cone& c : enumerate_cones(nl, r, {.max_leaves = 6})) {
        tables.push_back(cone_function(nl, c).to_bits());
      }
    }
    return tables;
  };
  const auto serial = sweep();
  std::vector<std::vector<std::string>> got(4);
  std::vector<std::thread> threads;
  for (auto& g : got) threads.emplace_back([&g, &sweep] { g = sweep(); });
  for (auto& t : threads) t.join();
  for (const auto& g : got) EXPECT_EQ(g, serial);
}

}  // namespace
}  // namespace compsyn
