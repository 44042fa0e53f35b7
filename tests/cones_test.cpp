#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

#include "cone_oracle.hpp"
#include "core/cones.hpp"
#include "core/resynth.hpp"
#include "gen/circuits.hpp"
#include "netlist/equivalence.hpp"
#include "robust/robust.hpp"
#include "util/rng.hpp"

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

/// One cone of `root` with its removable_gate_count and removable gates.
struct Removable {
  Cone cone;
  std::uint64_t count = 0;
  std::vector<NodeId> gates;
};

/// removable_gate_count over every cone of `root`, on RootCones' interiors.
std::vector<Removable> removable_counts(const Netlist& nl, NodeId root, unsigned k) {
  const CutDatabase db(nl, k);
  RootCones rc;
  rc.collect(nl, db, root);
  std::vector<Removable> out(rc.size());
  for (std::size_t i = 0; i < rc.size(); ++i) {
    out[i].cone = rc.cone(i);
    out[i].count = removable_gate_count(nl, root, rc[i].interior, &out[i].gates);
  }
  return out;
}

TEST(Cones, EnumeratesAllSubcircuits) {
  Fixture fx;
  auto cones = enumerate_cones(fx.nl, fx.g, {.max_leaves = 4});
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
  auto cones = enumerate_cones(fx.nl, fx.g, {.max_leaves = 2});
  // Only the single-gate cone fits in 2 leaves.
  ASSERT_EQ(cones.size(), 1u);
  EXPECT_EQ(cones[0].interior, (std::vector<NodeId>{fx.g}));
}

TEST(Cones, CanonicalOrderIsInteriorSizeThenLeaves) {
  Fixture fx;
  const auto cones = enumerate_cones(fx.nl, fx.g, {.max_leaves = 4});
  ASSERT_EQ(cones.size(), 4u);
  for (std::size_t i = 1; i < cones.size(); ++i) {
    const Cone& a = cones[i - 1];
    const Cone& b = cones[i];
    EXPECT_TRUE(a.interior.size() < b.interior.size() ||
                (a.interior.size() == b.interior.size() && a.leaves < b.leaves))
        << "cone " << i;
  }
  EXPECT_EQ(cones.front().interior, (std::vector<NodeId>{fx.g}));
  EXPECT_EQ(cones.back().interior.size(), 3u);
}

TEST(Cones, PseudoCutRejected) {
  // g = AND(x, y), x = AND(y, a), y = OR(b, c). Merging x's cut {a, y} with
  // y's cut {b, c} gives {a, b, c, y}; but y as a leaf cuts y itself out of
  // the interior, so no interior has that fanin set. The real cones have
  // leaves {x, y}, {a, y}, {b, c, x} and {a, b, c}.
  Netlist nl("pseudo");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c = nl.add_input("c");
  const NodeId y = nl.add_gate(GateType::Or, {b, c});
  const NodeId x = nl.add_gate(GateType::And, {y, a});
  const NodeId g = nl.add_gate(GateType::And, {x, y});
  nl.mark_output(g);
  std::vector<std::vector<NodeId>> got;
  for (const Cone& cone : enumerate_cones(nl, g, {.max_leaves = 4})) {
    got.push_back(cone.leaves);
  }
  std::sort(got.begin(), got.end());
  std::vector<std::vector<NodeId>> want{{x, y}, {a, y}, {b, c, x}, {a, b, c}};
  for (auto& l : want) std::sort(l.begin(), l.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST(Cones, ConeFunctionMatchesSimulation) {
  Fixture fx;
  auto cones = enumerate_cones(fx.nl, fx.g, {.max_leaves = 4});
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
  for (const auto& [c, n, removable] : removable_counts(fx.nl, fx.g, 4)) {
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
  bool saw_full = false;
  for (const Removable& r : removable_counts(nl, g, 3)) {
    if (r.cone.interior.size() == 3) {
      saw_full = true;
      EXPECT_EQ(r.count, 2u);
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
  for (const Removable& r : removable_counts(nl, g, 2)) {
    if (r.cone.interior.size() == 2) {
      EXPECT_EQ(r.count, 0u);
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

// --- The top-down oracle ---------------------------------------------------
//
// cone_oracle.hpp keeps the paper's top-down grower at unlimited slack. The
// database must give every root exactly the grower's cones, in the same
// canonical order with the same interiors, and every cut function must
// equal cone_function and a whole-netlist simulation of the cone.

/// Full-database cones against the oracle at every live gate of `nl`, plus
/// the single-root database behind enumerate_cones. Returns cones checked.
std::size_t expect_matches_oracle(const Netlist& nl, unsigned k,
                                  const std::string& what) {
  const CutDatabase db(nl, k);
  std::size_t checked = 0;
  RootCones rc;
  for (NodeId root : nl.topo_order()) {
    if (!oracle::is_gate(nl, root)) continue;
    const std::vector<Cone> want = oracle::grow_cones(nl, root, k);
    const std::vector<Cone> got = oracle::database_cones(nl, db, root);
    EXPECT_EQ(got.size(), want.size()) << what << " K=" << k << " root=" << root;
    if (got.size() != want.size()) return checked;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].leaves, want[i].leaves)
          << what << " K=" << k << " root=" << root << " cone " << i;
      EXPECT_EQ(got[i].interior, want[i].interior)
          << what << " K=" << k << " root=" << root << " cone " << i;
      if (got[i].leaves != want[i].leaves) return checked;
    }
    rc.collect(nl, db, root);
    for (std::size_t i = 0; i < rc.size(); ++i) {
      const TruthTable f = cone_function(nl, got[i]);
      if (db.has_functions()) {
        EXPECT_EQ(db.function(*rc[i].cut), f)
            << what << " K=" << k << " root=" << root << " cone " << i;
      }
      EXPECT_EQ(f, oracle::simulate_cone(nl, got[i]))
          << what << " K=" << k << " root=" << root << " cone " << i;
    }
    const std::vector<Cone> single = enumerate_cones(nl, root, {.max_leaves = k});
    EXPECT_EQ(single.size(), got.size()) << what << " root=" << root;
    for (std::size_t i = 0; i < std::min(single.size(), got.size()); ++i) {
      EXPECT_EQ(single[i].leaves, got[i].leaves) << what << " root=" << root;
    }
    checked += got.size();
  }
  EXPECT_GT(checked, 0u) << what;
  return checked;
}

/// A seeded random circuit with every gate type, repeated and constant
/// fanins, and reconvergence: the shapes that make pseudo-cuts and XOR
/// parity matter.
Netlist random_small_circuit(std::uint64_t seed) {
  Rng rng(seed);
  Netlist nl("rand" + std::to_string(seed));
  std::vector<NodeId> pool;
  const unsigned n_in = 3 + rng.below(4);
  for (unsigned i = 0; i < n_in; ++i) pool.push_back(nl.add_input());
  if (rng.below(2) != 0) pool.push_back(nl.add_const(rng.below(2) != 0));
  const GateType kinds[] = {GateType::And, GateType::Nand, GateType::Or,
                            GateType::Nor, GateType::Xor,  GateType::Xnor,
                            GateType::Not, GateType::Buf};
  const unsigned n_gates = 6 + rng.below(14);
  for (unsigned i = 0; i < n_gates; ++i) {
    const GateType t = kinds[rng.below(8)];
    const unsigned arity =
        t == GateType::Not || t == GateType::Buf ? 1 : 2 + rng.below(3);
    std::vector<NodeId> fi;
    for (unsigned j = 0; j < arity; ++j) {
      // Bias towards recent nodes for depth and reconvergence.
      const std::size_t span = std::min<std::size_t>(pool.size(), 6);
      fi.push_back(rng.below(3) == 0 ? pool[rng.below(pool.size())]
                                     : pool[pool.size() - 1 - rng.below(span)]);
    }
    pool.push_back(nl.add_gate(t, fi));
  }
  nl.mark_output(pool.back());
  nl.mark_output(pool[pool.size() - 2]);
  nl.sweep();
  return nl;
}

TEST(ConesOracle, Syn150MatchesGrower) {
  expect_matches_oracle(make_benchmark("syn150"), 6, "syn150");
  expect_matches_oracle(make_benchmark("syn150"), 4, "syn150");
}

TEST(ConesOracle, Syn300MatchesGrower) {
  expect_matches_oracle(make_benchmark("syn300"), 6, "syn300");
}

TEST(ConesOracle, NamedCircuitsMatchGrower) {
  expect_matches_oracle(make_c17(), 5, "c17");
  expect_matches_oracle(make_alu_slice(2), 6, "alu2");
}

TEST(ConesOracle, RandomSmallCircuitsMatchGrower) {
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Netlist nl = random_small_circuit(seed);
    checked += expect_matches_oracle(nl, 3 + seed % 5, "rand" + std::to_string(seed));
    if (HasFailure()) return;
  }
  EXPECT_GT(checked, 2000u);
}

TEST(ConesOracle, WideCutsMatchGrower) {
  // K above the function word: cuts carry no function, leaves still exact.
  expect_matches_oracle(make_alu_slice(2), 8, "alu2");
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    expect_matches_oracle(random_small_circuit(seed), 8, "rand" + std::to_string(seed));
  }
}

TEST(ConesOracle, ResynthesizedCircuitMatchesGrower) {
  // After a replacement, redefined nodes take fanins with higher ids, so
  // node-id order is no longer a topological order.
  Netlist nl = make_comparator(4);
  (void)procedure2(nl, 5);
  bool id_order_broken = false;
  for (NodeId n = 0; n < nl.size(); ++n) {
    if (nl.is_dead(n)) continue;
    for (NodeId f : nl.node(n).fanins) id_order_broken |= f > n;
  }
  EXPECT_TRUE(id_order_broken);
  for (unsigned k = 3; k <= 7; ++k) expect_matches_oracle(nl, k, "cmp4+proc2");
}

TEST(ConesOracle, DuplicateAndConstantFaninsMatchGrower) {
  Netlist nl("dupconst");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c = nl.add_input("c");
  const NodeId k0 = nl.add_const(false);
  const NodeId k1 = nl.add_const(true);
  const NodeId x = nl.add_gate(GateType::And, {a, a, k1});
  const NodeId y = nl.add_gate(GateType::Or, {x, b, k0, x});
  const NodeId z = nl.add_gate(GateType::Nand, {x, y, c, c});
  const NodeId w = nl.add_gate(GateType::Xor, {z, y, k1, z});
  const NodeId v = nl.add_gate(GateType::Nor, {w, w, z, a});
  const NodeId u = nl.add_gate(GateType::Xnor, {k0, k1});
  nl.mark_output(v);
  nl.mark_output(y);
  nl.mark_output(u);
  for (unsigned k = 1; k <= 7; ++k) expect_matches_oracle(nl, k, "dupconst");
}

TEST(ConesDatabase, CutsPerNodeAreCapped) {
  // At K = 8 some syn300 nodes have more cones than a node keeps. The kept
  // ones are still distinct real cones: each leaf set is the fanin set of
  // its interior.
  const Netlist nl = make_benchmark("syn300");
  const unsigned k = 8;
  const CutDatabase db(nl, k);
  RootCones rc;
  std::size_t capped = 0;
  for (NodeId root : nl.topo_order()) {
    if (!oracle::is_gate(nl, root)) continue;
    ASSERT_LE(db.cones(root).size(), CutDatabase::kMaxCuts) << root;
    if (db.cones(root).size() < CutDatabase::kMaxCuts) continue;
    ++capped;
    rc.collect(nl, db, root);
    std::set<std::vector<NodeId>> seen;
    for (std::size_t i = 0; i < rc.size(); ++i) {
      const Cone c = rc.cone(i);
      EXPECT_LE(c.leaves.size(), k);
      EXPECT_EQ(oracle::leaves_of(nl, c.interior), c.leaves) << root << " cone " << i;
      EXPECT_TRUE(seen.insert(c.leaves).second) << root << " cone " << i;
    }
  }
  EXPECT_GT(capped, 0u);
}

TEST(ConesDatabase, BuildIsACancellationPoint) {
  const Netlist nl = make_benchmark("syn150");
  robust::request_cancel(robust::StopReason::Deadline);
  EXPECT_THROW(CutDatabase(nl, 6), robust::CancelledError);
  robust::clear_cancel();
  EXPECT_NO_THROW(CutDatabase(nl, 6));
}

TEST(ConesOracle, ConcurrentThreadsMatchSerial) {
  // Each thread builds its own databases; cone_function and
  // removable_gate_count share only per-thread scratch. Under TSan this is
  // the race check for those buffers.
  const Netlist nl = make_benchmark("syn150");
  std::vector<NodeId> roots;
  for (NodeId n : nl.topo_order()) {
    if (oracle::is_gate(nl, n)) roots.push_back(n);
  }
  auto sweep = [&] {
    std::vector<std::string> tables;
    const CutDatabase db(nl, 6);
    RootCones rc;
    for (NodeId r : roots) {
      for (const Cone& c : enumerate_cones(nl, r, {.max_leaves = 6})) {
        tables.push_back(cone_function(nl, c).to_bits());
      }
      rc.collect(nl, db, r);
      for (std::size_t i = 0; i < rc.size(); ++i) {
        tables.push_back(db.function(*rc[i].cut).to_bits());
        tables.push_back(std::to_string(removable_gate_count(nl, r, rc[i].interior)));
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
