// Persistent SAT session (sat/session.hpp) against the fresh-miter oracles
// (sat_oracle.hpp): encoding reuse, fault-proof and CEC verdict parity, the structural
// fast path, retirement soundness across interleaved queries, and the
// deterministic compaction rebuild.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "faults/fault.hpp"
#include "faults/fault_sim.hpp"
#include "gen/circuits.hpp"
#include "netlist/equivalence.hpp"
#include "obs/counters.hpp"
#include "obs/obs.hpp"
#include "sat/cec.hpp"
#include "sat/satpg.hpp"
#include "sat/session.hpp"
#include "sat_oracle.hpp"
#include "util/rng.hpp"

namespace compsyn {
namespace {

/// Confirms the returned PI assignment actually detects the fault.
void expect_detects(const Netlist& nl, const StuckFault& f,
                    const std::vector<bool>& test) {
  ASSERT_EQ(test.size(), nl.inputs().size());
  FaultSimulator sim(nl, {f});
  std::vector<std::uint64_t> pi(nl.inputs().size());
  for (std::size_t i = 0; i < pi.size(); ++i) pi[i] = test[i] ? ~0ull : 0ull;
  sim.simulate_block(pi, 0);
  EXPECT_TRUE(sim.is_detected(0)) << to_string(nl, f);
}

/// Every collapsed fault through ONE session vs the fresh-miter oracle:
/// definitive verdicts must agree exactly, and tests must really detect.
void check_fault_parity(const Netlist& nl, std::size_t max_retired =
                                               SatSession::kDefaultMaxRetired) {
  SatSession session(max_retired);
  const auto id = session.add_circuit(nl);
  for (const StuckFault& f : enumerate_faults(nl)) {
    const SatFaultResult oneshot = oneshot_prove_fault(nl, f);
    ASSERT_NE(oneshot.status, SatFaultStatus::Unknown)
        << nl.name() << " " << to_string(nl, f);
    const SatFaultResult ses = session.prove_fault(id, f);
    EXPECT_EQ(ses.status, oneshot.status)
        << nl.name() << " " << to_string(nl, f);
    if (ses.status == SatFaultStatus::Testable) {
      expect_detects(nl, f, ses.test);
    }
  }
}

TEST(SatSession, FaultParityOnC17) { check_fault_parity(make_c17()); }
TEST(SatSession, FaultParityOnParityTree) {
  check_fault_parity(make_parity_tree(6));
}
TEST(SatSession, FaultParityOnAluSlice) { check_fault_parity(make_alu_slice(2)); }

TEST(SatSession, FaultParityOnRedundantSynthetic) {
  SyntheticOptions opt;
  opt.inputs = 8;
  opt.outputs = 3;
  opt.gates = 50;
  opt.redundant_term_chance = 0.4;
  for (std::uint64_t seed : {3ull, 11ull, 19ull}) {
    opt.seed = seed;
    check_fault_parity(make_synthetic(opt));
  }
}

TEST(SatSession, CompactionPreservesVerdicts) {
  // A tiny retirement threshold forces many solver rebuilds mid-sweep; the
  // verdict stream must be identical to the never-compacting session's.
  const Netlist nl = make_alu_slice(2);
  check_fault_parity(nl, /*max_retired=*/2);
}

TEST(SatSession, AddCircuitReusesStructurallyIdenticalEncodings) {
  const Netlist a = make_c17();
  const Netlist b = make_c17();  // distinct object, identical structure
  SatSession session;
  const auto ia = session.add_circuit(a);
  const auto ib = session.add_circuit(b);
  EXPECT_EQ(ia, ib);
  EXPECT_EQ(session.num_circuits(), 1u);

  Netlist c = make_c17();
  c.set_name("renamed");  // names are not structure
  EXPECT_EQ(session.add_circuit(c), ia);

  const Netlist d = make_parity_tree(4);
  EXPECT_NE(session.add_circuit(d), ia);
  EXPECT_EQ(session.num_circuits(), 2u);
}

TEST(SatSession, StructuralFastPathProvesWithoutSolving) {
  const Netlist a = make_parity_tree(5);
  SatSession session;
  const auto id = session.add_circuit(a);
  const std::uint64_t conflicts_before = session.stats().conflicts;
  const EquivalenceResult eq = session.check_equivalent(id, id);
  EXPECT_TRUE(eq.equivalent);
  EXPECT_TRUE(eq.proven);
  EXPECT_EQ(session.stats().conflicts, conflicts_before);
  EXPECT_NE(eq.message.find("identical structure"), std::string::npos)
      << eq.message;
}

TEST(SatSession, CecParityWithOneshot) {
  Rng rng(0xABCD);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SyntheticOptions opt;
    opt.inputs = 8;
    opt.outputs = 3;
    opt.gates = 40 + static_cast<unsigned>(seed * 5);
    opt.seed = seed;
    const Netlist a = make_synthetic(opt);
    Netlist b = make_synthetic(opt);
    if (seed % 2 == 0) {
      // Perturb: redefine one gate with flipped polarity.
      for (NodeId n = 0; n < b.size(); ++n) {
        if (b.is_dead(n)) continue;
        if (b.node(n).type == GateType::And) {
          b.redefine(n, GateType::Nand, b.node(n).fanins);
          break;
        }
      }
    }
    const EquivalenceResult oneshot = oneshot_check_equivalent(a, b);
    ASSERT_TRUE(oneshot.proven) << "seed " << seed;
    SatSession session;
    const EquivalenceResult ses = session.check_equivalent(a, b);
    ASSERT_TRUE(ses.proven) << "seed " << seed;
    EXPECT_EQ(ses.equivalent, oneshot.equivalent) << "seed " << seed;
    if (!ses.equivalent) {
      // Counterexample sanity: must actually distinguish the circuits.
      std::vector<std::uint64_t> pi(a.inputs().size());
      for (std::size_t i = 0; i < pi.size(); ++i) {
        pi[i] = ses.counterexample[i] ? ~0ull : 0ull;
      }
      const auto va = a.simulate(pi);
      const auto vb = b.simulate(pi);
      bool differs = false;
      for (std::size_t o = 0; o < a.outputs().size(); ++o) {
        differs |= ((va[a.outputs()[o]] ^ vb[b.outputs()[o]]) & 1ull) != 0;
      }
      EXPECT_TRUE(differs) << "seed " << seed;
    }
  }
}

TEST(SatSession, RetirementKeepsLaterQueriesSound) {
  // Interleave fault proofs and CEC checks on one session, then repeat the
  // whole sequence: retired activation groups must not leak constraints into
  // later queries (every verdict is stable on the second lap).
  const Netlist nl = make_c17();
  Netlist other = make_c17();
  for (NodeId n = 0; n < other.size(); ++n) {
    if (other.is_dead(n)) continue;
    if (other.node(n).type == GateType::Nand) {
      other.redefine(n, GateType::And, other.node(n).fanins);
      break;
    }
  }
  SatSession session;
  const auto id = session.add_circuit(nl);
  const auto faults = enumerate_faults(nl);
  std::vector<SatFaultStatus> first;
  for (const StuckFault& f : faults) {
    first.push_back(session.prove_fault(id, f).status);
  }
  const EquivalenceResult eq1 = session.check_equivalent(nl, other);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(session.prove_fault(id, faults[i]).status, first[i])
        << to_string(nl, faults[i]);
  }
  const EquivalenceResult eq2 = session.check_equivalent(nl, other);
  EXPECT_EQ(eq1.equivalent, eq2.equivalent);
  EXPECT_EQ(eq1.proven, eq2.proven);
}

#if COMPSYN_TRACE
TEST(SatSession, CountersRecordEncodingReuseAndQueries) {
  obs_set_level(ObsLevel::report);
  Counters::reset();
  const Netlist a = make_c17();
  SatSession session;
  const auto id = session.add_circuit(a);
  session.add_circuit(make_c17());  // structural reuse
  const auto faults = enumerate_faults(a);
  session.prove_fault(id, faults.front());
  session.check_equivalent(id, id);
  EXPECT_EQ(Counters::value("sat.session.encoded"), 1u);
  EXPECT_EQ(Counters::value("sat.session.reuse_hits"), 1u);
  EXPECT_EQ(Counters::value("sat.session.queries"), 2u);
  EXPECT_EQ(Counters::value("sat.session.structural_proofs"), 1u);
  EXPECT_GE(Counters::value("sat.session.retired"), 1u);
  obs_set_level(ObsLevel::off);
  Counters::reset();
}
#endif

}  // namespace
}  // namespace compsyn
