// Tests for the VMC -> CNF encoding and the SAT-based checker. The key
// property: check_via_sat agrees with the exact search on every instance
// we can throw at it, and its witnesses always certify.

#include <gtest/gtest.h>

#include "encode/sweep.hpp"
#include "encode/vmc_to_cnf.hpp"
#include "encode/vsc_to_cnf.hpp"
#include "oracles/encode/ordered_triples.hpp"
#include "reductions/sat_to_vmc.hpp"
#include "sat/brute.hpp"
#include "sat/gen.hpp"
#include "trace/schedule.hpp"
#include "vmc/exact.hpp"
#include "workload/random.hpp"

namespace vermem::encode {
namespace {

using vmc::Verdict;
using vmc::VmcInstance;
using workload::Fault;

VmcInstance make(const Execution& exec) { return VmcInstance{exec, 0}; }

auto vmc_order_lit(const VmcEncoding& enc) {
  return [&enc](std::size_t i, std::size_t j) {
    return i < j ? sat::pos(enc.order_var(i, j)) : sat::neg(enc.order_var(j, i));
  };
}

TEST(Encode, EmptyInstance) {
  const auto enc = encode_vmc(make(Execution{}));
  EXPECT_FALSE(enc.trivially_incoherent);
  EXPECT_EQ(enc.num_writes(), 0u);
  EXPECT_EQ(check_via_sat(make(Execution{})).verdict, Verdict::kCoherent);
}

TEST(Encode, UnwrittenReadIsTriviallyIncoherent) {
  const auto exec = ExecutionBuilder().process(R(0, 9)).build();
  const auto enc = encode_vmc(make(exec));
  EXPECT_TRUE(enc.trivially_incoherent);
  EXPECT_EQ(check_via_sat(make(exec)).verdict, Verdict::kIncoherent);
}

TEST(Encode, FinalValueNeverWritten) {
  const auto exec =
      ExecutionBuilder().process(W(0, 1)).final_value(0, 7).build();
  EXPECT_EQ(check_via_sat(make(exec)).verdict, Verdict::kIncoherent);
}

TEST(Encode, FinalValueWithNoWrites) {
  const auto ok = ExecutionBuilder().process(R(0, 0)).final_value(0, 0).build();
  EXPECT_EQ(check_via_sat(make(ok)).verdict, Verdict::kCoherent);
  const auto bad = ExecutionBuilder().process(R(0, 0)).final_value(0, 1).build();
  EXPECT_EQ(check_via_sat(make(bad)).verdict, Verdict::kIncoherent);
}

TEST(Encode, VariableAndClauseCountsAreModest) {
  Xoshiro256ss rng(3);
  workload::SingleAddressParams params;
  params.num_histories = 4;
  params.ops_per_history = 8;
  const auto trace = workload::generate_coherent(params, rng);
  const auto enc = encode_vmc(make(trace.execution));
  const std::size_t w = enc.num_writes();
  EXPECT_EQ(enc.order_vars.size(), w * (w - 1) / 2);
  // Exactly two transitivity clauses per write triangle; the read and
  // final-value constraints add O(R*W^2) more (generous constant).
  const std::size_t transitivity =
      oracles::count_transitivity(enc.cnf, w, vmc_order_lit(enc));
  EXPECT_EQ(transitivity, w * (w - 1) * (w - 2) / 3);
  EXPECT_LE(enc.cnf.num_clauses(), transitivity + 32 * w * w + 64);
}

TEST(Encode, WritesOnlyClauseCountIsExact) {
  // Three histories of 3 + 2 + 4 writes: w = 9, no reads, no final
  // value. The formula is the transitivity skeleton, w(w-1)(w-2)/3
  // clauses, plus one program-order unit per consecutive same-history
  // write pair.
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), W(0, 2), W(0, 1))
                        .process(W(0, 2), W(0, 2))
                        .process(W(0, 1), W(0, 1), W(0, 2), W(0, 1))
                        .build();
  const auto enc = encode_vmc(make(exec));
  const std::size_t w = enc.num_writes();
  ASSERT_EQ(w, 9u);
  const std::size_t program_order = (3 - 1) + (2 - 1) + (4 - 1);
  EXPECT_EQ(oracles::count_transitivity(enc.cnf, w, vmc_order_lit(enc)),
            w * (w - 1) * (w - 2) / 3);
  EXPECT_EQ(enc.cnf.num_clauses(), w * (w - 1) * (w - 2) / 3 + program_order);
}

TEST(Encode, ClauseSetEqualsOrderedTripleFormula) {
  // Two-value traces with RMWs (faulted ones too): the formula with one
  // transitivity clause per ordered write triple, as earlier versions
  // emitted it, has exactly the clause set of the current encoding.
  Xoshiro256ss rng(61);
  int compared = 0;
  for (int trial = 0; trial < 120; ++trial) {
    workload::SingleAddressParams params;
    params.num_histories = 2 + rng.below(3);
    params.ops_per_history = 2 + rng.below(5);
    params.num_values = 2;
    params.rmw_fraction = 0.3;
    const auto trace = workload::generate_coherent(params, rng);
    std::vector<Execution> cases{trace.execution};
    for (const Fault f : {Fault::kStaleRead, Fault::kLostWrite}) {
      if (auto faulted = workload::inject_fault(trace, f, rng))
        cases.push_back(std::move(*faulted));
    }
    for (const Execution& exec : cases) {
      const auto enc = encode_vmc(make(exec));
      const std::size_t w = enc.num_writes();
      if (w > 8) continue;
      const auto order_lit = vmc_order_lit(enc);
      EXPECT_EQ(oracles::clause_set(
                    oracles::with_ordered_triples(enc.cnf, w, order_lit)),
                oracles::clause_set(enc.cnf))
          << "trial " << trial;
      if (!enc.trivially_incoherent) {
        EXPECT_EQ(oracles::count_transitivity(enc.cnf, w, order_lit),
                  w * (w - 1) * (w - 2) / 3);
      }
      ++compared;
    }
  }
  EXPECT_GT(compared, 100);
}

TEST(Encode, VscClauseSetEqualsOrderedTripleFormula) {
  Xoshiro256ss rng(62);
  for (int trial = 0; trial < 40; ++trial) {
    workload::MultiAddressParams params;
    params.num_processes = 2 + rng.below(2);
    params.ops_per_process = 1 + rng.below(4);
    params.num_addresses = 1 + rng.below(2);
    params.num_values = 2;
    params.rmw_fraction = 0.3;
    const auto trace = workload::generate_sc(params, rng);
    const auto enc = encode_vsc(trace.execution);
    const std::size_t n = enc.num_ops();
    const auto order_lit = [&](std::size_t i, std::size_t j) {
      return i < j ? sat::pos(enc.order_var(i, j))
                   : sat::neg(enc.order_var(j, i));
    };
    EXPECT_EQ(
        oracles::clause_set(oracles::with_ordered_triples(enc.cnf, n, order_lit)),
        oracles::clause_set(enc.cnf))
        << "trial " << trial;
    EXPECT_EQ(oracles::count_transitivity(enc.cnf, n, order_lit),
              n * (n - 1) * (n - 2) / 3);
  }
}

TEST(Encode, SweepDeltaEmitsEachTriangleOnce) {
  // A sweep prepared on a prefix and then extended carries, across both
  // emissions, exactly the ordered-triple clause set over all nodes, and
  // each triangle's two clauses exactly once: the delta is the
  // triangles whose largest node is new.
  Xoshiro256ss rng(63);
  for (int trial = 0; trial < 30; ++trial) {
    workload::MultiAddressParams params;
    params.num_processes = 2 + rng.below(2);
    params.ops_per_process = 2 + rng.below(3);
    params.num_addresses = 1 + rng.below(2);
    params.num_values = 2;
    params.rmw_fraction = 0.3;
    const Execution full = workload::generate_sc(params, rng).execution;
    Execution prefix;
    for (std::uint32_t p = 0; p < full.num_processes(); ++p) {
      std::vector<Operation> ops;
      const std::size_t keep = rng.below(full.history(p).size() + 1);
      for (std::size_t i = 0; i < keep; ++i) ops.push_back(full.history(p)[i]);
      prefix.add_history(ProcessHistory{std::move(ops)});
    }

    for (const bool extend : {false, true}) {
      VscSweep sweep;
      if (extend) {
        ASSERT_EQ(sweep.prepare(prefix), VscSweep::Prepare::kFresh);
        ASSERT_EQ(sweep.prepare(full), VscSweep::Prepare::kExtended);
      } else {
        ASSERT_EQ(sweep.prepare(full), VscSweep::Prepare::kFresh);
      }
      const std::size_t n = sweep.num_operations();
      const auto order_lit = [&](std::size_t i, std::size_t j) {
        return sweep.order_lit(i, j);
      };
      const sat::Cnf formula = sweep.formula();
      EXPECT_EQ(oracles::count_transitivity(formula, n, order_lit),
                n * (n - 1) * (n - 2) / 3)
          << "trial " << trial << " extend " << extend;
      const auto mask = oracles::order_var_mask(formula.num_vars, n, order_lit);
      sat::Cnf skeleton;
      skeleton.num_vars = formula.num_vars;
      for (const sat::Clause& clause : formula.clauses)
        if (oracles::is_transitivity(clause, mask)) skeleton.add_clause(clause);
      sat::Cnf triples = oracles::with_ordered_triples(sat::Cnf{formula.num_vars, {}},
                                                       n, order_lit);
      EXPECT_EQ(oracles::clause_set(triples), oracles::clause_set(skeleton))
          << "trial " << trial << " extend " << extend;
    }
  }
}

TEST(Encode, DecodeRecoversAConsistentOrder) {
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), R(0, 2))
                        .process(W(0, 2))
                        .build();
  const auto enc = encode_vmc(make(exec));
  const auto solved = sat::solve(enc.cnf);
  ASSERT_EQ(solved.status, sat::Status::kSat);
  const auto order = enc.decode_write_order(solved.model);
  ASSERT_EQ(order.size(), 2u);
  // R(0,2) forces W(0,1) before W(0,2).
  EXPECT_EQ(order[0], (OpRef{0, 0}));
  EXPECT_EQ(order[1], (OpRef{1, 0}));
}

TEST(Encode, AgreesWithExactOnRandomTraces) {
  Xoshiro256ss rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    workload::SingleAddressParams params;
    params.num_histories = 2 + rng.below(4);
    params.ops_per_history = 2 + rng.below(6);
    params.num_values = 2 + rng.below(4);
    params.rmw_fraction = rng.uniform01() * 0.5;
    const auto trace = workload::generate_coherent(params, rng);

    std::vector<Execution> cases{trace.execution};
    for (const Fault f : {Fault::kStaleRead, Fault::kLostWrite,
                          Fault::kFabricatedRead, Fault::kReorderedOps}) {
      if (auto faulted = workload::inject_fault(trace, f, rng))
        cases.push_back(std::move(*faulted));
    }
    for (const auto& exec : cases) {
      const auto instance = make(exec);
      const auto via_sat = check_via_sat(instance);
      const auto exact = vmc::check_exact(instance);
      ASSERT_NE(via_sat.verdict, Verdict::kUnknown) << via_sat.reason();
      EXPECT_EQ(via_sat.verdict, exact.verdict)
          << "trial " << trial << ": " << via_sat.reason();
      if (via_sat.verdict == Verdict::kCoherent) {
        const auto valid = check_coherent_schedule(exec, 0, via_sat.witness);
        EXPECT_TRUE(valid.ok) << valid.violation;
      }
    }
  }
}

TEST(Encode, AgreesWithExactOnReductionInstances) {
  // The adversarial family: SAT -> VMC -> CNF -> SAT round trip.
  Xoshiro256ss rng(13);
  for (int trial = 0; trial < 15; ++trial) {
    const auto cnf = sat::random_ksat(static_cast<sat::Var>(3 + rng.below(2)),
                                      1 + rng.below(8), 3, rng);
    const bool satisfiable = sat::solve_brute(cnf).has_value();
    const auto red = reductions::sat_to_vmc(cnf);
    const auto via_sat = check_via_sat(red.instance);
    ASSERT_NE(via_sat.verdict, Verdict::kUnknown) << via_sat.reason();
    EXPECT_EQ(via_sat.verdict == Verdict::kCoherent, satisfiable);
  }
}

TEST(Encode, SolverBudgetPropagates) {
  Xoshiro256ss rng(17);
  workload::SingleAddressParams params;
  params.num_histories = 8;
  params.ops_per_history = 10;
  params.num_values = 2;
  const auto trace = workload::generate_coherent(params, rng);
  sat::SolverOptions options;
  options.max_conflicts = 1;
  const auto result = check_via_sat(make(trace.execution), options);
  // Either it solves within one conflict or reports unknown — never wrong.
  if (result.verdict == Verdict::kCoherent) {
    const auto valid = check_coherent_schedule(trace.execution, 0, result.witness);
    EXPECT_TRUE(valid.ok);
  }
}

}  // namespace
}  // namespace vermem::encode
