// Tests for the paper's reductions. The decisive checks are machine
// round-trips: for random formulas, the constructed instance must be
// coherent (respectively SC) exactly when the brute-force SAT oracle says
// the formula is satisfiable, and assignments decoded from witness
// schedules must satisfy the formula.

#include <gtest/gtest.h>

#include "analysis/router.hpp"
#include "encode/vmc_to_cnf.hpp"
#include "reductions/restricted.hpp"
#include "reductions/sat_to_vmc.hpp"
#include "reductions/sat_to_vscc.hpp"
#include "reductions/sync_wrap.hpp"
#include "sat/brute.hpp"
#include "sat/gen.hpp"
#include "trace/address_index.hpp"
#include "trace/schedule.hpp"
#include "vmc/checker.hpp"
#include "vmc/exact.hpp"
#include "vsc/exact.hpp"

namespace vermem::reductions {
namespace {

using sat::Cnf;
using sat::neg;
using sat::pos;

Cnf formula_q_equals_u() {
  Cnf cnf;
  cnf.reserve_vars(1);
  cnf.add_unit(pos(0));
  return cnf;
}

// ---- Figure 4.1 / 4.2 ---------------------------------------------------

TEST(SatToVmc, Figure42Verbatim) {
  const SatToVmc red = sat_to_vmc(formula_q_equals_u());
  const Execution& exec = red.instance.execution;
  // H = {h1, h2, h_u, h_ubar, h3}, D = {d_u, d_ubar, d_c}.
  ASSERT_EQ(exec.num_processes(), 5u);
  const Value du = red.value_of_literal(pos(0));
  const Value dubar = red.value_of_literal(neg(0));
  const Value dc = red.value_of_clause(0);
  EXPECT_EQ(exec.history(red.h1).ops(), (std::vector<Operation>{W(0, du)}));
  EXPECT_EQ(exec.history(red.h2).ops(), (std::vector<Operation>{W(0, dubar)}));
  EXPECT_EQ(exec.history(red.history_of_pos_literal[0]).ops(),
            (std::vector<Operation>{R(0, du), R(0, dubar), W(0, dc)}));
  EXPECT_EQ(exec.history(red.history_of_neg_literal[0]).ops(),
            (std::vector<Operation>{R(0, dubar), R(0, du)}));
  EXPECT_EQ(exec.history(red.h3).ops(),
            (std::vector<Operation>{R(0, dc), W(0, du), W(0, dubar)}));
}

TEST(SatToVmc, SizeMatchesPaper) {
  Xoshiro256ss rng(7);
  const Cnf cnf = sat::random_ksat(10, 30, 3, rng);
  const SatToVmc red = sat_to_vmc(cnf);
  // 2m + 3 process histories.
  EXPECT_EQ(red.instance.num_histories(), 2 * 10 + 3u);
  // O(mn) operations: h1/h2 have m writes, h3 has n + 2m ops, literal
  // histories have 2 reads + their occurrence writes (3n in total).
  EXPECT_EQ(red.instance.num_operations(), 10 + 10 + (30 + 20) + (20 * 2 + 3 * 30u));
}

TEST(SatToVmc, EmptyClauseYieldsIncoherentInstance) {
  Cnf cnf;
  cnf.reserve_vars(1);
  cnf.add_clause({});
  const SatToVmc red = sat_to_vmc(cnf);
  EXPECT_EQ(vmc::check_exact(red.instance).verdict, vmc::Verdict::kIncoherent);
}

TEST(SatToVmc, RoundTripOnRandomFormulas) {
  Xoshiro256ss rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    const auto nvars = static_cast<sat::Var>(3 + rng.below(3));
    const auto nclauses = static_cast<std::size_t>(1 + rng.below(10));
    const Cnf cnf = sat::random_ksat(nvars, nclauses, 2 + rng.below(2), rng);
    const bool satisfiable = sat::solve_brute(cnf).has_value();

    const SatToVmc red = sat_to_vmc(cnf);
    const auto result = vmc::check_exact(red.instance);
    ASSERT_NE(result.verdict, vmc::Verdict::kUnknown);
    EXPECT_EQ(result.verdict == vmc::Verdict::kCoherent, satisfiable)
        << "trial " << trial << "\n"
        << sat::to_dimacs(cnf);

    if (result.verdict == vmc::Verdict::kCoherent) {
      // The witness really is a coherent schedule...
      const auto valid = check_coherent_schedule(red.instance.execution, 0,
                                                 result.witness);
      EXPECT_TRUE(valid.ok) << valid.violation;
      // ...and decodes to a satisfying assignment (Lemma 4.3).
      EXPECT_TRUE(cnf.satisfied_by(red.assignment_from_schedule(result.witness)));
    }
  }
}

// ---- Figure 5.1 equivalent ---------------------------------------------

TEST(Restricted3Ops, StructuralCaps) {
  Xoshiro256ss rng(13);
  const Cnf cnf = sat::random_ksat(9, 20, 3, rng);
  const RestrictedVmc red = three_sat_to_vmc_3ops(cnf);
  EXPECT_LE(red.instance.max_ops_per_process(), 3u);
  EXPECT_LE(red.instance.max_writes_per_value(), 2u);
  EXPECT_FALSE(red.instance.all_rmw());
}

TEST(Restricted3Ops, RejectsNon3Sat) {
  Cnf cnf;
  cnf.reserve_vars(2);
  cnf.add_binary(pos(0), pos(1));
  EXPECT_THROW(three_sat_to_vmc_3ops(cnf), std::invalid_argument);
}

TEST(Restricted3Ops, RoundTripOnRandomFormulas) {
  // The 3-ops construction has O(m + n) *histories*, which blows the
  // frontier search up quickly, so the bulk of the round trip runs
  // through the (independently validated) SAT-based checker; tiny
  // formulas additionally cross-check the exact search.
  Xoshiro256ss rng(17);
  for (int trial = 0; trial < 18; ++trial) {
    const auto nvars = static_cast<sat::Var>(3 + rng.below(2));
    const auto nclauses = static_cast<std::size_t>(1 + rng.below(5));
    const Cnf cnf = sat::random_ksat(nvars, nclauses, 3, rng);
    const bool satisfiable = sat::solve_brute(cnf).has_value();

    const RestrictedVmc red = three_sat_to_vmc_3ops(cnf);
    const auto result = encode::check_via_sat(red.instance);
    ASSERT_NE(result.verdict, vmc::Verdict::kUnknown) << result.reason();
    EXPECT_EQ(result.verdict == vmc::Verdict::kCoherent, satisfiable)
        << "trial " << trial << "\n"
        << sat::to_dimacs(cnf);
    if (result.verdict == vmc::Verdict::kCoherent) {
      const auto valid = check_coherent_schedule(red.instance.execution, 0,
                                                 result.witness);
      EXPECT_TRUE(valid.ok) << valid.violation;
    }

    if (nclauses <= 2) {
      vmc::ExactOptions budget;
      budget.deadline = Deadline::after_ms(20000);
      const auto exact = vmc::check_exact(red.instance, budget);
      if (exact.verdict != vmc::Verdict::kUnknown) {
        EXPECT_EQ(exact.verdict, result.verdict);
      }
    }
  }
}

// ---- Figure 5.2 equivalent ---------------------------------------------

TEST(RestrictedRmw, StructuralCaps) {
  Xoshiro256ss rng(19);
  const Cnf cnf = sat::random_ksat(9, 20, 3, rng);
  const RestrictedVmc red = three_sat_to_vmc_rmw(cnf);
  EXPECT_TRUE(red.instance.all_rmw());
  EXPECT_LE(red.instance.max_ops_per_process(), 2u);
  EXPECT_LE(red.instance.max_writes_per_value(), 3u);
  EXPECT_TRUE(red.instance.final_value().has_value());
}

TEST(RestrictedRmw, RejectsDegenerateInput) {
  Cnf empty;
  EXPECT_THROW(three_sat_to_vmc_rmw(empty), std::invalid_argument);
}

TEST(RestrictedRmw, RoundTripOnRandomFormulas) {
  Xoshiro256ss rng(23);
  for (int trial = 0; trial < 30; ++trial) {
    const auto nvars = static_cast<sat::Var>(3 + rng.below(3));
    const auto nclauses = static_cast<std::size_t>(1 + rng.below(6));
    const Cnf cnf = sat::random_ksat(nvars, nclauses, 3, rng);
    const bool satisfiable = sat::solve_brute(cnf).has_value();

    const RestrictedVmc red = three_sat_to_vmc_rmw(cnf);
    const auto result = vmc::check_exact(red.instance);
    ASSERT_NE(result.verdict, vmc::Verdict::kUnknown);
    EXPECT_EQ(result.verdict == vmc::Verdict::kCoherent, satisfiable)
        << "trial " << trial << "\n"
        << sat::to_dimacs(cnf);
    if (result.verdict == vmc::Verdict::kCoherent) {
      const auto valid = check_coherent_schedule(red.instance.execution, 0,
                                                 result.witness);
      EXPECT_TRUE(valid.ok) << valid.violation;
    }
  }
}

// ---- Figure 6.2: SAT -> VSCC --------------------------------------------

TEST(SatToVscc, ShapeMatchesPaper) {
  Xoshiro256ss rng(29);
  const Cnf cnf = sat::random_ksat(6, 10, 3, rng);
  const SatToVscc red = sat_to_vscc(cnf);
  // 2m+3 processes, m+n+1 addresses.
  EXPECT_EQ(red.execution.num_processes(), 2 * 6 + 3u);
  EXPECT_EQ(red.execution.addresses().size(), 6 + 10 + 1u);
}

TEST(SatToVscc, CoherentByConstruction) {
  // Figure 6.3: per-address coherence holds regardless of satisfiability.
  Xoshiro256ss rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    const Cnf cnf =
        sat::random_ksat(static_cast<sat::Var>(3 + rng.below(3)),
                         1 + rng.below(6), 2 + rng.below(2), rng);
    const SatToVscc red = sat_to_vscc(cnf);
    const AddressIndex index(red.execution);
    const auto report = analysis::verify_coherence_routed(index).report;
    EXPECT_TRUE(report.coherent())
        << (report.first_violation()
                ? std::to_string(report.first_violation()->addr) + ": " +
                      report.first_violation()->result.reason()
                : "unknown");
  }
}

TEST(SatToVscc, ScIffSatisfiable) {
  Xoshiro256ss rng(37);
  for (int trial = 0; trial < 25; ++trial) {
    const auto nvars = static_cast<sat::Var>(3 + rng.below(3));
    const auto nclauses = static_cast<std::size_t>(1 + rng.below(6));
    const Cnf cnf = sat::random_ksat(nvars, nclauses, 2 + rng.below(2), rng);
    const bool satisfiable = sat::solve_brute(cnf).has_value();

    const SatToVscc red = sat_to_vscc(cnf);
    const auto result = vsc::check_sc_exact(red.execution);
    ASSERT_NE(result.verdict, vmc::Verdict::kUnknown);
    EXPECT_EQ(result.verdict == vmc::Verdict::kCoherent, satisfiable)
        << "trial " << trial << "\n"
        << sat::to_dimacs(cnf);
    if (result.verdict == vmc::Verdict::kCoherent) {
      const auto valid = check_sc_schedule(red.execution, result.witness);
      EXPECT_TRUE(valid.ok) << valid.violation;
      EXPECT_TRUE(cnf.satisfied_by(red.assignment_from_schedule(result.witness)));
    }
  }
}

// ---- Figure 6.1: synchronization wrapping --------------------------------

TEST(SyncWrap, WrapsEveryDataOp) {
  const auto exec =
      ExecutionBuilder().process(W(0, 1), R(0, 1)).process(RW(0, 1, 2)).build();
  const Execution wrapped = wrap_with_synchronization(exec, 99);
  EXPECT_EQ(wrapped.history(0).size(), 6u);
  EXPECT_EQ(wrapped.history(1).size(), 3u);
  EXPECT_EQ(wrapped.history(0)[0], Acq(99));
  EXPECT_EQ(wrapped.history(0)[1], W(0, 1));
  EXPECT_EQ(wrapped.history(0)[2], Rel(99));
}

TEST(SyncWrap, StripInvertsWrap) {
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), R(1, 0))
                        .process(RW(1, 0, 2))
                        .initial(1, 0)
                        .final_value(1, 2)
                        .build();
  EXPECT_EQ(strip_synchronization(wrap_with_synchronization(exec, 99), 99), exec);
}

TEST(SyncWrap, PreservesScVerdictUnderPlainSc) {
  // Under SC the sync ops are order-only, so wrapping must not change the
  // verdict of the Figure 4.1 instance.
  Xoshiro256ss rng(41);
  for (int trial = 0; trial < 8; ++trial) {
    const Cnf cnf = sat::random_ksat(2, 1 + rng.below(4), 2, rng);
    const SatToVmc red = sat_to_vmc(cnf);
    const Execution wrapped =
        wrap_with_synchronization(red.instance.execution, 999);
    const auto plain = vmc::check_exact(red.instance);
    const auto synced = vsc::check_sc_exact(wrapped);
    EXPECT_EQ(plain.verdict, synced.verdict);
  }
}

}  // namespace
}  // namespace vermem::reductions
