// Tests for the VMC checkers: the exact frontier search, the polynomial
// special cases of Figure 5.3, the write-order algorithm of Section 5.2,
// the check_auto cascade oracle, and whole-execution verification
// through the analysis router. Every kCoherent verdict's witness is
// re-validated with the certificate checker.

#include <gtest/gtest.h>

#include "analysis/router.hpp"
#include "oracles/cascade.hpp"
#include "oracles/vmc/exact_legacy.hpp"
#include "trace/address_index.hpp"
#include "trace/schedule.hpp"
#include "vmc/bounded.hpp"
#include "vmc/checker.hpp"
#include "vmc/exact.hpp"
#include "vmc/packed_instance.hpp"
#include "vmc/special.hpp"
#include "vmc/write_order.hpp"
#include "workload/random.hpp"

namespace vermem::vmc {
namespace {

using workload::Fault;
using workload::GeneratedTrace;
using workload::SingleAddressParams;

VmcInstance make(const Execution& exec, Addr addr = 0) {
  return VmcInstance{exec, addr};
}

/// Whole-execution verification through the production dispatcher.
CoherenceReport routed(const Execution& exec,
                       const WriteOrderMap* write_orders = nullptr) {
  const AddressIndex index(exec);
  return analysis::verify_coherence_routed(index, write_orders).report;
}

void expect_valid_witness(const VmcInstance& instance, const CheckResult& result) {
  ASSERT_EQ(result.verdict, Verdict::kCoherent) << result.reason();
  const auto check =
      check_coherent_schedule(instance.execution, instance.addr, result.witness);
  EXPECT_TRUE(check.ok) << check.violation;
}

// ---- Paper Figure 4.2: the VMC instance for SAT instance Q = u --------

Execution figure_4_2() {
  // Values: d_u = 1, d_ubar = 2, d_c = 3.
  return ExecutionBuilder()
      .process(W(0, 1))                    // h1: W(d_u)
      .process(W(0, 2))                    // h2: W(d_ubar)
      .process(R(0, 1), R(0, 2), W(0, 3))  // h_u: R(d_u) R(d_ubar) W(d_c)
      .process(R(0, 2), R(0, 1))           // h_ubar: R(d_ubar) R(d_u)
      .process(R(0, 3), W(0, 1), W(0, 2))  // h3: R(d_c) W(d_u) W(d_ubar)
      .build();
}

TEST(Figure42, InstanceIsCoherent) {
  // Q = u is satisfiable, so a coherent schedule must exist.
  const auto instance = make(figure_4_2());
  const auto result = check_exact(instance);
  expect_valid_witness(instance, result);
}

TEST(Figure42, WduMustPrecedeWdubar) {
  // The paper: a coherent schedule exists iff W(d_u) from h1 precedes
  // W(d_ubar) from h2 — i.e. iff u is assigned true. Verify by checking
  // the witness ordering.
  const auto exec = figure_4_2();
  const auto result = check_exact(make(exec));
  ASSERT_EQ(result.verdict, Verdict::kCoherent);
  std::size_t pos_w1 = 0, pos_w2 = 0;
  for (std::size_t s = 0; s < result.witness.size(); ++s) {
    if (result.witness[s] == OpRef{0, 0}) pos_w1 = s;
    if (result.witness[s] == OpRef{1, 0}) pos_w2 = s;
  }
  EXPECT_LT(pos_w1, pos_w2);
}

TEST(Figure42, UnsatisfiableVariantIsIncoherent) {
  // Q = u AND NOT u: add a second "clause" history requiring the other
  // order as well. Encoded by also giving h_ubar a clause write that h3
  // must read: both orders of (W(d_u), W(d_ubar)) would be required.
  const auto exec =
      ExecutionBuilder()
          .process(W(0, 1))                    // h1
          .process(W(0, 2))                    // h2
          .process(R(0, 1), R(0, 2), W(0, 3))  // h_u writes d_c1 (u true)
          .process(R(0, 2), R(0, 1), W(0, 4))  // h_ubar writes d_c2 (u false)
          .process(R(0, 3), R(0, 4), W(0, 1), W(0, 2))  // h3 reads both
          .build();
  const auto result = check_exact(make(exec));
  EXPECT_EQ(result.verdict, Verdict::kIncoherent);
}

// ---- Exact checker basics ---------------------------------------------

TEST(Exact, EmptyInstanceIsCoherent) {
  const auto result = check_exact(make(Execution{}));
  EXPECT_EQ(result.verdict, Verdict::kCoherent);
  EXPECT_TRUE(result.witness.empty());
}

TEST(Exact, SingleReadOfInitialValue) {
  const auto exec = ExecutionBuilder().process(R(0, 7)).initial(0, 7).build();
  expect_valid_witness(make(exec), check_exact(make(exec)));
}

TEST(Exact, SingleReadOfWrongInitialValue) {
  const auto exec = ExecutionBuilder().process(R(0, 7)).initial(0, 3).build();
  EXPECT_EQ(check_exact(make(exec)).verdict, Verdict::kIncoherent);
}

TEST(Exact, ReadOfNeverWrittenValue) {
  const auto exec = ExecutionBuilder().process(W(0, 1), R(0, 9)).build();
  EXPECT_EQ(check_exact(make(exec)).verdict, Verdict::kIncoherent);
}

TEST(Exact, CrossReaderOrderConflictIsIncoherent) {
  // Classic coherence violation: two readers observe the two writes in
  // opposite orders.
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1))
                        .process(W(0, 2))
                        .process(R(0, 1), R(0, 2))
                        .process(R(0, 2), R(0, 1))
                        .build();
  EXPECT_EQ(check_exact(make(exec)).verdict, Verdict::kIncoherent);
}

TEST(Exact, SameOrderReadersAreCoherent) {
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1))
                        .process(W(0, 2))
                        .process(R(0, 1), R(0, 2))
                        .process(R(0, 1), R(0, 2))
                        .build();
  expect_valid_witness(make(exec), check_exact(make(exec)));
}

TEST(Exact, FinalValueForcesWriteOrder) {
  const auto coherent = ExecutionBuilder()
                            .process(W(0, 1))
                            .process(W(0, 2))
                            .final_value(0, 1)
                            .build();
  expect_valid_witness(make(coherent), check_exact(make(coherent)));

  // Reading 2 after 1 forces W(1) before W(2), but final value says 1 last.
  const auto conflicted = ExecutionBuilder()
                              .process(W(0, 1), R(0, 2))
                              .process(W(0, 2))
                              .final_value(0, 1)
                              .build();
  EXPECT_EQ(check_exact(make(conflicted)).verdict, Verdict::kIncoherent);
}

TEST(Exact, RmwChainNeedsExactHandoff) {
  const auto exec = ExecutionBuilder()
                        .process(RW(0, 0, 1))
                        .process(RW(0, 1, 2))
                        .process(RW(0, 2, 3))
                        .build();
  expect_valid_witness(make(exec), check_exact(make(exec)));

  const auto broken = ExecutionBuilder()
                          .process(RW(0, 0, 1))
                          .process(RW(0, 0, 2))  // also claims to read initial
                          .build();
  EXPECT_EQ(check_exact(make(broken)).verdict, Verdict::kIncoherent);
}

TEST(Exact, StateBudgetYieldsUnknown) {
  // A moderately contended instance with a tiny budget must give up.
  Xoshiro256ss rng(5);
  SingleAddressParams params;
  params.num_histories = 6;
  params.ops_per_history = 8;
  const auto trace = workload::generate_coherent(params, rng);
  ExactOptions options;
  options.max_states = 1;
  const auto result = check_exact(make(trace.execution), options);
  EXPECT_EQ(result.verdict, Verdict::kUnknown);
}

TEST(Exact, RejectsMultiAddressInstance) {
  const auto exec = ExecutionBuilder().process(W(0, 1), W(1, 1)).build();
  EXPECT_EQ(check_exact(make(exec, 0)).verdict, Verdict::kUnknown);
}

TEST(Exact, AblationModesAgree) {
  Xoshiro256ss rng(17);
  SingleAddressParams params;
  params.num_histories = 3;
  params.ops_per_history = 5;
  params.num_values = 3;
  for (int trial = 0; trial < 25; ++trial) {
    const auto trace = workload::generate_coherent(params, rng);
    // Also test perturbed (possibly incoherent) variants.
    std::vector<Execution> cases{trace.execution};
    for (const Fault f : {Fault::kStaleRead, Fault::kFabricatedRead}) {
      if (auto faulted = workload::inject_fault(trace, f, rng))
        cases.push_back(std::move(*faulted));
    }
    for (const auto& exec : cases) {
      const auto instance = make(exec);
      const auto baseline = check_exact(instance);
      for (const bool eager : {true, false}) {
        for (const bool memo : {true, false}) {
          ExactOptions options;
          options.eager_reads = eager;
          options.memoize = memo;
          const auto result = check_exact(instance, options);
          EXPECT_EQ(result.verdict, baseline.verdict)
              << "eager=" << eager << " memo=" << memo;
          if (result.verdict == Verdict::kCoherent)
            expect_valid_witness(instance, result);
        }
      }
    }
  }
}

// ---- One-op-per-process (Figure 5.3 row 1) -----------------------------

TEST(OneOp, CoherentMix) {
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1))
                        .process(R(0, 1))
                        .process(R(0, 0))  // initial
                        .process(W(0, 2))
                        .final_value(0, 2)
                        .build();
  const auto instance = make(exec);
  const auto result = check_one_op_per_process(instance);
  expect_valid_witness(instance, result);
}

TEST(OneOp, UnreadableValue) {
  const auto exec = ExecutionBuilder().process(W(0, 1)).process(R(0, 9)).build();
  EXPECT_EQ(check_one_op_per_process(make(exec)).verdict, Verdict::kIncoherent);
}

TEST(OneOp, FinalValueNeverWritten) {
  const auto exec =
      ExecutionBuilder().process(W(0, 1)).final_value(0, 9).build();
  EXPECT_EQ(check_one_op_per_process(make(exec)).verdict, Verdict::kIncoherent);
}

TEST(OneOp, NotApplicableWhenHistoriesAreLong) {
  const auto exec = ExecutionBuilder().process(W(0, 1), R(0, 1)).build();
  EXPECT_EQ(check_one_op_per_process(make(exec)).verdict, Verdict::kUnknown);
}

TEST(OneOp, NotApplicableWithRmw) {
  const auto exec = ExecutionBuilder().process(RW(0, 0, 1)).build();
  EXPECT_EQ(check_one_op_per_process(make(exec)).verdict, Verdict::kUnknown);
}

TEST(OneOp, MatchesExactOnRandomInstances) {
  Xoshiro256ss rng(23);
  SingleAddressParams params;
  params.num_histories = 10;
  params.ops_per_history = 1;
  params.num_values = 3;
  params.rmw_fraction = 0.0;
  for (int trial = 0; trial < 40; ++trial) {
    const auto trace = workload::generate_coherent(params, rng);
    std::vector<Execution> cases{trace.execution};
    for (const Fault f :
         {Fault::kStaleRead, Fault::kLostWrite, Fault::kFabricatedRead}) {
      if (auto faulted = workload::inject_fault(trace, f, rng))
        cases.push_back(std::move(*faulted));
    }
    for (const auto& exec : cases) {
      const auto instance = make(exec);
      const auto fast = check_one_op_per_process(instance);
      const auto slow = check_exact(instance);
      ASSERT_NE(fast.verdict, Verdict::kUnknown);
      EXPECT_EQ(fast.verdict, slow.verdict);
      if (fast.verdict == Verdict::kCoherent) expect_valid_witness(instance, fast);
    }
  }
}

// ---- RMW one-op (Eulerian trail) ---------------------------------------

TEST(RmwOneOp, SimpleChain) {
  const auto exec = ExecutionBuilder()
                        .process(RW(0, 0, 1))
                        .process(RW(0, 1, 2))
                        .final_value(0, 2)
                        .build();
  const auto instance = make(exec);
  expect_valid_witness(instance, check_rmw_one_op_per_process(instance));
}

TEST(RmwOneOp, BranchAndReturn) {
  // 0 -> 1 -> 0 -> 2: a vertex revisited; still a single trail.
  const auto exec = ExecutionBuilder()
                        .process(RW(0, 0, 1))
                        .process(RW(0, 1, 0))
                        .process(RW(0, 0, 2))
                        .build();
  const auto instance = make(exec);
  expect_valid_witness(instance, check_rmw_one_op_per_process(instance));
}

TEST(RmwOneOp, DisconnectedGraphIsIncoherent) {
  const auto exec = ExecutionBuilder()
                        .process(RW(0, 0, 1))
                        .process(RW(0, 5, 6))  // unreachable island
                        .build();
  EXPECT_EQ(check_rmw_one_op_per_process(make(exec)).verdict,
            Verdict::kIncoherent);
}

TEST(RmwOneOp, UnbalancedDegreesAreIncoherent) {
  // Two RMWs read 0 but only one writes it back... (0->1, 0->2).
  const auto exec = ExecutionBuilder()
                        .process(RW(0, 0, 1))
                        .process(RW(0, 0, 2))
                        .build();
  EXPECT_EQ(check_rmw_one_op_per_process(make(exec)).verdict,
            Verdict::kIncoherent);
}

TEST(RmwOneOp, FinalValueConstrainsTrailEnd) {
  const auto exec = ExecutionBuilder()
                        .process(RW(0, 0, 1))
                        .process(RW(0, 1, 2))
                        .final_value(0, 1)
                        .build();
  EXPECT_EQ(check_rmw_one_op_per_process(make(exec)).verdict,
            Verdict::kIncoherent);
}

TEST(RmwOneOp, MatchesExactOnRandomInstances) {
  Xoshiro256ss rng(31);
  SingleAddressParams params;
  params.num_histories = 8;
  params.ops_per_history = 1;
  params.num_values = 3;
  params.write_fraction = 1.0;
  params.rmw_fraction = 1.0;
  for (int trial = 0; trial < 40; ++trial) {
    const auto trace = workload::generate_coherent(params, rng);
    std::vector<Execution> cases{trace.execution};
    if (auto faulted = workload::inject_fault(trace, Fault::kStaleRead, rng))
      cases.push_back(std::move(*faulted));
    for (const auto& exec : cases) {
      const auto instance = make(exec);
      const auto fast = check_rmw_one_op_per_process(instance);
      const auto slow = check_exact(instance);
      ASSERT_NE(fast.verdict, Verdict::kUnknown);
      EXPECT_EQ(fast.verdict, slow.verdict);
      if (fast.verdict == Verdict::kCoherent) expect_valid_witness(instance, fast);
    }
  }
}

// ---- Read-map (unique writes) ------------------------------------------

TEST(ReadMap, CoherentClusters) {
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), R(0, 2))
                        .process(W(0, 2))
                        .process(R(0, 0), R(0, 1))
                        .build();
  const auto instance = make(exec);
  expect_valid_witness(instance, check_read_map(instance));
}

TEST(ReadMap, CycleIsIncoherent) {
  // P0 sees 1 before 2; P1 sees 2 before 1.
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), R(0, 2))
                        .process(W(0, 2), R(0, 1))
                        .build();
  // Order: W1 .. R2 requires W2 after W1's cluster... builds a 2-cycle.
  EXPECT_EQ(check_read_map(make(exec)).verdict, Verdict::kIncoherent);
  // Cross-check with the exact solver.
  EXPECT_EQ(check_exact(make(exec)).verdict, Verdict::kIncoherent);
}

TEST(ReadMap, ReadBeforeOwnWrite) {
  const auto exec = ExecutionBuilder().process(R(0, 1), W(0, 1)).build();
  EXPECT_EQ(check_read_map(make(exec)).verdict, Verdict::kIncoherent);
}

TEST(ReadMap, InitialReadForcedLate) {
  const auto exec = ExecutionBuilder().process(W(0, 1), R(0, 0)).build();
  EXPECT_EQ(check_read_map(make(exec)).verdict, Verdict::kIncoherent);
}

TEST(ReadMap, FinalValueMustBeLast) {
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), W(0, 2))
                        .final_value(0, 1)
                        .build();
  EXPECT_EQ(check_read_map(make(exec)).verdict, Verdict::kIncoherent);
}

TEST(ReadMap, NotApplicableOnDoubleWrite) {
  const auto exec = ExecutionBuilder().process(W(0, 1)).process(W(0, 1)).build();
  EXPECT_EQ(check_read_map(make(exec)).verdict, Verdict::kUnknown);
}

TEST(ReadMap, NotApplicableWhenWritingInitialValue) {
  const auto exec = ExecutionBuilder().process(W(0, 0)).initial(0, 0).build();
  EXPECT_EQ(check_read_map(make(exec)).verdict, Verdict::kUnknown);
}

TEST(ReadMap, MatchesExactOnUniqueWriteInstances) {
  Xoshiro256ss rng(41);
  // Generate with many values so unique-write traces appear frequently;
  // skip trials where a value repeats.
  SingleAddressParams params;
  params.num_histories = 4;
  params.ops_per_history = 4;
  params.num_values = 40;
  params.rmw_fraction = 0.0;
  int tested = 0;
  for (int trial = 0; trial < 120 && tested < 30; ++trial) {
    const auto trace = workload::generate_coherent(params, rng);
    const auto instance = make(trace.execution);
    if (instance.max_writes_per_value() > 1) continue;
    ++tested;
    std::vector<Execution> cases{trace.execution};
    for (const Fault f : {Fault::kStaleRead, Fault::kReorderedOps}) {
      if (auto faulted = workload::inject_fault(trace, f, rng))
        cases.push_back(std::move(*faulted));
    }
    for (const auto& exec : cases) {
      const auto inst = make(exec);
      const auto fast = check_read_map(inst);
      if (fast.verdict == Verdict::kUnknown) continue;  // mutation broke precondition
      const auto slow = check_exact(inst);
      EXPECT_EQ(fast.verdict, slow.verdict) << fast.reason();
      if (fast.verdict == Verdict::kCoherent) expect_valid_witness(inst, fast);
    }
  }
  EXPECT_GE(tested, 10);
}

// ---- RMW read-map (forced chain) ----------------------------------------

TEST(RmwReadMap, ForcedChainCoherent) {
  const auto exec = ExecutionBuilder()
                        .process(RW(0, 0, 1), RW(0, 2, 3))
                        .process(RW(0, 1, 2))
                        .build();
  const auto instance = make(exec);
  expect_valid_witness(instance, check_rmw_read_map(instance));
}

TEST(RmwReadMap, ChainAgainstProgramOrder) {
  const auto exec = ExecutionBuilder()
                        .process(RW(0, 2, 3), RW(0, 0, 1))  // must run 2nd, 1st
                        .process(RW(0, 1, 2))
                        .build();
  EXPECT_EQ(check_rmw_read_map(make(exec)).verdict, Verdict::kIncoherent);
}

TEST(RmwReadMap, DuplicateReaderIncoherent) {
  const auto exec = ExecutionBuilder()
                        .process(RW(0, 0, 1))
                        .process(RW(0, 1, 2), RW(0, 1, 3))
                        .build();
  // Value 1 is written once but read by two RMWs: only one can follow the
  // write, so the instance is incoherent.
  EXPECT_EQ(check_rmw_read_map(make(exec)).verdict, Verdict::kIncoherent);
}

// ---- Write-order algorithm (Section 5.2) --------------------------------

TEST(WriteOrder, AcceptsGeneratingOrder) {
  Xoshiro256ss rng(51);
  SingleAddressParams params;
  const auto trace = workload::generate_coherent(params, rng);
  const auto instance = make(trace.execution);
  const auto result = check_with_write_order(instance, trace.write_order);
  expect_valid_witness(instance, result);
}

TEST(WriteOrder, RejectsOrderViolatingProgramOrder) {
  const auto exec = ExecutionBuilder().process(W(0, 1), W(0, 2)).build();
  const WriteOrder reversed{{0, 1}, {0, 0}};
  EXPECT_EQ(check_with_write_order(make(exec), reversed).verdict,
            Verdict::kIncoherent);
}

TEST(WriteOrder, RejectsIncompleteOrder) {
  const auto exec = ExecutionBuilder().process(W(0, 1), W(0, 2)).build();
  EXPECT_EQ(check_with_write_order(make(exec), {{0, 0}}).verdict,
            Verdict::kUnknown);
}

TEST(WriteOrder, ReadWindowIsBoundedByOwnNextWrite) {
  // P0: R(2) W(1). The read must precede W(1); with order [W(1), W(2)] the
  // value 2 is only available after the read's window closes.
  const auto exec =
      ExecutionBuilder().process(R(0, 2), W(0, 1)).process(W(0, 2)).build();
  const WriteOrder order{{0, 1}, {1, 0}};  // W(1) then W(2)
  EXPECT_EQ(check_with_write_order(make(exec), order).verdict,
            Verdict::kIncoherent);
  const WriteOrder good{{1, 0}, {0, 1}};  // W(2) then W(1)
  const auto result = check_with_write_order(make(exec), good);
  expect_valid_witness(make(exec), result);
}

TEST(WriteOrder, RmwReadComponentPinned) {
  const auto exec =
      ExecutionBuilder().process(RW(0, 0, 1)).process(RW(0, 1, 2)).build();
  const WriteOrder good{{0, 0}, {1, 0}};
  expect_valid_witness(make(exec), check_with_write_order(make(exec), good));
  const WriteOrder bad{{1, 0}, {0, 0}};
  EXPECT_EQ(check_with_write_order(make(exec), bad).verdict,
            Verdict::kIncoherent);
}

TEST(WriteOrder, FinalValueChecked) {
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1))
                        .process(W(0, 2))
                        .final_value(0, 2)
                        .build();
  EXPECT_EQ(
      check_with_write_order(make(exec), {{1, 0}, {0, 0}}).verdict,
      Verdict::kIncoherent);
  expect_valid_witness(make(exec),
                       check_with_write_order(make(exec), {{0, 0}, {1, 0}}));
}

TEST(WriteOrder, ExtractRoundTripsThroughWitness) {
  Xoshiro256ss rng(61);
  SingleAddressParams params;
  params.num_histories = 5;
  for (int trial = 0; trial < 20; ++trial) {
    const auto trace = workload::generate_coherent(params, rng);
    const auto instance = make(trace.execution);
    const auto exact = check_exact(instance);
    ASSERT_EQ(exact.verdict, Verdict::kCoherent);
    // The write-order of the exact checker's own witness must verify.
    const auto order = extract_write_order(instance, exact.witness);
    const auto replay = check_with_write_order(instance, order);
    expect_valid_witness(instance, replay);
  }
}

TEST(WriteOrder, SoundWithRespectToExactOnFaultyTraces) {
  // If the write-order checker accepts, the instance is coherent; if the
  // exact checker says incoherent, the write-order checker must reject.
  Xoshiro256ss rng(71);
  SingleAddressParams params;
  params.num_histories = 4;
  params.ops_per_history = 6;
  for (int trial = 0; trial < 40; ++trial) {
    const auto trace = workload::generate_coherent(params, rng);
    for (const Fault f : {Fault::kStaleRead, Fault::kLostWrite,
                          Fault::kFabricatedRead, Fault::kReorderedOps}) {
      auto faulted = workload::inject_fault(trace, f, rng);
      if (!faulted) continue;
      const auto instance = make(*faulted);
      const auto with_order = check_with_write_order(instance, trace.write_order);
      const auto exact = check_exact(instance);
      if (with_order.verdict == Verdict::kCoherent) {
        EXPECT_EQ(exact.verdict, Verdict::kCoherent) << to_string(f);
        expect_valid_witness(instance, with_order);
      }
      if (exact.verdict == Verdict::kIncoherent) {
        EXPECT_NE(with_order.verdict, Verdict::kCoherent) << to_string(f);
      }
    }
  }
}

TEST(RmwWriteOrder, TotalOrderScan) {
  const auto exec = ExecutionBuilder()
                        .process(RW(0, 0, 1), RW(0, 2, 0))
                        .process(RW(0, 1, 2))
                        .build();
  const WriteOrder order{{0, 0}, {1, 0}, {0, 1}};
  const auto instance = make(exec);
  expect_valid_witness(instance, check_rmw_with_write_order(instance, order));
  const WriteOrder bad{{0, 0}, {0, 1}, {1, 0}};
  EXPECT_EQ(check_rmw_with_write_order(instance, bad).verdict,
            Verdict::kIncoherent);
}

TEST(RmwWriteOrder, NotApplicableWithPureOps) {
  const auto exec = ExecutionBuilder().process(W(0, 1)).build();
  EXPECT_EQ(check_rmw_with_write_order(make(exec), {{0, 0}}).verdict,
            Verdict::kUnknown);
}

// ---- Dispatch + whole-execution API -------------------------------------

TEST(CheckAuto, PicksSpecialCasesAndAgreesWithExact) {
  Xoshiro256ss rng(81);
  for (int trial = 0; trial < 30; ++trial) {
    SingleAddressParams params;
    params.num_histories = 2 + rng.below(4);
    params.ops_per_history = 1 + rng.below(5);
    params.num_values = 2 + rng.below(6);
    params.rmw_fraction = rng.chance(0.5) ? 1.0 : 0.0;
    if (params.rmw_fraction == 1.0) params.write_fraction = 1.0;
    const auto trace = workload::generate_coherent(params, rng);
    const auto instance = make(trace.execution);
    const auto dispatched = oracles::check_auto(instance);
    const auto exact = check_exact(instance);
    EXPECT_EQ(dispatched.verdict, exact.verdict);
    if (dispatched.verdict == Verdict::kCoherent)
      expect_valid_witness(instance, dispatched);
  }
}

TEST(VerifyCoherence, MultiAddressCoherentTrace) {
  Xoshiro256ss rng(91);
  workload::MultiAddressParams params;
  const auto trace = workload::generate_sc(params, rng);
  const auto report = routed(trace.execution);
  EXPECT_TRUE(report.coherent());
  EXPECT_EQ(report.addresses.size(), trace.execution.addresses().size());
}

TEST(VerifyCoherence, DetectsPlantedViolation) {
  // Coherent on address 0, planted cross-reader conflict on address 1.
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), W(1, 1))
                        .process(W(1, 2))
                        .process(R(1, 1), R(1, 2))
                        .process(R(1, 2), R(1, 1))
                        .build();
  const auto report = routed(exec);
  EXPECT_EQ(report.verdict, Verdict::kIncoherent);
  ASSERT_NE(report.first_violation(), nullptr);
  EXPECT_EQ(report.first_violation()->addr, 1u);
}

TEST(VerifyCoherence, FirstViolationIsRecordedAtAggregation) {
  // Violations planted on addresses 2 and 5: first_violation() must be
  // the lowest offending address, located via the recorded index (no
  // rescan), and the index must agree with the report entry.
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), W(2, 1), W(5, 1))
                        .process(R(2, 9), R(5, 9))
                        .build();
  const auto report = routed(exec);
  EXPECT_EQ(report.verdict, Verdict::kIncoherent);
  ASSERT_NE(report.first_violation_index, CoherenceReport::kNoViolation);
  ASSERT_LT(report.first_violation_index, report.addresses.size());
  ASSERT_NE(report.first_violation(), nullptr);
  EXPECT_EQ(report.first_violation()->addr, 2u);
  EXPECT_EQ(&report.addresses[report.first_violation_index],
            report.first_violation());

  // Coherent reports carry the sentinel and a null first_violation.
  const auto clean = routed(ExecutionBuilder().process(W(0, 1), R(0, 1)).build());
  EXPECT_EQ(clean.first_violation_index, CoherenceReport::kNoViolation);
  EXPECT_EQ(clean.first_violation(), nullptr);
}

TEST(VerifyCoherenceWithWriteOrder, UsesRecordedOrders) {
  Xoshiro256ss rng(101);
  workload::MultiAddressParams params;
  params.num_processes = 4;
  params.ops_per_process = 30;
  const auto trace = workload::generate_sc(params, rng);
  const auto report = routed(trace.execution, &trace.write_orders);
  EXPECT_TRUE(report.coherent());
  // Witnesses come back in original coordinates and validate per address.
  for (const auto& [addr, result] : report.addresses) {
    const auto check = check_coherent_schedule(trace.execution, addr, result.witness);
    EXPECT_TRUE(check.ok) << check.violation;
  }
}

TEST(VerifyCoherenceWithWriteOrder, BadOrderRejects) {
  const auto exec = ExecutionBuilder().process(W(0, 1), W(0, 2)).build();
  WriteOrderMap orders;
  orders[0] = {{0, 1}, {0, 0}};
  const auto report = routed(exec, &orders);
  EXPECT_EQ(report.verdict, Verdict::kIncoherent);
}

// ---- Differential: arena/packed-key search vs frozen legacy ----------

// The hot-path rework (arena-backed frontier, packed keys, SoA stack)
// must be invisible at the semantic level: same verdicts, same witness,
// and the same SearchStats counters — the searches explore identical
// state sequences, so any divergence is a dedup or ordering bug, not an
// acceptable "different but valid" answer.
void expect_stats_match_legacy(const SearchStats& now,
                               const SearchStats& legacy) {
  EXPECT_EQ(now.states_visited, legacy.states_visited);
  EXPECT_EQ(now.transitions, legacy.transitions);
  EXPECT_EQ(now.max_frontier, legacy.max_frontier);
  EXPECT_EQ(now.prunes, legacy.prunes);
}

TEST(ExactDifferential, MatchesLegacyOnRandomizedAndFaultedTraces) {
  Xoshiro256ss rng(97);
  for (int trial = 0; trial < 40; ++trial) {
    SingleAddressParams params;
    params.num_histories = 2 + rng.below(4);
    params.ops_per_history = 2 + rng.below(7);
    params.num_values = 2 + rng.below(3);
    const auto trace = workload::generate_coherent(params, rng);
    std::vector<Execution> cases{trace.execution};
    for (const Fault f : {Fault::kStaleRead, Fault::kLostWrite,
                          Fault::kFabricatedRead, Fault::kReorderedOps}) {
      if (auto faulted = workload::inject_fault(trace, f, rng))
        cases.push_back(std::move(*faulted));
    }
    for (const auto& exec : cases) {
      const auto instance = make(exec);
      const auto now = check_exact(instance);
      const auto legacy = check_exact_legacy(instance);
      ASSERT_EQ(now.verdict, legacy.verdict) << "trial " << trial;
      EXPECT_EQ(now.witness, legacy.witness);
      expect_stats_match_legacy(now.stats, legacy.stats);
      if (now.verdict == Verdict::kCoherent)
        expect_valid_witness(instance, now);
    }
  }
}

TEST(ExactDifferential, MatchesLegacyUnderAblatedOptions) {
  // The equivalence must hold in every search mode, not just the default:
  // disabling memoization or eager reads changes the explored sequence,
  // and legacy and reworked searches must change in lockstep.
  Xoshiro256ss rng(31);
  SingleAddressParams params;
  params.num_histories = 3;
  params.ops_per_history = 5;
  params.num_values = 3;
  for (int trial = 0; trial < 10; ++trial) {
    const auto trace = workload::generate_coherent(params, rng);
    std::vector<Execution> cases{trace.execution};
    if (auto faulted = workload::inject_fault(trace, Fault::kStaleRead, rng))
      cases.push_back(std::move(*faulted));
    for (const auto& exec : cases) {
      for (const bool eager : {true, false}) {
        for (const bool memo : {true, false}) {
          ExactOptions options;
          options.eager_reads = eager;
          options.memoize = memo;
          const auto now = check_exact(make(exec), options);
          const auto legacy = check_exact_legacy(make(exec), options);
          ASSERT_EQ(now.verdict, legacy.verdict)
              << "eager=" << eager << " memo=" << memo;
          EXPECT_EQ(now.witness, legacy.witness);
          expect_stats_match_legacy(now.stats, legacy.stats);
        }
      }
    }
  }
}

TEST(ExactDifferential, ArenaStatsArePopulated) {
  // The reworked search must account its storage: any instance that
  // reaches the frontier search reserves arena space and serves at least
  // one allocation from it; the frozen legacy reports zeros by contract.
  const auto instance = make(figure_4_2());
  const auto now = check_exact(instance);
  EXPECT_GT(now.stats.arena_reserved, 0u);
  EXPECT_GT(now.stats.arena_high_water, 0u);
  EXPECT_GT(now.stats.arena_allocations, 0u);
  EXPECT_LE(now.stats.arena_high_water, now.stats.arena_reserved);
  const auto legacy = check_exact_legacy(instance);
  EXPECT_EQ(legacy.stats.arena_reserved, 0u);
}

// ---- Differential: packed-state kernel edge cases --------------------

// The kernel packs a state into W 64-bit words (support/state_codec.hpp,
// vmc/packed_instance.hpp). These cases aim at the packing itself: field
// widths at bit-width boundaries, a zero-width value field, unheld read
// values, empty histories and multi-word keys. Each must match the
// frozen legacy search on verdict, witness and every search counter,
// and the bounded-k BFS (same compiled instance, independent search) on
// the verdict.
void expect_kernel_matches_legacy(const Execution& exec,
                                  ExactOptions options = {}) {
  const auto instance = make(exec);
  const auto now = check_exact(instance, options);
  const auto legacy = check_exact_legacy(instance, options);
  ASSERT_EQ(now.verdict, legacy.verdict) << legacy.reason();
  EXPECT_EQ(now.witness, legacy.witness);
  expect_stats_match_legacy(now.stats, legacy.stats);
  if (now.verdict == Verdict::kCoherent) expect_valid_witness(instance, now);
  if (now.verdict == Verdict::kUnknown) {
    ASSERT_NE(now.unknown_reason(), nullptr);
    ASSERT_NE(legacy.unknown_reason(), nullptr);
    EXPECT_EQ(now.unknown_reason()->reason, legacy.unknown_reason()->reason);
  }
}

void expect_bounded_agrees(const Execution& exec, const CheckResult& exact) {
  const auto bfs = check_bounded_k(make(exec));
  EXPECT_EQ(bfs.verdict, exact.verdict);
  if (bfs.verdict == Verdict::kCoherent) expect_valid_witness(make(exec), bfs);
}

/// `base`'s histories truncated to the given lengths (a coherent trace
/// truncated may well be incoherent; both outcomes are worth comparing).
Execution with_lengths(const Execution& base,
                       const std::vector<std::size_t>& lengths) {
  ExecutionBuilder builder;
  for (std::size_t p = 0; p < lengths.size(); ++p) {
    const auto& history = base.history(p % base.num_processes());
    std::vector<Operation> ops(history.begin(),
                               history.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(lengths[p], history.size())));
    builder.process_ops(std::move(ops));
  }
  Execution exec = builder.build();
  exec.set_initial_value(0, base.initial_value(0));
  return exec;
}

TEST(PackedKernel, HistoryLengthsAtBitWidthBoundaries) {
  // A position field holds 0..len, so len = 2^j - 1 fits j bits and
  // len = 2^j needs j + 1: both sides of every boundary up to 32.
  Xoshiro256ss rng(2003);
  SingleAddressParams params;
  params.num_histories = 3;
  params.ops_per_history = 32;
  params.num_values = 2;
  params.record_final_value = false;
  for (std::size_t j = 1; j <= 5; ++j) {
    const std::size_t below = (std::size_t{1} << j) - 1;
    const std::size_t at = std::size_t{1} << j;
    for (int trial = 0; trial < 3; ++trial) {
      const auto trace = workload::generate_coherent(params, rng);
      for (const auto& lengths : std::vector<std::vector<std::size_t>>{
               {below, below, below}, {at, at, at}, {below, at, 1}}) {
        const Execution exec = with_lengths(trace.execution, lengths);
        SCOPED_TRACE("j=" + std::to_string(j));
        expect_kernel_matches_legacy(exec);
        expect_bounded_agrees(exec, check_exact(make(exec)));
      }
    }
  }
}

TEST(PackedKernel, SingleValueInstanceHasZeroWidthValueField) {
  // Every write stores the initial value: one value id, a 0-bit field.
  const auto coherent = ExecutionBuilder()
                            .process(W(0, 0), R(0, 0), W(0, 0))
                            .process(R(0, 0), RW(0, 0, 0))
                            .process(R(0, 0))
                            .final_value(0, 0)
                            .build();
  expect_kernel_matches_legacy(coherent);
  EXPECT_EQ(check_exact(make(coherent)).verdict, Verdict::kCoherent);
  expect_bounded_agrees(coherent, check_exact(make(coherent)));
  // Same, but one read wants a value nobody holds.
  const auto incoherent = ExecutionBuilder()
                              .process(W(0, 0), R(0, 0))
                              .process(R(0, 0), R(0, 5))
                              .build();
  expect_kernel_matches_legacy(incoherent);
  EXPECT_EQ(check_exact(make(incoherent)).verdict, Verdict::kIncoherent);
  expect_bounded_agrees(incoherent, check_exact(make(incoherent)));
}

TEST(PackedKernel, ReadsOfNeverWrittenValues) {
  // Unheld read values (and an unheld final value) compile to an id no
  // state holds; they must block exactly where the legacy search blocks.
  const std::vector<Execution> cases = {
      ExecutionBuilder().process(W(0, 1), R(0, 9)).process(R(0, 1)).build(),
      ExecutionBuilder().process(R(0, 9)).process(W(0, 1)).build(),
      ExecutionBuilder()
          .process(W(0, 1), W(0, 2))
          .process(R(0, 2), R(0, 7), R(0, 1))
          .build(),
      ExecutionBuilder().process(W(0, 1)).process(RW(0, 3, 4)).build(),
      ExecutionBuilder().process(W(0, 1), R(0, 1)).final_value(0, 8).build(),
      ExecutionBuilder().process(R(0, 0), R(0, 0)).final_value(0, 8).build(),
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    expect_kernel_matches_legacy(cases[i]);
    const auto exact = check_exact(make(cases[i]));
    EXPECT_EQ(exact.verdict, Verdict::kIncoherent);
    expect_bounded_agrees(cases[i], exact);
  }
  // Faulted traces plant unheld reads in otherwise coherent searches.
  Xoshiro256ss rng(404);
  SingleAddressParams params;
  params.num_histories = 4;
  params.ops_per_history = 6;
  for (int trial = 0; trial < 20; ++trial) {
    const auto trace = workload::generate_coherent(params, rng);
    if (auto faulted =
            workload::inject_fault(trace, Fault::kFabricatedRead, rng)) {
      expect_kernel_matches_legacy(*faulted);
      expect_bounded_agrees(*faulted, check_exact(make(*faulted)));
    }
  }
}

TEST(PackedKernel, EmptyHistories) {
  // Zero-length histories take a zero-width position field.
  const std::vector<Execution> cases = {
      ExecutionBuilder().process().process(W(0, 1), R(0, 1)).process().build(),
      ExecutionBuilder().process().process().build(),
      ExecutionBuilder().process().final_value(0, 3).build(),
      ExecutionBuilder()
          .process(W(0, 1))
          .process()
          .process(R(0, 2), R(0, 1))
          .process(W(0, 2))
          .build(),
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    expect_kernel_matches_legacy(cases[i]);
    expect_bounded_agrees(cases[i], check_exact(make(cases[i])));
  }
  Xoshiro256ss rng(77);
  SingleAddressParams params;
  params.num_histories = 4;
  params.ops_per_history = 7;
  for (int trial = 0; trial < 10; ++trial) {
    const auto trace = workload::generate_coherent(params, rng);
    const Execution exec = with_lengths(trace.execution, {0, 7, 0, 5, 0});
    expect_kernel_matches_legacy(exec);
    expect_bounded_agrees(exec, check_exact(make(exec)));
  }
}

TEST(PackedKernel, MultiWordKeys) {
  // 12 histories of 100 ops: 12 x 7 position bits plus the value field
  // need two key words.
  std::vector<std::vector<Operation>> easy(12);
  for (std::size_t p = 0; p < 12; ++p)
    for (std::size_t i = 0; i < 50; ++i) {
      const auto v = static_cast<Value>(1000 * (p + 1) + i);
      easy[p].push_back(W(0, v));
      easy[p].push_back(R(0, v));
    }
  ExecutionBuilder builder;
  for (auto& ops : easy) builder.process_ops(ops);
  const Execution coherent = builder.build();
  Arena arena;
  ASSERT_EQ(PackedInstance(make(coherent), arena).words(), 2u);
  expect_kernel_matches_legacy(coherent);
  EXPECT_EQ(check_exact(make(coherent)).verdict, Verdict::kCoherent);

  // Random 12 x 100 traces, cut off by a transition budget: both
  // searches must stop at the same point with the same counters.
  Xoshiro256ss rng(1212);
  SingleAddressParams params;
  params.num_histories = 12;
  params.ops_per_history = 100;
  params.num_values = 3;
  for (int trial = 0; trial < 4; ++trial) {
    const auto trace = workload::generate_coherent(params, rng);
    ExactOptions options;
    options.max_transitions = 20'000;
    expect_kernel_matches_legacy(trace.execution, options);
    if (auto faulted = workload::inject_fault(trace, Fault::kStaleRead, rng))
      expect_kernel_matches_legacy(*faulted, options);
  }
}

/// The perfbench `hard` shape: 6 histories of `ops` operations on one
/// address, 2 values, 20% RMW, drawn as an SC trace (so coherent), plus
/// its stale-read variant when the trace has a site for one.
std::vector<Execution> hard_shaped(std::uint64_t seed, std::size_t ops) {
  workload::MultiAddressParams params;
  params.num_processes = 6;
  params.ops_per_process = ops;
  params.num_addresses = 1;
  params.num_values = 2;
  params.rmw_fraction = 0.2;
  Xoshiro256ss rng(seed);
  auto sc = workload::generate_sc(params, rng);
  std::vector<Execution> cases{sc.execution};
  // One address: the SC interleaving is a coherent schedule for it.
  const workload::GeneratedTrace wrapped{std::move(sc.execution),
                                         std::move(sc.witness), {}};
  if (auto faulted = workload::inject_fault(wrapped, Fault::kStaleRead, rng))
    cases.push_back(std::move(*faulted));
  return cases;
}

TEST(PackedKernel, HardShapedSweep) {
  // 50 seeds at the real size (16-24 ops per history). A stale-read
  // variant must exhaust up to ~9M states and a few coherent draws need
  // over 1M transitions, so both sides run under the same transition
  // budget: a search that hits it must stop at the same point with the
  // same counters, one that finishes must match in full.
  Xoshiro256ss rng(6);
  std::size_t definite = 0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const std::size_t ops = 16 + rng.below(9);
    for (const Execution& exec : hard_shaped(seed, ops)) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      ExactOptions options;
      options.max_transitions = 60'000;
      expect_kernel_matches_legacy(exec, options);
      if (check_exact(make(exec), options).verdict != Verdict::kUnknown)
        ++definite;
    }
  }
  EXPECT_GE(definite, 40u);  // most undisturbed draws finish in budget
}

TEST(PackedKernel, HardShapedSweepAgreesWithBoundedK) {
  // The bounded-k BFS has no read closure and walks every reachable
  // state, which is out of reach at 16-24 ops per history; the same
  // shape at 3-6 ops keeps every run definite for all three searches.
  Xoshiro256ss rng(66);
  std::size_t coherent = 0;
  std::size_t incoherent = 0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const std::size_t ops = 3 + rng.below(4);
    for (const Execution& exec : hard_shaped(seed, ops)) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      expect_kernel_matches_legacy(exec);
      const auto exact = check_exact(make(exec));
      ASSERT_NE(exact.verdict, Verdict::kUnknown);
      (exact.verdict == Verdict::kCoherent ? coherent : incoherent) += 1;
      expect_bounded_agrees(exec, exact);
    }
  }
  EXPECT_GE(coherent, 50u);  // every undisturbed draw is coherent
  EXPECT_GT(incoherent, 10u);
}

TEST(Aggregation, PeakProvenanceTracksOwningAddress) {
  // Two addresses with very different search sizes: the peaks in the
  // merged effort must be attributed to the address that produced them.
  Xoshiro256ss rng(7);
  SingleAddressParams params;
  params.num_histories = 4;
  params.ops_per_history = 6;
  params.num_values = 3;
  params.addr = 1;  // address 0 stays trivial
  const auto trace = workload::generate_coherent(params, rng);
  Execution merged = trace.execution;
  merged.add_history(ProcessHistory{std::vector<Operation>{W(0, 1)}});

  const auto report = routed(merged);
  ASSERT_EQ(report.addresses.size(), 2u);
  // Address 1 (index 1 in sorted order) did the real search work.
  if (report.effort.states_visited > 0) {
    ASSERT_NE(report.peak_visited_index, CoherenceReport::kNoViolation);
    EXPECT_EQ(report.addresses[report.peak_visited_index].addr, 1u);
  }
  if (report.effort.arena_high_water > 0) {
    ASSERT_NE(report.peak_arena_index, CoherenceReport::kNoViolation);
    EXPECT_EQ(report.addresses[report.peak_arena_index].addr, 1u);
  }
}

TEST(VerifyCoherenceParallel, FlagsViolationsLikeSerial) {
  // The routed dispatcher flags the same addresses, in the same order,
  // as the sequential cascade oracle it replaced.
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), W(1, 1))
                        .process(W(1, 2))
                        .process(R(1, 1), R(1, 2))
                        .process(R(1, 2), R(1, 1))
                        .build();
  const auto report = routed(exec);
  const auto serial = oracles::verify_coherence(exec);
  EXPECT_EQ(report.verdict, Verdict::kIncoherent);
  EXPECT_EQ(report.verdict, serial.verdict);
  ASSERT_NE(report.first_violation(), nullptr);
  ASSERT_NE(serial.first_violation(), nullptr);
  EXPECT_EQ(report.first_violation()->addr, 1u);
  EXPECT_EQ(report.first_violation_index, serial.first_violation_index);
  ASSERT_EQ(report.addresses.size(), serial.addresses.size());
  for (std::size_t i = 0; i < report.addresses.size(); ++i) {
    EXPECT_EQ(report.addresses[i].addr, serial.addresses[i].addr);
    EXPECT_EQ(report.addresses[i].result.verdict,
              serial.addresses[i].result.verdict);
  }
}

}  // namespace
}  // namespace vermem::vmc
