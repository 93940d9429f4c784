// Tests for the consistency-model checkers: the litmus suite pins the
// operational semantics to community expectations, monotonicity relates
// the models, and the single-location restriction realizes the paper's
// Section 6.2 argument in code.

#include <gtest/gtest.h>

#include "certify/certificate.hpp"
#include "certify/check.hpp"
#include "models/checker.hpp"
#include "models/litmus.hpp"
#include "models/lrc.hpp"
#include "oracles/cascade.hpp"
#include "oracles/models/buffered_legacy.hpp"
#include "reductions/sat_to_vmc.hpp"
#include "reductions/sync_wrap.hpp"
#include "sat/brute.hpp"
#include "sat/gen.hpp"
#include "trace/text_io.hpp"
#include "vmc/checker.hpp"
#include "workload/random.hpp"

namespace vermem::models {
namespace {

using vmc::Verdict;

class LitmusSuite : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LitmusSuite, MatchesExpectedAdmissibility) {
  const auto suite = standard_litmus_suite();
  const LitmusTest& test = suite[GetParam()];
  for (const Model m : kAllModels) {
    const auto result = check_model(test.execution, m);
    ASSERT_NE(result.verdict, Verdict::kUnknown)
        << test.name << " under " << to_string(m) << ": " << result.reason();
    EXPECT_EQ(result.verdict == Verdict::kCoherent, test.allowed_under(m))
        << test.name << " under " << to_string(m);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Standard, LitmusSuite,
    ::testing::Range<std::size_t>(0, standard_litmus_suite().size()),
    [](const ::testing::TestParamInfo<std::size_t>& param_info) {
      std::string name = standard_litmus_suite()[param_info.param].name;
      for (char& c : name)
        if (c == '+' || c == '-') c = '_';
      return name;
    });

TEST(ModelHierarchy, AcceptanceIsMonotoneOnLitmusSuite) {
  // SC-admissible => TSO-admissible => PSO-admissible => coherent.
  for (const auto& test : standard_litmus_suite()) {
    bool weaker_must_accept = false;
    for (const Model m : kAllModels) {
      if (weaker_must_accept) {
        EXPECT_TRUE(test.allowed_under(m))
            << test.name << ": hierarchy broken at " << to_string(m);
      }
      weaker_must_accept |= test.allowed_under(m);
    }
  }
}

TEST(ModelHierarchy, MonotoneOnRandomScTraces) {
  // Anything generated by an SC interleaving must pass every model.
  Xoshiro256ss rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    workload::MultiAddressParams params;
    params.num_processes = 2 + rng.below(2);
    params.ops_per_process = 2 + rng.below(5);
    params.num_addresses = 2;
    const auto trace = workload::generate_sc(params, rng);
    for (const Model m : kAllModels) {
      const auto result = check_model(trace.execution, m);
      EXPECT_EQ(result.verdict, Verdict::kCoherent)
          << to_string(m) << ": " << result.reason();
    }
  }
}

TEST(Restriction, SingleLocationReducesToCoherence) {
  // Section 6.2: on one shared location every hardware model collapses to
  // memory coherence. Verify all four checkers agree with the coherence
  // verdict on random single-address traces (including faulted ones).
  Xoshiro256ss rng(11);
  for (int trial = 0; trial < 12; ++trial) {
    workload::SingleAddressParams params;
    params.num_histories = 2 + rng.below(2);
    params.ops_per_history = 2 + rng.below(4);
    params.num_values = 2 + rng.below(3);
    const auto trace = workload::generate_coherent(params, rng);

    std::vector<Execution> cases{trace.execution};
    for (const workload::Fault f :
         {workload::Fault::kStaleRead, workload::Fault::kFabricatedRead}) {
      if (auto faulted = workload::inject_fault(trace, f, rng))
        cases.push_back(std::move(*faulted));
    }
    for (const auto& exec : cases) {
      const auto coherent =
          check_model(exec, Model::kCoherenceOnly).verdict == Verdict::kCoherent;
      for (const Model m : kAllModels) {
        const auto result = check_model(exec, m);
        ASSERT_NE(result.verdict, Verdict::kUnknown) << result.reason();
        EXPECT_EQ(result.verdict == Verdict::kCoherent, coherent)
            << to_string(m) << " diverges from coherence on one location";
      }
    }
  }
}

TEST(Tso, ForwardingWorks) {
  // P0 forwards its own store while P1 still sees the old value; then the
  // store drains. Accepted by TSO (and, here, by SC too — the SC/TSO
  // separation with forwarding is the SB+fwd litmus above).
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), R(0, 1))
                        .process(R(0, 0), R(0, 1))
                        .build();
  EXPECT_EQ(check_model(exec, Model::kTso).verdict, Verdict::kCoherent);
  EXPECT_EQ(check_model(exec, Model::kSc).verdict, Verdict::kCoherent);
}

TEST(Tso, BudgetYieldsUnknown) {
  Xoshiro256ss rng(13);
  workload::MultiAddressParams params;
  params.num_processes = 4;
  params.ops_per_process = 8;
  const auto trace = workload::generate_sc(params, rng);
  ModelCheckOptions options;
  options.max_states = 1;
  EXPECT_EQ(check_model(trace.execution, Model::kTso, options).verdict,
            Verdict::kUnknown);
}

TEST(Pso, RmwActsAsFence) {
  // MP with an RMW between the stores: PSO must reject (the atomic
  // flushes the buffer, restoring order).
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), RW(2, 0, 1), W(1, 1))
                        .process(R(1, 1), R(0, 0))
                        .build();
  EXPECT_EQ(check_model(exec, Model::kPso).verdict, Verdict::kIncoherent);
  // Without the RMW it is the plain MP shape, which PSO allows.
  const auto plain = ExecutionBuilder()
                         .process(W(0, 1), W(1, 1))
                         .process(R(1, 1), R(0, 0))
                         .build();
  EXPECT_EQ(check_model(plain, Model::kPso).verdict, Verdict::kCoherent);
}

TEST(Pso, SameAddressStoresStayOrdered) {
  // P0 writes 1 then 2 to x; P1 must never observe 2 then 1.
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), W(0, 2))
                        .process(R(0, 2), R(0, 1))
                        .build();
  EXPECT_EQ(check_model(exec, Model::kPso).verdict, Verdict::kIncoherent);
}

// --- Lazy Release Consistency (Figure 6.1) --------------------------------

TEST(Lrc, ShapeDetection) {
  const auto exec = ExecutionBuilder().process(W(0, 1), R(0, 1)).build();
  EXPECT_FALSE(is_fully_wrapped(exec, 9));
  const auto wrapped = reductions::wrap_with_synchronization(exec, 9);
  EXPECT_TRUE(is_fully_wrapped(wrapped, 9));
  EXPECT_FALSE(is_fully_wrapped(wrapped, 8));  // wrong lock
  EXPECT_EQ(check_lrc_wrapped(exec, 9).verdict, vmc::Verdict::kUnknown);
}

TEST(Lrc, WrappedReductionTracksSatisfiability) {
  // The Figure 6.1 argument end to end: wrap the Figure 4.1 instance and
  // decide it under LRC; the verdict must equal the formula's
  // satisfiability.
  Xoshiro256ss rng(51);
  for (int trial = 0; trial < 10; ++trial) {
    const auto cnf = sat::random_ksat(3, 1 + rng.below(6), 2 + rng.below(2), rng);
    const bool satisfiable = sat::solve_brute(cnf).has_value();
    const auto red = reductions::sat_to_vmc(cnf);
    const auto wrapped =
        reductions::wrap_with_synchronization(red.instance.execution, 999);
    const auto verdict = check_lrc_wrapped(wrapped, 999);
    ASSERT_NE(verdict.verdict, vmc::Verdict::kUnknown) << verdict.reason();
    EXPECT_EQ(verdict.verdict == vmc::Verdict::kCoherent, satisfiable);
  }
}

TEST(Lrc, MultiAddressWrappedTraces) {
  // LRC on wrapped traces equals per-address coherence of the stripped
  // execution.
  Xoshiro256ss rng(53);
  for (int trial = 0; trial < 8; ++trial) {
    workload::MultiAddressParams params;
    params.num_processes = 3;
    params.ops_per_process = 6;
    params.num_addresses = 2;
    const auto trace = workload::generate_sc(params, rng);
    const auto wrapped =
        reductions::wrap_with_synchronization(trace.execution, 999);
    EXPECT_EQ(check_lrc_wrapped(wrapped, 999).verdict, vmc::Verdict::kCoherent);
  }
}

TEST(CascadeDifferential, CoherenceOnlyAndLrcMatchOracle) {
  // Both per-address entry points of this layer decide through the
  // analysis router; on clean and fault-injected traces their verdicts
  // must equal the sequential cascade oracle's, before (coherence-only)
  // and after (LRC) Acq/Rel wrapping.
  std::size_t coherent = 0, incoherent = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Xoshiro256ss rng(seed * 61);
    workload::SingleAddressParams params;
    params.num_histories = 2 + rng.below(4);
    params.ops_per_history = 1 + rng.below(6);
    params.num_values = 1 + rng.below(4);
    params.rmw_fraction = rng.uniform01() * 0.5;
    const auto trace = workload::generate_coherent(params, rng);

    std::vector<Execution> cases{trace.execution};
    for (const workload::Fault f :
         {workload::Fault::kStaleRead, workload::Fault::kLostWrite,
          workload::Fault::kFabricatedRead, workload::Fault::kReorderedOps})
      if (auto faulted = workload::inject_fault(trace, f, rng))
        cases.push_back(std::move(*faulted));
    workload::MultiAddressParams multi;
    multi.num_processes = 3;
    multi.ops_per_process = 8;
    multi.num_addresses = 3;
    cases.push_back(workload::generate_sc(multi, rng).execution);

    for (const Execution& exec : cases) {
      const Verdict expected = oracles::verify_coherence(exec).verdict;
      ASSERT_NE(expected, Verdict::kUnknown) << "seed " << seed;
      (expected == Verdict::kCoherent ? coherent : incoherent) += 1;
      EXPECT_EQ(check_model(exec, Model::kCoherenceOnly).verdict, expected)
          << "seed " << seed;
      const auto wrapped = reductions::wrap_with_synchronization(exec, 999);
      EXPECT_EQ(check_lrc_wrapped(wrapped, 999).verdict, expected)
          << "seed " << seed;
    }
  }
  EXPECT_GT(coherent, 12u);
  EXPECT_GT(incoherent, 5u);
}

TEST(FinalOnlyAddress, RefutedAsUnwritableUnderSequentialAndBufferedModels) {
  // `final 5 3` names an address no operation touches, so no schedule,
  // buffered or not, can make it hold 3. The coherence path only judges
  // touched addresses and answers coherent (docs/TRACE_FORMAT.md).
  const auto parsed =
      parse_execution("init 0 0\nfinal 5 3\nP: W(0,1)\nP: R(0,1)\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const Execution& exec = parsed.execution;
  for (const Model m : {Model::kSc, Model::kTso, Model::kPso}) {
    const auto result = check_model(exec, m);
    ASSERT_EQ(result.verdict, Verdict::kIncoherent)
        << to_string(m) << ": " << result.reason();
    const certify::Incoherence* why = result.incoherence();
    ASSERT_NE(why, nullptr);
    EXPECT_EQ(why->kind, certify::IncoherenceKind::kUnwritableFinal)
        << to_string(m);
    EXPECT_EQ(why->addr, 5u);
    const auto outcome = certify::check(
        exec, certify::from_result(certify::Scope::kExecution, 0, result));
    EXPECT_TRUE(outcome) << to_string(m) << ": " << outcome.violation;
  }
  EXPECT_EQ(check_model(exec, Model::kCoherenceOnly).verdict,
            Verdict::kCoherent);
}

// --- TSO/PSO against the frozen store-buffer search -----------------------

/// An SC trace over 2-4 processes and 1-3 addresses with RMWs, Acq/Rel
/// fences sprinkled in and, when `fault` is set, one read rewritten to
/// observe a different value.
Execution random_buffered_trace(Xoshiro256ss& rng, bool fault) {
  workload::MultiAddressParams params;
  params.num_processes = 2 + rng.below(3);
  params.ops_per_process = 2 + rng.below(3);
  params.num_addresses = 1 + rng.below(3);
  params.num_values = 2 + rng.below(2);
  params.rmw_fraction = 0.2;
  const Execution sc = workload::generate_sc(params, rng).execution;

  std::vector<std::vector<Operation>> histories;
  std::vector<OpRef> reads;
  for (const auto& history : sc.histories()) {
    std::vector<Operation>& ops = histories.emplace_back();
    for (const Operation& op : history) {
      if (rng.chance(0.15))
        ops.push_back(rng.chance(0.5) ? Acq(op.addr) : Rel(op.addr));
      if (op.kind == OpKind::kRead)
        reads.push_back({static_cast<std::uint32_t>(histories.size() - 1),
                         static_cast<std::uint32_t>(ops.size())});
      ops.push_back(op);
    }
  }
  if (fault && !reads.empty()) {
    const OpRef r = reads[rng.below(reads.size())];
    Operation& op = histories[r.process][r.index];
    op.value_read = (op.value_read + 1) % (params.num_values + 1);
  }
  ExecutionBuilder builder;
  for (auto& ops : histories) builder.process_ops(std::move(ops));
  for (const auto& [addr, value] : sc.initial_values()) builder.initial(addr, value);
  for (const auto& [addr, value] : sc.final_values())
    builder.final_value(addr, value);
  return builder.build();
}

void expect_same_search(const vmc::CheckResult& now,
                        const vmc::CheckResult& legacy, const std::string& what) {
  ASSERT_EQ(now.verdict, legacy.verdict) << what;
  EXPECT_EQ(now.witness, legacy.witness) << what;
  EXPECT_EQ(now.stats.states_visited, legacy.stats.states_visited) << what;
  EXPECT_EQ(now.stats.transitions, legacy.stats.transitions) << what;
  EXPECT_EQ(now.stats.max_frontier, legacy.stats.max_frontier) << what;
}

TEST(ModelsDifferential, MatchesLegacyOnRandomizedTraces) {
  std::size_t admissible = 0, refuted = 0, pruned = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Xoshiro256ss rng(seed * 97);
    const Execution exec = random_buffered_trace(rng, seed % 2 == 0);
    for (const Model m : {Model::kTso, Model::kPso}) {
      const auto now = check_model(exec, m);
      const auto legacy = check_buffered_legacy(exec, m);
      expect_same_search(now, legacy,
                         "seed " + std::to_string(seed) + " " + to_string(m));
      (now.coherent() ? admissible : refuted) += 1;
      pruned += now.stats.prunes != 0;
    }
  }
  EXPECT_GT(admissible, 10u);
  EXPECT_GT(refuted, 5u);
  EXPECT_GT(pruned, 10u);  // memo hits are counted, unlike the oracle
}

TEST(ModelsDifferential, MatchesLegacyOnLitmusSuite) {
  for (const auto& test : standard_litmus_suite())
    for (const Model m : {Model::kTso, Model::kPso})
      expect_same_search(check_model(test.execution, m),
                         check_buffered_legacy(test.execution, m),
                         test.name + " " + to_string(m));
}

TEST(ModelsDifferential, StateBudgetStopsAtTheSameCounters) {
  std::size_t cut = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Xoshiro256ss rng(seed * 131);
    const Execution exec = random_buffered_trace(rng, seed % 2 == 0);
    for (const Model m : {Model::kTso, Model::kPso}) {
      const auto full = check_model(exec, m);
      if (full.stats.states_visited < 4) continue;
      ModelCheckOptions options;
      options.max_states = full.stats.states_visited / 2;
      const auto now = check_model(exec, m, options);
      const auto legacy = check_buffered_legacy(exec, m, options);
      const std::string what = "seed " + std::to_string(seed) + " " + to_string(m);
      expect_same_search(now, legacy, what);
      if (now.verdict != Verdict::kUnknown) continue;
      ++cut;
      ASSERT_NE(now.unknown_reason(), nullptr) << what;
      EXPECT_EQ(now.unknown_reason()->reason, certify::UnknownReason::kBudget)
          << what;
    }
  }
  EXPECT_GT(cut, 5u);
}

TEST(ModelsDifferential, CancelledTokenYieldsCancelled) {
  const auto suite = standard_litmus_suite();
  CancellationToken token;
  token.cancel();
  ModelCheckOptions options;
  options.cancel = &token;
  for (const auto& test : suite) {
    for (const Model m : {Model::kTso, Model::kPso}) {
      const auto now = check_model(test.execution, m, options);
      const auto legacy = check_buffered_legacy(test.execution, m, options);
      expect_same_search(now, legacy, test.name + " " + to_string(m));
      ASSERT_EQ(now.verdict, Verdict::kUnknown) << test.name;
      ASSERT_NE(now.unknown_reason(), nullptr);
      EXPECT_EQ(now.unknown_reason()->reason,
                certify::UnknownReason::kCancelled);
    }
  }
}

}  // namespace
}  // namespace vermem::models
