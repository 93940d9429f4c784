// Tests for the coherence-order saturation tier: the constraint-graph
// engine itself (cycle / forced-total / partial / contradiction
// outcomes), the typed certificates it produces through the router and
// their independent re-checking, the must-precede pruning oracle's
// bit-identical-search guarantee, the CNF order hints, and the
// graph-derived lint rules W005/W006 plus the W002 final-section
// regression, and the closure kernel's field-for-field agreement with
// the reference derivation.

#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/router.hpp"
#include "analysis/saturate/core.hpp"
#include "certify/certificate.hpp"
#include "certify/check.hpp"
#include "encode/vmc_to_cnf.hpp"
#include "sat/solver.hpp"
#include "sim/machine.hpp"
#include "sim/program.hpp"
#include "trace/address_index.hpp"
#include "trace/schedule.hpp"
#include "vmc/checker.hpp"
#include "vmc/exact.hpp"
#include "workload/random.hpp"

namespace {

using namespace vermem;
using analysis::Decider;
using analysis::RuleId;
using certify::IncoherenceKind;
using saturate::Status;

// --- helpers --------------------------------------------------------------

saturate::Result saturate_addr(const Execution& exec, Addr addr) {
  const AddressIndex index(exec);
  return saturate::saturate(index.view(addr));
}

bool has_rule(const analysis::AnalysisReport& report, RuleId rule) {
  for (const analysis::AddressAnalysis& address : report.addresses)
    for (const analysis::Diagnostic& d : address.diagnostics)
      if (d.rule == rule) return true;
  return false;
}

std::size_t count_rule(const analysis::AnalysisReport& report, RuleId rule) {
  std::size_t n = 0;
  for (const analysis::AddressAnalysis& address : report.addresses)
    for (const analysis::Diagnostic& d : address.diagnostics)
      if (d.rule == rule) ++n;
  return n;
}

/// Builds the must-precede oracle an exact search would receive for this
/// view, in the materialized instance's (local) coordinates.
vmc::MustPrecede oracle_for(const saturate::Result& sat,
                            const vmc::VmcInstance& instance) {
  vmc::MustPrecede oracle;
  for (const auto& [a, b] : sat.edges)
    oracle.add_edge(sat.writes_local[a], sat.writes_local[b]);
  std::vector<std::uint32_t> sizes;
  for (std::uint32_t p = 0; p < instance.execution.num_processes(); ++p)
    sizes.push_back(
        static_cast<std::uint32_t>(instance.execution.history(p).size()));
  oracle.finalize(sizes);
  return oracle;
}

// --- engine outcomes ------------------------------------------------------

TEST(Saturate, CrossReadCycle) {
  // Each read pins the other history's write between its neighbours:
  // W(0,1) -> W(0,2) from P0's read and W(0,2) -> W(0,1) from P1's.
  const Execution exec = ExecutionBuilder()
                             .process(W(0, 1), R(0, 2))
                             .process(W(0, 2), R(0, 1))
                             .build();
  const auto result = saturate_addr(exec, 0);
  ASSERT_EQ(result.status, Status::kCycle);
  ASSERT_GE(result.cycle.size(), 2u);
  // Every consecutive cycle edge must be derivable from the direct graph.
  for (std::size_t i = 0; i < result.cycle.size(); ++i)
    EXPECT_TRUE(saturate::reaches(result, result.cycle[i],
                                  result.cycle[(i + 1) % result.cycle.size()]));
}

TEST(Saturate, ForcedTotalOrderFromProgramOrder) {
  const Execution exec = ExecutionBuilder()
                             .process(W(0, 1), W(0, 2))
                             .process(R(0, 2), R(0, 1))
                             .build();
  const auto result = saturate_addr(exec, 0);
  ASSERT_EQ(result.status, Status::kForcedTotal);
  ASSERT_EQ(result.forced.size(), 2u);
  EXPECT_EQ(result.writes[result.forced[0]], (OpRef{0, 0}));
  EXPECT_EQ(result.writes[result.forced[1]], (OpRef{0, 1}));
  EXPECT_EQ(result.branch_points, 0u);
}

TEST(Saturate, IndependentChainsStayPartial) {
  const Execution exec = ExecutionBuilder()
                             .process(W(0, 1), W(0, 2))
                             .process(W(0, 3), W(0, 4))
                             .build();
  const auto result = saturate_addr(exec, 0);
  ASSERT_EQ(result.status, Status::kPartial);
  EXPECT_GE(result.branch_points, 1u);
  EXPECT_GE(result.max_concurrent, 2u);
  const auto [a, b] = result.unordered_example;
  EXPECT_NE(a, b);
  EXPECT_FALSE(saturate::reaches(result, a, b));
  EXPECT_FALSE(saturate::reaches(result, b, a));
}

TEST(Saturate, SccCondensationCollapsesTransientCycle) {
  // P0/P1's reads pin each other's write into a two-node cycle mid-round
  // (the classic CrossReadCycle shape); P1's trailing R(0,3) then issues
  // an R2 reachability query with two candidates {P2, P3}. That query
  // runs on the SCC condensation built AFTER the cycle-closing pin, so
  // the four writes collapse to three components: {W(0,1), W(0,2)} as
  // one cluster plus the two W(0,3) singletons. The post-round cycle
  // check still refutes the address.
  const Execution exec = ExecutionBuilder()
                             .process(W(0, 1), R(0, 2))
                             .process(W(0, 2), R(0, 1), R(0, 3))
                             .process(W(0, 3))
                             .process(W(0, 3))
                             .build();
  const auto result = saturate_addr(exec, 0);
  ASSERT_EQ(result.status, Status::kCycle);
  EXPECT_EQ(result.num_writes(), 4u);
  EXPECT_GE(result.reach_queries, 1u);
  ASSERT_GE(result.scc_builds, 1u);
  EXPECT_EQ(result.scc_components, 3u);
}

TEST(Saturate, SccCondensationTrivialOnAcyclicGraph) {
  // Same query shape without the cycle: every write is its own
  // component, so the condensation is the graph itself and R2 pruning
  // behaves exactly as the raw walk did.
  const Execution exec = ExecutionBuilder()
                             .process(W(0, 1), R(0, 2), W(0, 3))
                             .process(W(0, 2))
                             .process(W(0, 3))
                             .process(W(0, 5), R(0, 3))
                             .build();
  const auto result = saturate_addr(exec, 0);
  ASSERT_EQ(result.status, Status::kPartial);
  ASSERT_GE(result.scc_builds, 1u);
  EXPECT_EQ(result.scc_components, result.num_writes());
}

TEST(Saturate, ContradictionKinds) {
  {
    const Execution exec = ExecutionBuilder().process(R(0, 5)).build();
    const auto result = saturate_addr(exec, 0);
    ASSERT_EQ(result.status, Status::kContradiction);
    ASSERT_TRUE(result.contradiction.has_value());
    EXPECT_EQ(result.contradiction->kind,
              saturate::ContradictionKind::kUnwrittenRead);
  }
  {
    // Initial-value read after an own earlier write, with no write of
    // the initial value anywhere.
    const Execution exec =
        ExecutionBuilder().process(W(0, 1), R(0, 0)).build();
    const auto result = saturate_addr(exec, 0);
    ASSERT_EQ(result.status, Status::kContradiction);
    EXPECT_EQ(result.contradiction->kind,
              saturate::ContradictionKind::kStaleInitialRead);
  }
  {
    // The value's unique write follows the read in program order.
    const Execution exec =
        ExecutionBuilder().process(R(0, 1), W(0, 1)).build();
    const auto result = saturate_addr(exec, 0);
    ASSERT_EQ(result.status, Status::kContradiction);
    EXPECT_EQ(result.contradiction->kind,
              saturate::ContradictionKind::kReadBeforeWrite);
  }
  {
    const Execution exec =
        ExecutionBuilder().process(W(0, 1)).final_value(0, 2).build();
    const auto result = saturate_addr(exec, 0);
    ASSERT_EQ(result.status, Status::kContradiction);
    EXPECT_EQ(result.contradiction->kind,
              saturate::ContradictionKind::kUnwritableFinal);
  }
}

// Every derived must-edge is *necessary*, so it must hold in the
// generator's ground-truth write order of any coherent-by-construction
// trace — the strongest cheap soundness check we have.
TEST(Saturate, MustEdgesHoldInGeneratingWriteOrder) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Xoshiro256ss rng(seed * 0x9e3779b97f4a7c15ull);
    workload::SingleAddressParams params;
    params.num_histories = 4;
    params.ops_per_history = 10;
    params.num_values = 3;  // contended: duplicate values, general shape
    const workload::GeneratedTrace trace =
        workload::generate_coherent(params, rng);
    const AddressIndex index(trace.execution);
    if (index.num_addresses() == 0) continue;
    const auto result = saturate::saturate(index.view_at(0));
    EXPECT_NE(result.status, Status::kCycle) << "seed " << seed;
    EXPECT_NE(result.status, Status::kContradiction) << "seed " << seed;
    EXPECT_FALSE(result.pruned_empty_read) << "seed " << seed;

    std::unordered_map<std::uint64_t, std::size_t> pos;
    const auto key = [](OpRef ref) {
      return (static_cast<std::uint64_t>(ref.process) << 32) | ref.index;
    };
    for (std::size_t i = 0; i < trace.write_order.size(); ++i)
      pos.emplace(key(trace.write_order[i]), i);
    for (const auto& [a, b] : result.edges) {
      const auto pa = pos.find(key(result.writes[a]));
      const auto pb = pos.find(key(result.writes[b]));
      ASSERT_NE(pa, pos.end());
      ASSERT_NE(pb, pos.end());
      EXPECT_LT(pa->second, pb->second)
          << "seed " << seed << ": derived edge contradicts the "
          << "generating write order — unsound";
    }
  }
}

// --- router + certificates ------------------------------------------------

TEST(SaturateRouting, CycleYieldsCheckableCertificate) {
  // Duplicate value 3 defeats the write-once fragment so the trace
  // routes through the saturation tier.
  const Execution exec = ExecutionBuilder()
                             .process(W(0, 1), R(0, 2), W(0, 3))
                             .process(W(0, 2), R(0, 1), W(0, 3))
                             .build();
  const AddressIndex index(exec);
  const analysis::RoutedReport routed = analysis::verify_coherence_routed(index);
  ASSERT_EQ(routed.report.verdict, vmc::Verdict::kIncoherent);
  EXPECT_EQ(routed.deciders[0], Decider::kSaturate);
  EXPECT_EQ(routed.saturate_decided, 1u);
  EXPECT_EQ(routed.saturate_cycles, 1u);

  const vmc::CheckResult& result = routed.report.addresses[0].result;
  ASSERT_NE(result.incoherence(), nullptr);
  EXPECT_EQ(result.incoherence()->kind, IncoherenceKind::kSaturationCycle);

  const certify::Certificate cert =
      certify::from_result(certify::Scope::kAddress, 0, result);
  EXPECT_TRUE(certify::check(exec, cert).ok);

  // Mutations: a truncated cycle and a non-write op must both be
  // rejected by the independent checker.
  certify::Certificate truncated = cert;
  std::get<certify::Incoherence>(truncated.evidence).ops.pop_back();
  EXPECT_FALSE(certify::check(exec, truncated).ok);

  certify::Certificate nonwrite = cert;
  std::get<certify::Incoherence>(nonwrite.evidence).ops[0] = OpRef{0, 1};
  EXPECT_FALSE(certify::check(exec, nonwrite).ok);
}

TEST(SaturateRouting, ForcedOrderRefutationCertificate) {
  // The write order is fully forced (program order + pinned reads), and
  // the Section 5.2 re-run under it refutes the address.
  const Execution exec = ExecutionBuilder()
                             .process(W(0, 1), W(0, 2))
                             .process(R(0, 2), R(0, 1), W(0, 3), W(0, 3))
                             .build();
  const AddressIndex index(exec);
  const analysis::RoutedReport routed = analysis::verify_coherence_routed(index);
  ASSERT_EQ(routed.report.verdict, vmc::Verdict::kIncoherent);
  EXPECT_EQ(routed.deciders[0], Decider::kSaturate);
  EXPECT_EQ(routed.saturate_forced, 1u);

  const vmc::CheckResult& result = routed.report.addresses[0].result;
  ASSERT_NE(result.incoherence(), nullptr);
  EXPECT_EQ(result.incoherence()->kind,
            IncoherenceKind::kForcedOrderRefutation);

  const certify::Certificate cert =
      certify::from_result(certify::Scope::kAddress, 0, result);
  EXPECT_TRUE(certify::check(exec, cert).ok);

  // A transposed forced order no longer matches the re-derived one.
  certify::Certificate swapped = cert;
  auto& order = std::get<certify::Incoherence>(swapped.evidence).write_order;
  ASSERT_GE(order.size(), 2u);
  std::swap(order[0], order[1]);
  EXPECT_FALSE(certify::check(exec, swapped).ok);
}

TEST(SaturateRouting, ForcedOrderCoherentDecidedWithoutSearch) {
  const Execution exec = ExecutionBuilder()
                             .process(W(0, 1), W(0, 2))
                             .process(R(0, 1), R(0, 2), W(0, 2))
                             .build();
  const AddressIndex index(exec);
  const analysis::RoutedReport routed = analysis::verify_coherence_routed(index);
  ASSERT_EQ(routed.report.verdict, vmc::Verdict::kCoherent);
  EXPECT_EQ(routed.deciders[0], Decider::kSaturate);
  EXPECT_EQ(routed.saturate_decided, 1u);
  EXPECT_EQ(routed.exact_routed, 0u);
  const vmc::CheckResult& result = routed.report.addresses[0].result;
  const auto check = check_coherent_schedule(exec, 0, result.witness);
  EXPECT_TRUE(check.ok) << check.violation;
}

// --- differential: routed (with saturation tier) vs exact ----------------

TEST(SaturateDifferential, RoutedMatchesExactOnRandomTraces) {
  std::size_t saturate_routed = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Xoshiro256ss rng(seed * 0xd1342543de82ef95ull);
    workload::SingleAddressParams params;
    params.num_histories = 3 + seed % 3;
    params.ops_per_history = 8;
    params.num_values = 2 + seed % 3;
    const workload::GeneratedTrace trace =
        workload::generate_coherent(params, rng);

    std::vector<Execution> cases;
    cases.push_back(trace.execution);
    const auto fault = static_cast<workload::Fault>(seed % 4);
    if (auto faulty = workload::inject_fault(trace, fault, rng))
      cases.push_back(std::move(*faulty));

    for (const Execution& exec : cases) {
      const AddressIndex index(exec);
      if (index.num_addresses() == 0) continue;
      const analysis::RoutedReport routed =
          analysis::verify_coherence_routed(index);
      if (routed.saturate_ran > 0) ++saturate_routed;

      const Addr addr = index.entry(0).addr;
      const auto projection = index.view_at(0).materialize();
      const vmc::CheckResult exact =
          vmc::check_exact(vmc::VmcInstance{projection.execution, addr});
      EXPECT_EQ(routed.report.verdict, exact.verdict) << "seed " << seed;

      const vmc::CheckResult& result = routed.report.addresses[0].result;
      if (result.verdict == vmc::Verdict::kCoherent) {
        const auto check = check_coherent_schedule(exec, addr, result.witness);
        EXPECT_TRUE(check.ok) << "seed " << seed << ": " << check.violation;
      } else if (result.verdict == vmc::Verdict::kIncoherent) {
        const certify::Certificate cert =
            certify::from_result(certify::Scope::kAddress, addr, result);
        EXPECT_TRUE(certify::check(exec, cert).ok) << "seed " << seed;
      }
    }
  }
  // The parameter mix must actually exercise the new tier.
  EXPECT_GT(saturate_routed, 0u);
}

// --- must-precede pruning oracle ------------------------------------------

TEST(SaturateOracle, PrunedSearchIsBitIdentical) {
  std::uint64_t total_oracle_prunes = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Xoshiro256ss rng(seed * 0xbf58476d1ce4e5b9ull);
    workload::SingleAddressParams params;
    params.num_histories = 4;
    params.ops_per_history = 10;
    params.num_values = 3;
    const workload::GeneratedTrace trace =
        workload::generate_coherent(params, rng);

    std::vector<Execution> cases;
    cases.push_back(trace.execution);
    if (auto faulty = workload::inject_fault(
            trace, workload::Fault::kStaleRead, rng))
      cases.push_back(std::move(*faulty));

    for (const Execution& exec : cases) {
      const AddressIndex index(exec);
      if (index.num_addresses() == 0) continue;
      const auto view = index.view_at(0);
      const auto sat = saturate::saturate(view);
      if (sat.edges.empty()) continue;
      const auto projection = view.materialize();
      const vmc::VmcInstance instance{projection.execution,
                                      index.entry(0).addr};
      const vmc::MustPrecede oracle = oracle_for(sat, instance);

      const vmc::CheckResult plain = vmc::check_exact(instance);
      vmc::ExactOptions with_oracle;
      with_oracle.pruner = &oracle;
      const vmc::CheckResult pruned = vmc::check_exact(instance, with_oracle);

      EXPECT_EQ(plain.verdict, pruned.verdict) << "seed " << seed;
      EXPECT_EQ(plain.witness, pruned.witness) << "seed " << seed;
      if (plain.verdict == vmc::Verdict::kIncoherent) {
        EXPECT_EQ(plain.incoherence()->kind, pruned.incoherence()->kind);
      }
      EXPECT_LE(pruned.stats.states_visited, plain.stats.states_visited);
      total_oracle_prunes += pruned.stats.oracle_prunes;
      EXPECT_EQ(plain.stats.oracle_prunes, 0u);
    }
  }
  // The oracle must actually cut branches somewhere in the mix.
  EXPECT_GT(total_oracle_prunes, 0u);
}

// --- CNF order hints ------------------------------------------------------

TEST(SaturateEncode, HintedEncodingPreservesSatisfiability) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Xoshiro256ss rng(seed * 0x94d049bb133111ebull);
    workload::SingleAddressParams params;
    params.num_histories = 3;
    params.ops_per_history = 6;
    params.num_values = 3;
    const workload::GeneratedTrace trace =
        workload::generate_coherent(params, rng);

    std::vector<Execution> cases;
    cases.push_back(trace.execution);
    if (auto faulty = workload::inject_fault(
            trace, workload::Fault::kFabricatedRead, rng))
      cases.push_back(std::move(*faulty));

    for (const Execution& exec : cases) {
      const AddressIndex index(exec);
      if (index.num_addresses() == 0) continue;
      const auto view = index.view_at(0);
      const auto sat = saturate::saturate(view);
      const auto projection = view.materialize();
      const vmc::VmcInstance instance{projection.execution,
                                      index.entry(0).addr};

      encode::OrderHints hints;
      for (const auto& [a, b] : sat.edges)
        hints.must.emplace_back(sat.writes_local[a], sat.writes_local[b]);

      const encode::VmcEncoding plain = encode::encode_vmc(instance);
      const encode::VmcEncoding hinted = encode::encode_vmc(instance, hints);
      if (plain.trivially_incoherent) {
        EXPECT_TRUE(hinted.trivially_incoherent);
        continue;
      }
      const sat::SolveResult a = sat::solve(plain.cnf);
      const sat::SolveResult b = sat::solve(hinted.cnf);
      ASSERT_NE(a.status, sat::Status::kUnknown);
      EXPECT_EQ(a.status, b.status) << "seed " << seed
                                    << ": order hints changed the verdict";
    }
  }
}

// --- closure kernel vs reference derivation -------------------------------

/// Compares every Result field; `ctx` names the case on failure.
void expect_same(const saturate::Result& kernel, const saturate::Result& ref,
                 const std::string& ctx) {
  EXPECT_EQ(kernel.status, ref.status) << ctx;
  EXPECT_EQ(kernel.writes, ref.writes) << ctx;
  EXPECT_EQ(kernel.writes_local, ref.writes_local) << ctx;
  EXPECT_EQ(kernel.edges, ref.edges) << ctx;
  EXPECT_EQ(kernel.cycle, ref.cycle) << ctx;
  EXPECT_EQ(kernel.forced, ref.forced) << ctx;
  EXPECT_EQ(kernel.contradiction.has_value(), ref.contradiction.has_value())
      << ctx;
  if (kernel.contradiction && ref.contradiction) {
    EXPECT_EQ(kernel.contradiction->kind, ref.contradiction->kind) << ctx;
    EXPECT_EQ(kernel.contradiction->read, ref.contradiction->read) << ctx;
    EXPECT_EQ(kernel.contradiction->other, ref.contradiction->other) << ctx;
    EXPECT_EQ(kernel.contradiction->value, ref.contradiction->value) << ctx;
  }
  EXPECT_EQ(kernel.rounds, ref.rounds) << ctx;
  EXPECT_EQ(kernel.reach_queries, ref.reach_queries) << ctx;
  EXPECT_EQ(kernel.scc_builds, ref.scc_builds) << ctx;
  EXPECT_EQ(kernel.scc_components, ref.scc_components) << ctx;
  EXPECT_EQ(kernel.branch_points, ref.branch_points) << ctx;
  EXPECT_EQ(kernel.max_concurrent, ref.max_concurrent) << ctx;
  EXPECT_EQ(kernel.unordered_example, ref.unordered_example) << ctx;
  EXPECT_EQ(kernel.budget_hit, ref.budget_hit) << ctx;
  EXPECT_EQ(kernel.pruned_empty_read, ref.pruned_empty_read) << ctx;
  EXPECT_TRUE(kernel == ref) << ctx;  // catches fields added later
}

/// Which write counts, and how many addresses, took the closure kernel.
struct KernelCoverage {
  std::bitset<saturate::kClosureMaxWrites + 1> write_counts;
  std::size_t addresses = 0;
};

/// Runs saturate() and the reference on every address of `exec`.
void expect_kernel_matches(const Execution& exec, const std::string& ctx,
                           KernelCoverage* coverage = nullptr) {
  const AddressIndex index(exec);
  for (std::size_t i = 0; i < index.num_addresses(); ++i) {
    const ProjectedView view = index.view_at(i);
    const saturate::Result kernel = saturate::saturate(view);
    const saturate::Result ref = saturate::saturate_reference(view);
    expect_same(kernel, ref, ctx + " addr " + std::to_string(view.addr()));
    if (coverage && kernel.num_writes() <= saturate::kClosureMaxWrites) {
      coverage->write_counts.set(kernel.num_writes());
      ++coverage->addresses;
    }
  }
}

/// A copy of `exec` whose read at `ref` observes `value` instead.
Execution with_read_value(const Execution& exec, OpRef ref, Value value) {
  Execution out;
  for (std::uint32_t p = 0; p < exec.num_processes(); ++p) {
    std::vector<Operation> ops = exec.history(p).ops();
    if (p == ref.process) ops[ref.index].value_read = value;
    out.add_history(ProcessHistory{std::move(ops)});
  }
  for (const auto& [addr, v] : exec.initial_values())
    out.set_initial_value(addr, v);
  for (const auto& [addr, v] : exec.final_values()) out.set_final_value(addr, v);
  return out;
}

/// Some read of `exec`, or nullopt when it has none.
std::optional<OpRef> random_read(const Execution& exec, Xoshiro256ss& rng) {
  std::vector<OpRef> reads;
  for (std::uint32_t p = 0; p < exec.num_processes(); ++p)
    for (std::uint32_t j = 0; j < exec.history(p).size(); ++j)
      if (exec.op(OpRef{p, j}).reads_memory()) reads.push_back(OpRef{p, j});
  if (reads.empty()) return std::nullopt;
  return reads[rng.below(reads.size())];
}

/// A coherent one-address trace with exactly `num_writes` writing ops:
/// a random interleaving of 2-5 histories whose reads observe the
/// current value and whose writes (a few of them RMWs) draw from a small
/// value pool, so values repeat and the trace stays in the general
/// fragment.
Execution address_with_writes(std::size_t num_writes, Xoshiro256ss& rng) {
  std::vector<std::vector<Operation>> histories(2 + rng.below(4));
  const std::uint64_t pool = 2 + rng.below(5);
  Value memory = 0;
  for (std::size_t written = 0; written < num_writes;) {
    std::vector<Operation>& ops = histories[rng.below(histories.size())];
    if (rng.chance(0.5)) {
      ops.push_back(R(0, memory));
      continue;
    }
    const auto value = static_cast<Value>(1 + rng.below(pool));
    ops.push_back(rng.chance(0.1) ? RW(0, memory, value) : W(0, value));
    memory = value;
    ++written;
  }
  ExecutionBuilder builder;
  for (std::vector<Operation>& ops : histories)
    builder.process_ops(std::move(ops));
  if (rng.chance(0.5)) builder.final_value(0, memory);
  return builder.build();
}

TEST(SaturateKernel, SelectedByWriteCount) {
  EXPECT_STREQ(saturate::kernel_name(0), "closure");
  EXPECT_STREQ(saturate::kernel_name(64), "closure");
  EXPECT_STREQ(saturate::kernel_name(65), "reference");
}

// Every write count from 1 to 66 (the 63/64/65 boundary included),
// coherent and with one read rewritten to a random pool value.
TEST(SaturateKernel, MatchesReferenceAtEveryWriteCount) {
  KernelCoverage covered;
  for (std::size_t writes = 1; writes <= 66; ++writes) {
    for (std::uint64_t rep = 0; rep < 4; ++rep) {
      Xoshiro256ss rng(writes * 1000 + rep);
      const Execution exec = address_with_writes(writes, rng);
      const std::string ctx =
          "writes " + std::to_string(writes) + " rep " + std::to_string(rep);
      expect_kernel_matches(exec, ctx, &covered);
      if (const auto read = random_read(exec, rng)) {
        const auto stale = static_cast<Value>(rng.below(4));
        expect_kernel_matches(with_read_value(exec, *read, stale),
                              ctx + " perturbed");
      }
    }
  }
  for (std::size_t writes = 1; writes <= saturate::kClosureMaxWrites; ++writes)
    EXPECT_TRUE(covered.write_counts.test(writes)) << "write count " << writes;
  // Writes 65 and 66 ran the reference on both sides.
  EXPECT_EQ(covered.addresses, 4 * saturate::kClosureMaxWrites);
}

// 240 seeds of the shapes the service sees: multi-address SC traces,
// the same with a planted never-written read, fault-injected
// single-address traces and MESI simulator runs with protocol faults.
TEST(SaturateKernel, MatchesReferenceOnRandomCorpora) {
  KernelCoverage covered;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    Xoshiro256ss rng(seed * 0x9e3779b97f4a7c15ull);
    const std::string ctx = "seed " + std::to_string(seed);

    workload::MultiAddressParams multi;
    multi.num_processes = 2 + seed % 5;
    multi.ops_per_process = 16 + rng.below(100);
    multi.num_addresses = 1 + seed % 8;
    multi.num_values = 2 + seed % 7;
    multi.rmw_fraction = seed % 3 == 0 ? 0.0 : 0.1;
    const workload::GeneratedMultiTrace sc = workload::generate_sc(multi, rng);
    expect_kernel_matches(sc.execution, ctx + " sc", &covered);
    if (const auto read = random_read(sc.execution, rng))
      expect_kernel_matches(with_read_value(sc.execution, *read, 1'000'000),
                            ctx + " planted");

    workload::SingleAddressParams single;
    single.num_histories = 2 + seed % 4;
    single.ops_per_history = 6 + rng.below(20);
    single.num_values = 2 + seed % 3;
    const workload::GeneratedTrace trace =
        workload::generate_coherent(single, rng);
    const auto fault = static_cast<workload::Fault>(seed % 4);
    if (auto faulty = workload::inject_fault(trace, fault, rng))
      expect_kernel_matches(*faulty, ctx + " " + workload::to_string(fault));

    sim::RandomProgramParams programs;
    programs.num_cores = 2 + seed % 3;
    programs.requests_per_core = 32 + rng.below(48);
    programs.num_addresses = 4 + seed % 5;
    sim::SimConfig config;
    config.num_cores = programs.num_cores;
    config.cache_lines = 4;
    config.seed = seed;
    config.faults.drop_invalidation = 0.05;
    config.faults.stale_fill = 0.05;
    const sim::SimResult run =
        sim::run_programs(sim::random_programs(programs, rng), config);
    expect_kernel_matches(run.execution, ctx + " sim");
  }
  EXPECT_GT(covered.addresses, 500u);
}

/// k histories, history i writing value i+1 and then reading history
/// (i+1) mod k's value: each read pins its successor after its own
/// write, closing a k-cycle W1 -> W2 -> ... -> Wk -> W1.
Execution read_ring(std::size_t k) {
  ExecutionBuilder builder;
  for (std::size_t i = 0; i < k; ++i)
    builder.process(W(0, static_cast<Value>(i + 1)),
                    R(0, static_cast<Value>((i + 1) % k + 1)));
  return builder.build();
}

TEST(SaturateKernel, MatchesReferenceOnCycleShapes) {
  for (std::size_t k = 2; k <= 66; ++k) {
    const Execution exec = read_ring(k);
    const AddressIndex index(exec);
    const saturate::Result kernel = saturate::saturate(index.view_at(0));
    EXPECT_EQ(kernel.status, Status::kCycle) << "ring " << k;
    EXPECT_EQ(kernel.cycle.size(), k) << "ring " << k;
    expect_kernel_matches(exec, "ring " + std::to_string(k));
  }
  // The final-value pin against program order: cyclic at the seeds.
  expect_kernel_matches(ExecutionBuilder()
                            .process(W(0, 1), W(0, 2))
                            .process(W(0, 3))
                            .final_value(0, 1)
                            .build(),
                        "seed cycle");
  // The transient two-node cluster the SccCondensation tests use, and
  // the same cluster plus an unrelated forced chain.
  expect_kernel_matches(ExecutionBuilder()
                            .process(W(0, 1), R(0, 2))
                            .process(W(0, 2), R(0, 1), R(0, 3))
                            .process(W(0, 3))
                            .process(W(0, 3))
                            .build(),
                        "transient cluster");
  expect_kernel_matches(ExecutionBuilder()
                            .process(W(0, 1), R(0, 2), W(0, 4), R(0, 5))
                            .process(W(0, 2), R(0, 1), W(0, 5))
                            .process(W(0, 3), R(0, 4))
                            .process(W(0, 3))
                            .build(),
                        "cluster plus chain");
}

// Past reach_budget the kernel answers exactly instead of replaying the
// reference's partial walk. Sweeping every budget up to what the
// derivation needs hits the exact exhaustion boundary: the kernel must
// flag budget_hit exactly when the reference does (charging each query
// the components the reference DFS visits, transient clusters
// included), agree fully when neither runs out, and emit only edges
// that hold in the generating write order.
TEST(SaturateKernel, BudgetSemantics) {
  struct Case {
    Execution exec;
    std::vector<OpRef> write_order;  // empty: not coherent by construction
  };
  std::vector<Case> cases;
  cases.push_back({ExecutionBuilder()
                       .process(W(0, 1), R(0, 2))
                       .process(W(0, 2), R(0, 1), R(0, 3), R(0, 4))
                       .process(W(0, 3), W(0, 4))
                       .process(W(0, 3), W(0, 4))
                       .build(),
                   {}});
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Xoshiro256ss rng(seed * 0xd1342543de82ef95ull);
    workload::SingleAddressParams params;
    params.num_histories = 3 + seed % 3;
    params.ops_per_history = 12;
    params.num_values = 3;
    workload::GeneratedTrace trace = workload::generate_coherent(params, rng);
    cases.push_back({std::move(trace.execution), std::move(trace.write_order)});
  }
  std::size_t exhausted = 0;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const AddressIndex index(cases[c].exec);
    if (index.num_addresses() == 0) continue;
    const ProjectedView view = index.view_at(0);
    std::unordered_map<std::uint64_t, std::size_t> pos;
    const auto key = [](OpRef ref) {
      return (static_cast<std::uint64_t>(ref.process) << 32) | ref.index;
    };
    for (std::size_t i = 0; i < cases[c].write_order.size(); ++i)
      pos.emplace(key(cases[c].write_order[i]), i);
    for (std::uint64_t budget = 0;; ++budget) {
      saturate::Options options;
      options.reach_budget = budget;
      const saturate::Result kernel = saturate::saturate(view, options);
      const saturate::Result ref = saturate::saturate_reference(view, options);
      const std::string ctx =
          "case " + std::to_string(c) + " budget " + std::to_string(budget);
      ASSERT_EQ(kernel.budget_hit, ref.budget_hit) << ctx;
      for (const auto& [a, b] : kernel.edges) {
        if (pos.empty()) break;
        EXPECT_LT(pos.at(key(kernel.writes[a])), pos.at(key(kernel.writes[b])))
            << ctx << ": unsound edge past the budget";
      }
      if (!ref.budget_hit) {
        expect_same(kernel, ref, ctx);
        break;
      }
      ++exhausted;
    }
  }
  EXPECT_GT(exhausted, 100u);
}

// --- lint: W002 regression, W005, W006 ------------------------------------

TEST(LintW002, ValueInFinalSectionIsExempt) {
  const Execution exec =
      ExecutionBuilder().process(W(0, 5)).final_value(0, 5).build();
  const analysis::AnalysisReport report = analysis::analyze(exec);
  EXPECT_FALSE(has_rule(report, RuleId::kUnreadWrite));
}

TEST(LintW002, NoRecordedFinalLastWriteIsExempt) {
  // No final section: value 2 is produced by the history's last write,
  // so it may legitimately be the end state — W002 must stay quiet for
  // it. Value 1 is unread AND overwritten within its history: fires.
  const Execution exec =
      ExecutionBuilder().process(W(0, 1), W(0, 2)).build();
  const analysis::AnalysisReport report = analysis::analyze(exec);
  EXPECT_EQ(count_rule(report, RuleId::kUnreadWrite), 1u);
  for (const analysis::AddressAnalysis& address : report.addresses)
    for (const analysis::Diagnostic& d : address.diagnostics)
      if (d.rule == RuleId::kUnreadWrite) {
        ASSERT_TRUE(d.location.has_value());
        EXPECT_EQ(*d.location, (OpRef{0, 0}));
      }
}

TEST(LintW002, RecordedFinalMismatchStillFires) {
  const Execution exec = ExecutionBuilder()
                             .process(W(0, 1), W(0, 2))
                             .final_value(0, 2)
                             .build();
  const analysis::AnalysisReport report = analysis::analyze(exec);
  EXPECT_EQ(count_rule(report, RuleId::kUnreadWrite), 1u);
}

TEST(LintW005, UnorderedConcurrentWritesFlagged) {
  // Value 3 written twice defeats write-once; two independent chains
  // stay unordered after saturation.
  const Execution exec = ExecutionBuilder()
                             .process(W(0, 1), W(0, 3))
                             .process(W(0, 2), W(0, 3))
                             .build();
  const analysis::AnalysisReport report = analysis::analyze(exec);
  EXPECT_TRUE(has_rule(report, RuleId::kUnorderedWritePair));
  ASSERT_FALSE(report.addresses.empty());
  EXPECT_TRUE(report.addresses[0].saturation.has_value());
}

TEST(LintW005, ForcedOrderDoesNotFire) {
  const Execution exec = ExecutionBuilder()
                             .process(W(0, 1), W(0, 2), W(0, 2))
                             .build();
  const analysis::AnalysisReport report = analysis::analyze(exec);
  EXPECT_FALSE(has_rule(report, RuleId::kUnorderedWritePair));
}

TEST(LintW006, ShapeValidLogContradictedBySaturation) {
  // The trace forces W(2,1) -> W(2,2) (P0's read of 2 sits after its
  // write of 1), but the log orders them the other way. The log is
  // shape-valid (a permutation respecting program order), so W004 stays
  // quiet and W006 fires.
  const Execution exec = ExecutionBuilder()
                             .process(W(2, 1), R(2, 2))
                             .process(W(2, 2))
                             .build();
  vmc::WriteOrderMap orders;
  orders[2] = {OpRef{1, 0}, OpRef{0, 0}};
  const analysis::AnalysisReport report = analysis::analyze(exec, &orders);
  EXPECT_FALSE(has_rule(report, RuleId::kInconsistentWriteOrderLog));
  EXPECT_TRUE(has_rule(report, RuleId::kSaturationContradictedLog));
}

TEST(LintW006, ConsistentLogDoesNotFire) {
  const Execution exec = ExecutionBuilder()
                             .process(W(2, 1), R(2, 2))
                             .process(W(2, 2))
                             .build();
  vmc::WriteOrderMap orders;
  orders[2] = {OpRef{0, 0}, OpRef{1, 0}};
  const analysis::AnalysisReport report = analysis::analyze(exec, &orders);
  EXPECT_FALSE(has_rule(report, RuleId::kSaturationContradictedLog));
}

}  // namespace
