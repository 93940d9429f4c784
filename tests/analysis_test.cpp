// Tests for the static trace analyzer: fragment classifier, lint rules,
// write-order log validation, and — the load-bearing part — differential
// agreement between every routed polynomial decider and the exact
// frontier search on randomized fragment-constrained traces.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/fragment.hpp"
#include "analysis/lint.hpp"
#include "analysis/poly/write_order.hpp"
#include "analysis/router.hpp"
#include "obs/obs.hpp"
#include "obs/span.hpp"
#include "oracles/cascade.hpp"
#include "sat/dpll.hpp"
#include "sat/solver.hpp"
#include "trace/address_index.hpp"
#include "trace/schedule.hpp"
#include "vmc/checker.hpp"
#include "vmc/exact.hpp"
#include "workload/random.hpp"

namespace {

using namespace vermem;
using analysis::Decider;
using analysis::Fragment;
using analysis::RuleId;

// --- helpers --------------------------------------------------------------

analysis::FragmentProfile classify_addr(const Execution& exec, Addr addr,
                                        bool has_write_order = false) {
  const AddressIndex index(exec);
  for (std::size_t i = 0; i < index.num_addresses(); ++i)
    if (index.entry(i).addr == addr)
      return analysis::classify(index.view_at(i), has_write_order);
  ADD_FAILURE() << "address " << addr << " not in index";
  return {};
}

/// Routed vs exact on a single-address execution: verdicts must agree,
/// and any coherent witness must validate in original coordinates.
struct Differential {
  vmc::Verdict routed = vmc::Verdict::kUnknown;
  vmc::Verdict exact = vmc::Verdict::kUnknown;
  Fragment fragment = Fragment::kGeneral;
  Decider decider = Decider::kExact;
  bool fell_back = false;
};

Differential run_differential(const Execution& exec,
                              const vmc::WriteOrderMap* orders = nullptr) {
  const AddressIndex index(exec);
  EXPECT_EQ(index.num_addresses(), 1u);
  const analysis::RoutedReport routed =
      analysis::verify_coherence_routed(index, orders);

  const Addr addr = index.entry(0).addr;
  const auto projection = index.view_at(0).materialize();
  const vmc::CheckResult exact =
      vmc::check_exact(vmc::VmcInstance{projection.execution, addr});

  const auto& result = routed.report.addresses[0].result;
  if (result.verdict == vmc::Verdict::kCoherent) {
    const auto check = check_coherent_schedule(exec, addr, result.witness);
    EXPECT_TRUE(check.ok) << "routed witness invalid: " << check.violation;
  }
  return {routed.report.verdict, exact.verdict, routed.fragments[0],
          routed.deciders[0], false};
}

Execution rmw_chain_exec(std::size_t n, std::size_t histories,
                         Value cycle) {
  Execution exec;
  for (std::size_t p = 0; p < histories; ++p)
    exec.add_history(ProcessHistory{});
  for (std::size_t t = 0; t < n; ++t)
    exec.append(t % histories, RW(0, static_cast<Value>(t % cycle),
                                  static_cast<Value>((t + 1) % cycle)));
  exec.set_final_value(0, static_cast<Value>(n % cycle));
  return exec;
}

bool has_rule(const std::vector<analysis::Diagnostic>& diagnostics,
              RuleId rule) {
  return std::any_of(
      diagnostics.begin(), diagnostics.end(),
      [rule](const analysis::Diagnostic& d) { return d.rule == rule; });
}

// --- classifier -----------------------------------------------------------

TEST(Classify, SyncOnlyExecutionHasNoAddresses) {
  const Execution exec =
      ExecutionBuilder().process_ops({Acq(0), Rel(0)}).build();
  const analysis::AnalysisReport report = analysis::analyze(exec);
  EXPECT_TRUE(report.addresses.empty());
  EXPECT_EQ(report.warning_count, 0u);
  EXPECT_FALSE(report.has_warnings());
}

TEST(Classify, SingleWrite) {
  const Execution exec = ExecutionBuilder().process_ops({W(0, 1)}).build();
  const auto profile = classify_addr(exec, 0);
  EXPECT_EQ(profile.fragment, Fragment::kOneOp);
  EXPECT_EQ(profile.num_ops, 1u);
  EXPECT_EQ(profile.num_writes, 1u);
  EXPECT_EQ(profile.num_reads, 0u);
  EXPECT_TRUE(profile.write_once);
  EXPECT_FALSE(profile.rmw_only);
}

TEST(Classify, OneOpRmw) {
  const Execution exec = ExecutionBuilder()
                             .process_ops({RW(0, 0, 1)})
                             .process_ops({RW(0, 1, 2)})
                             .build();
  const auto profile = classify_addr(exec, 0);
  EXPECT_EQ(profile.fragment, Fragment::kOneOpRmw);
  EXPECT_TRUE(profile.rmw_only);
}

TEST(Classify, WriteOnce) {
  const Execution exec = ExecutionBuilder()
                             .process_ops({W(0, 1), R(0, 2)})
                             .process_ops({W(0, 2), R(0, 1)})
                             .build();
  const auto profile = classify_addr(exec, 0);
  EXPECT_EQ(profile.fragment, Fragment::kWriteOnce);
  EXPECT_EQ(profile.max_writes_per_value, 1u);
}

TEST(Classify, WritingInitialValueDisqualifiesWriteOnce) {
  // W(0,0) re-writes the initial value: the read map is ambiguous, so
  // the instance cannot take the write-once fast path.
  const Execution exec = ExecutionBuilder()
                             .process_ops({W(0, 0), R(0, 0)})
                             .process_ops({W(0, 1)})
                             .build();
  const auto profile = classify_addr(exec, 0);
  EXPECT_TRUE(profile.writes_initial_value);
  EXPECT_FALSE(profile.write_once);
  EXPECT_EQ(profile.fragment, Fragment::kBoundedProcesses);
}

TEST(Classify, RmwOnlyWithDuplicatesIsRmwChain) {
  const Execution exec = rmw_chain_exec(16, 4, 8);
  const auto profile = classify_addr(exec, 0);
  EXPECT_EQ(profile.fragment, Fragment::kRmwChain);
  EXPECT_TRUE(profile.rmw_only);
  EXPECT_GT(profile.max_writes_per_value, 1u);
}

TEST(Classify, WriteOrderLogPinsFragment) {
  // Shape alone says write-once, but a supplied log pins the question to
  // "coherent under this serialization" — never downgraded.
  const Execution exec = ExecutionBuilder()
                             .process_ops({W(0, 1), R(0, 2)})
                             .process_ops({W(0, 2)})
                             .build();
  EXPECT_EQ(classify_addr(exec, 0, false).fragment, Fragment::kWriteOnce);
  EXPECT_EQ(classify_addr(exec, 0, true).fragment, Fragment::kWriteOrder);
}

TEST(Classify, BoundedVsGeneral) {
  std::vector<std::vector<Operation>> histories(4);
  for (std::size_t p = 0; p < 4; ++p)
    histories[p] = {W(0, 1), R(0, 1), W(0, 2)};
  ExecutionBuilder bounded;
  for (std::size_t p = 0; p < analysis::kBoundedProcessLimit; ++p)
    bounded.process_ops(histories[p]);
  EXPECT_EQ(classify_addr(bounded.build(), 0).fragment,
            Fragment::kBoundedProcesses);

  ExecutionBuilder general;
  for (std::size_t p = 0; p < 4; ++p) general.process_ops(histories[p]);
  EXPECT_EQ(classify_addr(general.build(), 0).fragment, Fragment::kGeneral);
}

// --- lint rules -----------------------------------------------------------

TEST(Lint, DuplicateValueWriteFiresAtThirdWrite) {
  const Execution exec =
      ExecutionBuilder()
          .process_ops({W(0, 7), R(0, 7), W(0, 7), W(0, 7)})
          .build();
  const analysis::AnalysisReport report = analysis::analyze(exec);
  ASSERT_EQ(report.addresses.size(), 1u);
  const auto& diagnostics = report.addresses[0].diagnostics;
  ASSERT_TRUE(has_rule(diagnostics, RuleId::kDuplicateValueWrite));
  for (const auto& d : diagnostics) {
    if (d.rule != RuleId::kDuplicateValueWrite) continue;
    EXPECT_EQ(d.severity, analysis::Severity::kWarning);
    ASSERT_TRUE(d.location.has_value());
    EXPECT_EQ(*d.location, (OpRef{0, 3}));  // the third write
  }
}

TEST(Lint, UnreadWriteSkipsReadAndFinalValues) {
  // Value 5 is unread and not final -> W002. Value 9 is unread but is
  // the recorded final value -> clean. Value 1 is read -> clean.
  const Execution exec = ExecutionBuilder()
                             .process_ops({W(0, 1), R(0, 1), W(0, 5), W(0, 9)})
                             .final_value(0, 9)
                             .build();
  const analysis::AnalysisReport report = analysis::analyze(exec);
  ASSERT_EQ(report.addresses.size(), 1u);
  const auto& diagnostics = report.addresses[0].diagnostics;
  std::size_t unread = 0;
  for (const auto& d : diagnostics) {
    if (d.rule != RuleId::kUnreadWrite) continue;
    ++unread;
    ASSERT_TRUE(d.location.has_value());
    EXPECT_EQ(*d.location, (OpRef{0, 2}));  // W(0,5)
  }
  EXPECT_EQ(unread, 1u);
}

TEST(Lint, RmwCandidateOnAdjacentReadWritePair) {
  const Execution with_pair =
      ExecutionBuilder().process_ops({R(0, 0), W(0, 1)}).build();
  EXPECT_TRUE(has_rule(
      analysis::analyze(with_pair).addresses[0].diagnostics,
      RuleId::kRmwAtomicityCandidate));

  // A real RMW is already atomic: no candidate.
  const Execution atomic =
      ExecutionBuilder().process_ops({RW(0, 0, 1)}).build();
  EXPECT_FALSE(has_rule(analysis::analyze(atomic).addresses[0].diagnostics,
                        RuleId::kRmwAtomicityCandidate));
}

TEST(Lint, InconsistentWriteOrderLog) {
  const Execution exec =
      ExecutionBuilder().process_ops({R(0, 0), W(0, 1)}).build();
  // Log names the read: invalid, W004.
  vmc::WriteOrderMap bad{{0, {OpRef{0, 0}}}};
  EXPECT_TRUE(has_rule(
      analysis::analyze(exec, &bad).addresses[0].diagnostics,
      RuleId::kInconsistentWriteOrderLog));
  // Log names the write: valid, no W004.
  vmc::WriteOrderMap good{{0, {OpRef{0, 1}}}};
  EXPECT_FALSE(has_rule(
      analysis::analyze(exec, &good).addresses[0].diagnostics,
      RuleId::kInconsistentWriteOrderLog));
}

TEST(Lint, FragmentClassificationInfoIsAlwaysLast) {
  const Execution exec = ExecutionBuilder().process_ops({W(0, 1)}).build();
  const analysis::AnalysisReport report = analysis::analyze(exec);
  ASSERT_EQ(report.addresses.size(), 1u);
  const auto& diagnostics = report.addresses[0].diagnostics;
  ASSERT_FALSE(diagnostics.empty());
  EXPECT_EQ(diagnostics.back().rule, RuleId::kFragmentClassification);
  EXPECT_EQ(diagnostics.back().severity, analysis::Severity::kInfo);
  EXPECT_EQ(report.info_count, 1u);
}

TEST(Lint, RuleCatalogCodes) {
  EXPECT_STREQ(rule_code(RuleId::kDuplicateValueWrite), "W001");
  EXPECT_STREQ(rule_code(RuleId::kUnreadWrite), "W002");
  EXPECT_STREQ(rule_code(RuleId::kRmwAtomicityCandidate), "W003");
  EXPECT_STREQ(rule_code(RuleId::kInconsistentWriteOrderLog), "W004");
  EXPECT_STREQ(rule_code(RuleId::kFragmentClassification), "I001");
  EXPECT_EQ(rule_severity(RuleId::kFragmentClassification),
            analysis::Severity::kInfo);
  EXPECT_EQ(rule_severity(RuleId::kUnreadWrite),
            analysis::Severity::kWarning);
}

// --- write-order log validation -------------------------------------------

TEST(WriteOrderLog, RejectsEveryMalformation) {
  // P0: W(0,1) W(0,2); P1: W(1,9) — address 1 present to supply a
  // non-member ref with valid coordinates.
  const Execution exec = ExecutionBuilder()
                             .process_ops({W(0, 1), W(0, 2)})
                             .process_ops({W(1, 9)})
                             .build();
  const AddressIndex index(exec);
  ASSERT_EQ(index.entry(0).addr, 0u);
  const auto view = index.view_at(0);

  const OpRef w1{0, 0}, w2{0, 1}, other{1, 0};
  using analysis::poly::validate_write_order_log;

  EXPECT_TRUE(validate_write_order_log(view, std::vector{w1, w2}).ok);
  // Too short / too long.
  EXPECT_FALSE(validate_write_order_log(view, std::vector{w1}).ok);
  EXPECT_FALSE(validate_write_order_log(view, std::vector{w1, w2, w2}).ok);
  // Entry on another address.
  EXPECT_FALSE(validate_write_order_log(view, std::vector{w1, other}).ok);
  // Duplicate entry.
  EXPECT_FALSE(validate_write_order_log(view, std::vector{w1, w1}).ok);
  // Program-order inversion within one history.
  EXPECT_FALSE(validate_write_order_log(view, std::vector{w2, w1}).ok);
}

// --- router behavior ------------------------------------------------------

TEST(Router, EmptyExecutionVacuouslyCoherent) {
  const AddressIndex index{Execution{}};
  const analysis::RoutedReport report =
      analysis::verify_coherence_routed(index);
  EXPECT_EQ(report.report.verdict, vmc::Verdict::kCoherent);
  EXPECT_TRUE(report.fragments.empty());
}

TEST(Router, BranchingRmwChainFallsBackToExact) {
  // Two heads read the initial value, so the chain walk cannot commit;
  // the exact search must take over and still find the schedule
  // P0.0, P1.0, P2.0, P0.1.
  const Execution exec = ExecutionBuilder()
                             .process_ops({RW(0, 0, 1), RW(0, 2, 4)})
                             .process_ops({RW(0, 1, 0)})
                             .process_ops({RW(0, 0, 2)})
                             .build();
  const AddressIndex index(exec);
  const analysis::RoutedReport report =
      analysis::verify_coherence_routed(index);
  EXPECT_EQ(report.fragments[0], Fragment::kRmwChain);
  EXPECT_EQ(report.deciders[0], Decider::kExact);  // fell back
  EXPECT_EQ(report.report.verdict, vmc::Verdict::kCoherent);
  EXPECT_EQ(report.exact_routed, 1u);
}

TEST(Router, StalledRmwChainIsIncoherent) {
  // Forced prefix, then nothing reads the current value: a proof of
  // incoherence from the O(n) walk — and exact agrees.
  // Value 1 written twice keeps this out of the write-once-rmw bucket.
  const Execution exec = ExecutionBuilder()
                             .process_ops({RW(0, 0, 1), RW(0, 5, 1)})
                             .process_ops({RW(0, 1, 2)})
                             .build();
  const Differential d = run_differential(exec);
  EXPECT_EQ(d.fragment, Fragment::kRmwChain);
  EXPECT_EQ(d.decider, Decider::kRmwChain);
  EXPECT_EQ(d.routed, vmc::Verdict::kIncoherent);
  EXPECT_EQ(d.exact, vmc::Verdict::kIncoherent);
}

TEST(Router, InvalidWriteOrderLogNeverFallsBack) {
  // The question "coherent under THIS serialization" has no exact
  // fallback: an unusable log is an unknown verdict, surfaced to lint as
  // W004, exactly like the vmc write-order entry point behaves.
  const Execution exec =
      ExecutionBuilder().process_ops({R(0, 0), W(0, 1)}).build();
  vmc::WriteOrderMap bad{{0, {OpRef{0, 0}}}};
  const AddressIndex index(exec);
  const analysis::RoutedReport report =
      analysis::verify_coherence_routed(index, &bad);
  EXPECT_EQ(report.fragments[0], Fragment::kWriteOrder);
  EXPECT_EQ(report.deciders[0], Decider::kWriteOrder);
  EXPECT_EQ(report.report.verdict,
            oracles::verify_coherence_with_write_order(exec, bad).verdict);
}

// --- differential: routed deciders vs exact -------------------------------

TEST(DifferentialRouting, WriteOnceCoherentAndFaulty) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    workload::SingleAddressParams params;
    params.num_histories = 6;
    params.ops_per_history = 10;
    params.num_values = 0;  // fresh values: the write-once regime
    params.write_fraction = 0.4;
    params.rmw_fraction = 0.0;
    Xoshiro256ss rng(seed);
    const workload::GeneratedTrace trace =
        workload::generate_coherent(params, rng);

    const Differential clean = run_differential(trace.execution);
    EXPECT_EQ(clean.fragment, Fragment::kWriteOnce) << "seed " << seed;
    EXPECT_EQ(clean.decider, Decider::kWriteOnce) << "seed " << seed;
    EXPECT_EQ(clean.routed, vmc::Verdict::kCoherent) << "seed " << seed;
    EXPECT_EQ(clean.exact, vmc::Verdict::kCoherent) << "seed " << seed;

    for (const auto fault :
         {workload::Fault::kStaleRead, workload::Fault::kLostWrite,
          workload::Fault::kFabricatedRead, workload::Fault::kReorderedOps}) {
      const auto faulty = workload::inject_fault(trace, fault, rng);
      if (!faulty) continue;
      const Differential d = run_differential(*faulty);
      EXPECT_EQ(d.routed, d.exact)
          << "seed " << seed << " fault " << to_string(fault);
    }
  }
}

TEST(DifferentialRouting, OneOpCoherentAndFaulty) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    workload::SingleAddressParams params;
    params.num_histories = 24;
    params.ops_per_history = 1;
    params.num_values = 3;
    params.write_fraction = 0.5;
    params.rmw_fraction = 0.0;
    Xoshiro256ss rng(seed * 31);
    const workload::GeneratedTrace trace =
        workload::generate_coherent(params, rng);

    const Differential clean = run_differential(trace.execution);
    EXPECT_EQ(clean.fragment, Fragment::kOneOp) << "seed " << seed;
    EXPECT_EQ(clean.decider, Decider::kOneOp) << "seed " << seed;
    EXPECT_EQ(clean.routed, vmc::Verdict::kCoherent) << "seed " << seed;
    EXPECT_EQ(clean.exact, vmc::Verdict::kCoherent) << "seed " << seed;

    for (const auto fault :
         {workload::Fault::kStaleRead, workload::Fault::kLostWrite,
          workload::Fault::kFabricatedRead}) {
      const auto faulty = workload::inject_fault(trace, fault, rng);
      if (!faulty) continue;
      const Differential d = run_differential(*faulty);
      EXPECT_EQ(d.routed, d.exact)
          << "seed " << seed << " fault " << to_string(fault);
    }
  }
}

TEST(DifferentialRouting, ForcedRmwChainMatchesExact) {
  for (const std::size_t n : {16u, 48u, 96u}) {
    const Execution exec = rmw_chain_exec(n, 8, 16);
    const Differential d = run_differential(exec);
    EXPECT_EQ(d.fragment, Fragment::kRmwChain) << "n " << n;
    EXPECT_EQ(d.decider, Decider::kRmwChain) << "n " << n;
    EXPECT_EQ(d.routed, vmc::Verdict::kCoherent) << "n " << n;
    EXPECT_EQ(d.exact, vmc::Verdict::kCoherent) << "n " << n;
  }
}

TEST(DifferentialRouting, WriteOrderMatchesVmcEntryPoint) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    workload::SingleAddressParams params;
    params.num_histories = 6;
    params.ops_per_history = 8;
    params.num_values = 3;  // collisions: order genuinely needed
    params.write_fraction = 0.5;
    params.rmw_fraction = 0.0;
    Xoshiro256ss rng(seed * 17);
    const workload::GeneratedTrace trace =
        workload::generate_coherent(params, rng);
    vmc::WriteOrderMap orders{{0, trace.write_order}};

    const AddressIndex index(trace.execution);
    const analysis::RoutedReport routed =
        analysis::verify_coherence_routed(index, &orders);
    EXPECT_EQ(routed.fragments[0], Fragment::kWriteOrder) << "seed " << seed;
    EXPECT_EQ(routed.deciders[0], Decider::kWriteOrder) << "seed " << seed;
    EXPECT_EQ(routed.report.verdict, vmc::Verdict::kCoherent)
        << "seed " << seed;
    const auto& witness = routed.report.addresses[0].result.witness;
    const auto check = check_coherent_schedule(trace.execution, 0, witness);
    EXPECT_TRUE(check.ok) << "seed " << seed << ": " << check.violation;

    EXPECT_EQ(
        routed.report.verdict,
        oracles::verify_coherence_with_write_order(trace.execution, orders)
            .verdict)
        << "seed " << seed;
  }
}

TEST(DifferentialRouting, MultiAddressAgreesWithVmcCascade) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    workload::MultiAddressParams params;
    params.num_processes = 5;
    params.ops_per_process = 20;
    params.num_addresses = 6;
    params.num_values = 4;
    params.rmw_fraction = 0.2;
    Xoshiro256ss rng(seed * 101);
    const workload::GeneratedMultiTrace trace =
        workload::generate_sc(params, rng);

    const AddressIndex index(trace.execution);
    const analysis::RoutedReport routed =
        analysis::verify_coherence_routed(index);
    const vmc::CoherenceReport cascade = oracles::verify_coherence(index);
    EXPECT_EQ(routed.report.verdict, cascade.verdict) << "seed " << seed;
    ASSERT_EQ(routed.report.addresses.size(), cascade.addresses.size());
    for (std::size_t i = 0; i < cascade.addresses.size(); ++i)
      EXPECT_EQ(routed.report.addresses[i].result.verdict,
                cascade.addresses[i].result.verdict)
          << "seed " << seed << " addr index " << i;
    EXPECT_EQ(routed.poly_routed + routed.exact_routed,
              index.num_addresses());
  }
}

// --- tracing: documented span attributes ----------------------------------

/// Span name -> attribute keys of every exported event with that name,
/// parsed from write_chrome_trace output (one event per line).
std::map<std::string, std::vector<std::set<std::string>>> exported_span_attrs() {
  std::ostringstream out;
  obs::write_chrome_trace(out);
  std::map<std::string, std::vector<std::set<std::string>>> spans;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    const std::string prefix = "{\"name\":\"";
    if (line.rfind(prefix, 0) != 0) continue;
    const std::string name =
        line.substr(prefix.size(), line.find('"', prefix.size()) - prefix.size());
    const std::size_t args = line.find("\"args\":{");
    if (args == std::string::npos) continue;
    std::set<std::string> keys;
    for (std::size_t at = line.find('{', args); at != std::string::npos;
         at = line.find(",\"", at + 1)) {
      const std::size_t begin = line.find('"', at) + 1;
      keys.insert(line.substr(begin, line.find('"', begin) - begin));
    }
    spans[name].push_back(std::move(keys));
  }
  return spans;
}

TEST(RouterTracing, DocumentedSpanAttributesArePresent) {
  // A span holds at most obs::kMaxNumericAttrs numeric attributes; one
  // set past the cap would vanish from the export. Route a general
  // address through saturation + exact search, then race the portfolio
  // on it, run both one-shot SAT solvers, and require every attribute
  // docs/OBSERVABILITY.md lists.
  std::optional<Execution> general;
  for (std::uint64_t seed = 1; seed <= 64 && !general; ++seed) {
    workload::SingleAddressParams params;
    params.num_histories = 4;
    params.ops_per_history = 6;
    params.num_values = 2;
    Xoshiro256ss rng(seed);
    Execution exec = workload::generate_coherent(params, rng).execution;
    const AddressIndex index(exec);
    const analysis::RouteOutcome outcome =
        analysis::check_routed(index.view_at(0), nullptr);
    if (outcome.decider == Decider::kExact && outcome.saturation_ran)
      general = std::move(exec);
  }
  ASSERT_TRUE(general.has_value()) << "no seed reached the exact search";

  const bool was_tracing = obs::tracing_enabled();
  obs::set_tracing_enabled(true);
  obs::reset_trace();
  {
    const AddressIndex index(*general);
    (void)analysis::verify_coherence_routed(index);
    analysis::PortfolioOptions portfolio;
    portfolio.enabled = true;
    (void)analysis::verify_coherence_routed(index, nullptr, {}, portfolio);
    sat::Cnf cnf;
    const sat::Var x = cnf.new_var();
    const sat::Var y = cnf.new_var();
    cnf.add_clause({sat::pos(x), sat::pos(y)});
    cnf.add_clause({sat::neg(x), sat::pos(y)});
    (void)sat::solve(cnf);
    (void)sat::solve_dpll(cnf);
  }
  obs::set_tracing_enabled(false);
  EXPECT_EQ(obs::trace_dropped_count(), 0u);
  const auto spans = exported_span_attrs();
  obs::reset_trace();
  obs::set_tracing_enabled(was_tracing);

  const std::map<std::string, std::vector<std::string>> documented = {
      {"analysis.route", {"addr", "ops", "fragment", "decider"}},
      {"analysis.saturate",
       {"writes", "edges", "rounds", "branch_points", "status", "kernel"}},
      {"analysis.portfolio",
       {"addr", "engines", "winner", "definite", "wasted_states"}},
      {"vmc.exact",
       {"states", "transitions", "max_frontier", "key_words", "verdict"}},
      {"sat.cdcl",
       {"decisions", "propagations", "backtracks", "restarts", "status"}},
      {"sat.dpll",
       {"decisions", "propagations", "backtracks", "restarts", "status"}},
  };
  for (const auto& [name, keys] : documented) {
    const auto it = spans.find(name);
    ASSERT_NE(it, spans.end()) << name << " never exported";
    for (const std::set<std::string>& event : it->second)
      for (const std::string& key : keys)
        EXPECT_TRUE(event.count(key)) << name << " lacks " << key;
  }
}

}  // namespace
