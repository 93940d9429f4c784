// The paper's motivating application: dynamic verification of a running
// shared-memory machine. Measures checker throughput on MESI simulator
// traces — with the write-order augmentation (Section 5.2, polynomial)
// against the SAT route (no augmentation) — plus a fault-injection
// detection-rate table.
//
// Expected shape: the write-order checker scales linearly to hundreds of
// thousands of operations; the SAT route works but pays the encoding
// cost; both catch injected protocol bugs at high rates.

#include <benchmark/benchmark.h>

#include <iostream>

#include "analysis/router.hpp"
#include "encode/vmc_to_cnf.hpp"
#include "sim/machine.hpp"
#include "sim/program.hpp"
#include "support/format.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "trace/address_index.hpp"

namespace {

using namespace vermem;

sim::SimResult simulate(std::size_t cores, std::size_t requests,
                        std::uint64_t seed, sim::FaultPlan faults = {}) {
  Xoshiro256ss rng(seed);
  sim::RandomProgramParams params;
  params.num_cores = cores;
  params.requests_per_core = requests;
  params.num_addresses = 16;
  const auto programs = sim::random_programs(params, rng);
  sim::SimConfig config;
  config.num_cores = cores;
  config.cache_lines = 8;
  config.seed = seed;
  config.faults = faults;
  return sim::run_programs(programs, config);
}

void BM_Simulate(benchmark::State& state) {
  const auto requests = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto result = simulate(4, requests, 1);
    benchmark::DoNotOptimize(result.stats.hits);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(requests) * 4);
}
BENCHMARK(BM_Simulate)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_CheckWithWriteOrder(benchmark::State& state) {
  const auto requests = static_cast<std::size_t>(state.range(0));
  const auto result = simulate(4, requests, 2);
  for (auto _ : state) {
    const AddressIndex index(result.execution);
    const auto report =
        analysis::verify_coherence_routed(index, &result.write_orders).report;
    if (!report.coherent()) state.SkipWithError("clean run failed");
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(result.execution.num_operations()));
}
BENCHMARK(BM_CheckWithWriteOrder)
    ->Arg(1000)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_CheckViaSat(benchmark::State& state) {
  const auto requests = static_cast<std::size_t>(state.range(0));
  const auto result = simulate(4, requests, 3);
  for (auto _ : state) {
    for (const Addr addr : result.execution.addresses()) {
      const auto verdict = encode::check_via_sat(
          vmc::VmcInstance::from_execution(result.execution, addr));
      if (!verdict.coherent()) state.SkipWithError("clean run failed");
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(result.execution.num_operations()));
}
BENCHMARK(BM_CheckViaSat)->Arg(100)->Arg(250)->Unit(benchmark::kMillisecond);

void BM_CheckRoutedNoAugmentation(benchmark::State& state) {
  const auto requests = static_cast<std::size_t>(state.range(0));
  const auto result = simulate(4, requests, 4);
  for (auto _ : state) {
    const AddressIndex index(result.execution);
    const auto report = analysis::verify_coherence_routed(index).report;
    if (!report.coherent()) state.SkipWithError("clean run failed");
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(result.execution.num_operations()));
}
BENCHMARK(BM_CheckRoutedNoAugmentation)
    ->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

void print_detection_table() {
  std::cout << "\n== fault detection rates (write-order checker, 30 seeds, "
               "4 cores x 200 requests) ==\n";
  struct Scenario {
    const char* name;
    sim::FaultPlan plan;
  };
  const Scenario scenarios[] = {
      {"drop-invalidation p=0.05", {.drop_invalidation = 0.05}},
      {"drop-invalidation p=0.3", {.drop_invalidation = 0.3}},
      {"stale-fill p=0.1", {.stale_fill = 0.1}},
      {"lost-writeback p=0.1", {.lost_writeback = 0.1}},
      {"corrupt-value p=0.02", {.corrupt_value = 0.02}},
      {"corrupt-write-log p=0.5", {.corrupt_write_log = 0.5}},
  };
  TextTable table({"fault", "faulty runs", "flagged", "detection", "avg check"});
  for (const Scenario& scenario : scenarios) {
    int with_fault = 0, flagged = 0;
    double total_seconds = 0;
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
      const auto result = simulate(4, 200, seed, scenario.plan);
      if (result.stats.faults_injected == 0) continue;
      ++with_fault;
      Stopwatch sw;
      const AddressIndex index(result.execution);
      const auto report =
          analysis::verify_coherence_routed(index, &result.write_orders).report;
      total_seconds += sw.seconds();
      flagged += report.verdict != vmc::Verdict::kCoherent;
    }
    char rate[32];
    std::snprintf(rate, sizeof rate, "%.0f%%",
                  with_fault ? 100.0 * flagged / with_fault : 0.0);
    table.add_row({scenario.name, std::to_string(with_fault),
                   std::to_string(flagged), rate,
                   human_nanos(with_fault ? total_seconds / with_fault * 1e9 : 0)});
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_detection_table();
  return 0;
}
