// Online verification: the streaming Section 5.2 checker consuming the
// commit-order event stream of both simulated machines. Measures
// events/second, the retained-window high-water mark (the "verification
// hardware buffer size"), and compares the snooping-bus and directory
// machines as stream sources.

#include <benchmark/benchmark.h>

#include <iostream>

#include "sim/directory.hpp"
#include "sim/machine.hpp"
#include "support/format.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "vmc/online.hpp"

namespace {

using namespace vermem;

sim::SimResult bus_trace(std::size_t requests, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  sim::RandomProgramParams params;
  params.num_cores = 4;
  params.requests_per_core = requests;
  params.num_addresses = 16;
  const auto programs = sim::random_programs(params, rng);
  sim::SimConfig config;
  config.num_cores = 4;
  config.cache_lines = 8;
  config.seed = seed;
  return sim::run_programs(programs, config);
}

sim::DirectoryResult dir_trace(std::size_t requests, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  sim::RandomProgramParams params;
  params.num_cores = 4;
  params.requests_per_core = requests;
  params.num_addresses = 16;
  const auto programs = sim::random_programs(params, rng);
  sim::DirectoryConfig config;
  config.num_nodes = 4;
  config.cache_lines = 8;
  config.seed = seed;
  return sim::run_programs_directory(programs, config);
}

template <typename Result>
void stream_through(benchmark::State& state, const Result& result) {
  std::uint64_t window = 0;
  for (auto _ : state) {
    vmc::OnlineCoherenceChecker checker(
        static_cast<std::uint32_t>(result.execution.num_processes()));
    for (const OpRef ref : result.commit_order) {
      if (!checker.observe(ref.process, result.execution.op(ref))) {
        state.SkipWithError("clean stream rejected");
        return;
      }
    }
    window = checker.stats().max_retained_entries;
    benchmark::DoNotOptimize(checker.ok());
  }
  state.counters["max_window"] = static_cast<double>(window);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(result.commit_order.size()));
}

void BM_OnlineBusStream(benchmark::State& state) {
  const auto result = bus_trace(static_cast<std::size_t>(state.range(0)), 1);
  stream_through(state, result);
}
BENCHMARK(BM_OnlineBusStream)->Arg(1000)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_OnlineDirectoryStream(benchmark::State& state) {
  const auto result = dir_trace(static_cast<std::size_t>(state.range(0)), 2);
  stream_through(state, result);
}
BENCHMARK(BM_OnlineDirectoryStream)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_SimulateDirectory(benchmark::State& state) {
  const auto requests = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto result = dir_trace(requests, 3);
    benchmark::DoNotOptimize(result.stats.messages);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(requests) * 4);
}
BENCHMARK(BM_SimulateDirectory)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

void print_machine_comparison() {
  std::cout << "\n== machine comparison (4 cores x 2000 requests) ==\n";
  TextTable table({"machine", "ops", "window high-water", "events/s", "notes"});
  {
    const auto result = bus_trace(2000, 7);
    vmc::OnlineCoherenceChecker checker(4);
    Stopwatch sw;
    for (const OpRef ref : result.commit_order)
      checker.observe(ref.process, result.execution.op(ref));
    const double rate =
        static_cast<double>(result.commit_order.size()) / sw.seconds();
    table.add_row({"snooping bus (MESI)",
                   std::to_string(result.commit_order.size()),
                   std::to_string(checker.stats().max_retained_entries),
                   human_count(rate), checker.ok() ? "verified" : "REJECTED"});
  }
  {
    const auto result = dir_trace(2000, 7);
    vmc::OnlineCoherenceChecker checker(4);
    Stopwatch sw;
    for (const OpRef ref : result.commit_order)
      checker.observe(ref.process, result.execution.op(ref));
    const double rate =
        static_cast<double>(result.commit_order.size()) / sw.seconds();
    table.add_row({"directory (MSI, 3-hop)",
                   std::to_string(result.commit_order.size()),
                   std::to_string(checker.stats().max_retained_entries),
                   human_count(rate), checker.ok() ? "verified" : "REJECTED"});
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_machine_comparison();
  return 0;
}
