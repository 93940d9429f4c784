// Figure 5.3: the complexity summary table, regenerated empirically.
//
// For every cell with a polynomial claim, the corresponding checker is
// timed across a size sweep and the measured log-log slope is printed
// next to the paper's bound. For the NP-complete cells, the exact
// checker's visited-state count on reduction-generated instances shows
// the exponential blowup (and the SAT route shows it is nevertheless
// practical).
//
// Expected shape vs the paper:
//   1 op/process            O(n lg n)  -> slope ~1 (hashing beats sorting)
//   1 op/process (RMW)      O(n^2)     -> slope ~1 (Hierholzer beats the bound)
//   constant k processes    O(n^k)     -> polynomial, grows with k
//   1 write/value           O(n)/O(n lg n) -> slope ~1
//   write-order given       O(n^2)/O(n)    -> slope ~1 on non-adversarial traces
//   2-3 ops or writes       NP-complete    -> states explode with formula size

#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "reductions/restricted.hpp"
#include "sat/gen.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "vmc/exact.hpp"
#include "vmc/special.hpp"
#include "vmc/write_order.hpp"
#include "workload/random.hpp"

namespace {

using namespace vermem;
using workload::GeneratedTrace;
using workload::SingleAddressParams;

GeneratedTrace trace_for(std::size_t histories, std::size_t ops_per_history,
                         std::size_t num_values, double write_fraction,
                         double rmw_fraction, std::uint64_t seed) {
  SingleAddressParams params;
  params.num_histories = histories;
  params.ops_per_history = ops_per_history;
  params.num_values = num_values;
  params.write_fraction = write_fraction;
  params.rmw_fraction = rmw_fraction;
  Xoshiro256ss rng(seed);
  return workload::generate_coherent(params, rng);
}

// --- google-benchmark timings for each polynomial cell -------------------

void BM_OneOpPerProcess(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto trace = trace_for(n, 1, 8, 0.4, 0.0, 11);
  const vmc::VmcInstance instance{trace.execution, 0};
  for (auto _ : state) {
    const auto result = vmc::check_one_op_per_process(instance);
    if (!result.coherent()) state.SkipWithError("expected coherent");
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_OneOpPerProcess)->RangeMultiplier(4)->Range(64, 16384)->Complexity();

void BM_OneOpRmwEulerian(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto trace = trace_for(n, 1, 6, 1.0, 1.0, 13);
  const vmc::VmcInstance instance{trace.execution, 0};
  for (auto _ : state) {
    const auto result = vmc::check_rmw_one_op_per_process(instance);
    if (!result.coherent()) state.SkipWithError("expected coherent");
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_OneOpRmwEulerian)->RangeMultiplier(4)->Range(64, 16384)->Complexity();

void BM_ConstantProcesses(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto per = static_cast<std::size_t>(state.range(1));
  const auto trace = trace_for(k, per, 3, 0.5, 0.0, 17);
  const vmc::VmcInstance instance{trace.execution, 0};
  std::uint64_t states = 0;
  for (auto _ : state) {
    const auto result = vmc::check_exact(instance);
    if (!result.coherent()) state.SkipWithError("expected coherent");
    states = result.stats.states_visited;
  }
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(BM_ConstantProcesses)
    ->Args({2, 64})->Args({2, 256})->Args({2, 1024})
    ->Args({3, 64})->Args({3, 256})
    ->Args({4, 32})->Args({4, 128})
    ->Unit(benchmark::kMicrosecond);

void BM_ReadMapUniqueWrites(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto trace = trace_for(8, n / 8, /*num_values=*/0, 0.4, 0.0, 19);
  const vmc::VmcInstance instance{trace.execution, 0};
  for (auto _ : state) {
    const auto result = vmc::check_read_map(instance);
    if (!result.coherent()) state.SkipWithError("expected coherent");
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ReadMapUniqueWrites)->RangeMultiplier(4)->Range(64, 16384)->Complexity();

void BM_WriteOrderGiven(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto trace = trace_for(8, n / 8, 4, 0.4, 0.1, 23);
  const vmc::VmcInstance instance{trace.execution, 0};
  for (auto _ : state) {
    const auto result = vmc::check_with_write_order(instance, trace.write_order);
    if (!result.coherent()) state.SkipWithError("expected coherent");
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_WriteOrderGiven)->RangeMultiplier(4)->Range(64, 16384)->Complexity();

void BM_RmwWriteOrderGiven(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto trace = trace_for(8, n / 8, 4, 1.0, 1.0, 29);
  const vmc::VmcInstance instance{trace.execution, 0};
  for (auto _ : state) {
    const auto result =
        vmc::check_rmw_with_write_order(instance, trace.write_order);
    if (!result.coherent()) state.SkipWithError("expected coherent");
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RmwWriteOrderGiven)->RangeMultiplier(4)->Range(64, 16384)->Complexity();

// --- the summary table ----------------------------------------------------

void print_summary() {
  using bench::format_slope;
  using bench::loglog_slope;

  std::cout << "\n== Figure 5.3 regenerated (measured scaling vs paper bound) "
               "==\n";
  TextTable table({"case", "ops column", "paper bound", "measured", "verdicts"});

  // `prepare(n)` builds the instance (untimed); the returned closure runs
  // one check over it (timed).
  auto sweep = [&](auto&& prepare) {
    std::vector<double> xs, ys;
    for (const std::size_t n : {512, 1024, 2048, 4096, 8192}) {
      const auto run = prepare(n);
      Stopwatch warmup;
      run();
      const double once = warmup.seconds();
      const int reps =
          once > 0 ? std::clamp(static_cast<int>(5e-3 / once), 1, 512) : 512;
      Stopwatch timed;
      for (int r = 0; r < reps; ++r) run();
      xs.push_back(static_cast<double>(n));
      ys.push_back(timed.seconds() / reps + 1e-12);
    }
    return loglog_slope(xs, ys);
  };

  {
    const double slope = sweep([](std::size_t n) {
      auto trace = std::make_shared<GeneratedTrace>(trace_for(n, 1, 8, 0.4, 0.0, 31));
      return [trace] {
        const vmc::VmcInstance instance{trace->execution, 0};
        benchmark::DoNotOptimize(vmc::check_one_op_per_process(instance).verdict);
      };
    });
    table.add_row({"1 op/process", "simple R/W", "O(n lg n)", format_slope(slope),
                   "coherent"});
  }
  {
    const double slope = sweep([](std::size_t n) {
      auto trace = std::make_shared<GeneratedTrace>(trace_for(n, 1, 6, 1.0, 1.0, 37));
      return [trace] {
        const vmc::VmcInstance instance{trace->execution, 0};
        benchmark::DoNotOptimize(
            vmc::check_rmw_one_op_per_process(instance).verdict);
      };
    });
    table.add_row(
        {"1 op/process", "RMW", "O(n^2)", format_slope(slope), "coherent"});
  }
  {
    const double slope = sweep([](std::size_t n) {
      auto trace = std::make_shared<GeneratedTrace>(trace_for(4, n / 4, 3, 0.5, 0.0, 41));
      return [trace] {
        const vmc::VmcInstance instance{trace->execution, 0};
        benchmark::DoNotOptimize(vmc::check_exact(instance).verdict);
      };
    });
    table.add_row({"constant k=4 processes", "simple R/W", "O(n^k)",
                   format_slope(slope), "coherent"});
  }
  {
    const double slope = sweep([](std::size_t n) {
      auto trace = std::make_shared<GeneratedTrace>(trace_for(8, n / 8, 0, 0.4, 0.0, 43));
      return [trace] {
        const vmc::VmcInstance instance{trace->execution, 0};
        benchmark::DoNotOptimize(vmc::check_read_map(instance).verdict);
      };
    });
    table.add_row({"1 write/value (read-map)", "simple R/W", "O(n)",
                   format_slope(slope), "coherent"});
  }
  {
    const double slope = sweep([](std::size_t n) {
      auto trace = std::make_shared<GeneratedTrace>(trace_for(8, n / 8, 4, 0.4, 0.1, 47));
      return [trace] {
        const vmc::VmcInstance instance{trace->execution, 0};
        benchmark::DoNotOptimize(
            vmc::check_with_write_order(instance, trace->write_order).verdict);
      };
    });
    table.add_row({"write-order given", "simple R/W + RMW", "O(n^2)",
                   format_slope(slope), "coherent"});
  }
  {
    const double slope = sweep([](std::size_t n) {
      auto trace = std::make_shared<GeneratedTrace>(trace_for(8, n / 8, 4, 1.0, 1.0, 53));
      return [trace] {
        const vmc::VmcInstance instance{trace->execution, 0};
        benchmark::DoNotOptimize(
            vmc::check_rmw_with_write_order(instance, trace->write_order).verdict);
      };
    });
    table.add_row({"write-order given", "all RMW", "O(n)", format_slope(slope),
                   "coherent"});
  }
  table.print(std::cout);

  // NP-complete cells: show the exact checker's state blowup on reduced
  // instances (3 ops / 2 writes-per-value cell via Figure 5.1-equivalent
  // construction; 2 RMW / 3 writes via Figure 5.2).
  std::cout << "\n== NP-complete cells: exact-search states on reduced "
               "instances ==\n";
  TextTable blowup({"construction", "m (vars)", "instance ops", "states visited"});
  Xoshiro256ss rng(59);
  for (const std::size_t m : {2, 3, 4}) {
    const auto cnf = sat::random_ksat(static_cast<sat::Var>(m + 2), 2 * m, 3, rng);
    const auto red = reductions::three_sat_to_vmc_rmw(cnf);
    const auto result = vmc::check_exact(red.instance);
    blowup.add_row({"2 RMW/proc, <=3 writes/value", std::to_string(m + 2),
                    std::to_string(red.instance.num_operations()),
                    std::to_string(result.stats.states_visited)});
  }
  blowup.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_summary();
  return 0;
}
