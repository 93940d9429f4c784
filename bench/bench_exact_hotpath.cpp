// Exact-search hot path: frozen pre-arena implementation vs the
// arena/packed-key rework.
//
// Both sides explore the identical state sequence (the differential
// tests pin this), so every measured delta is pure representation cost:
// per-state heap-allocated std::vector keys plus an
// std::unordered_set<std::vector<uint32_t>> on the legacy side, against
// bump-allocated packed keys deduped by an open-addressing table on the
// reworked side. The contended (few-values, write-heavy) points are
// allocation-bound — per-state key churn dominates — and are the ones
// the trajectory harness (tools/check_bench_trajectory.py) holds to the
// >= 2x bar; the small points are there to show the rework does not
// regress cheap instances. Numbers land in BENCH_exact_hotpath.json,
// with a differential_ok flag so a silent semantic divergence fails the
// harness even if the timings look great.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "oracles/vmc/exact_legacy.hpp"
#include "oracles/vsc/exact_legacy.hpp"
#include "support/format.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "vmc/exact.hpp"
#include "vsc/exact.hpp"
#include "workload/random.hpp"

namespace {

using namespace vermem;

workload::GeneratedTrace contended_trace(std::size_t histories,
                                         std::size_t ops_per_history,
                                         std::uint64_t seed) {
  workload::SingleAddressParams params;
  params.num_histories = histories;
  params.ops_per_history = ops_per_history;
  params.num_values = 3;  // few values => many candidate interleavings
  params.write_fraction = 0.5;
  Xoshiro256ss rng(seed);
  return workload::generate_coherent(params, rng);
}

/// The perfbench `hard` coherence shape: 6 histories of `ops` operations
/// on one address, 2 values, 20% RMW, drawn as an SC trace.
Execution hard6_trace(std::size_t ops, std::uint64_t seed) {
  workload::MultiAddressParams params;
  params.num_processes = 6;
  params.ops_per_process = ops;
  params.num_addresses = 1;
  params.num_values = 2;
  params.rmw_fraction = 0.2;
  Xoshiro256ss rng(seed);
  return workload::generate_sc(params, rng).execution;
}

Execution sc_trace(std::size_t processes, std::size_t ops_per_process,
                   std::size_t addresses, std::uint64_t seed) {
  workload::MultiAddressParams params;
  params.num_processes = processes;
  params.ops_per_process = ops_per_process;
  params.num_addresses = addresses;
  params.num_values = 3;
  Xoshiro256ss rng(seed);
  return workload::generate_sc(params, rng).execution;
}

// --- google-benchmark pairs (smoke + local profiling) --------------------

void BM_VmcLegacy(benchmark::State& state) {
  const auto trace = contended_trace(static_cast<std::size_t>(state.range(0)),
                                     static_cast<std::size_t>(state.range(1)), 1);
  const vmc::VmcInstance instance{trace.execution, 0};
  for (auto _ : state)
    benchmark::DoNotOptimize(vmc::check_exact_legacy(instance));
}
BENCHMARK(BM_VmcLegacy)->Args({4, 12})->Args({6, 12})->Unit(benchmark::kMicrosecond);

void BM_VmcArena(benchmark::State& state) {
  const auto trace = contended_trace(static_cast<std::size_t>(state.range(0)),
                                     static_cast<std::size_t>(state.range(1)), 1);
  const vmc::VmcInstance instance{trace.execution, 0};
  for (auto _ : state) benchmark::DoNotOptimize(vmc::check_exact(instance));
}
BENCHMARK(BM_VmcArena)->Args({4, 12})->Args({6, 12})->Unit(benchmark::kMicrosecond);

void BM_ScLegacy(benchmark::State& state) {
  const auto exec = sc_trace(4, 10, 2, 3);
  for (auto _ : state)
    benchmark::DoNotOptimize(vsc::check_sc_exact_legacy(exec));
}
BENCHMARK(BM_ScLegacy)->Unit(benchmark::kMicrosecond);

void BM_ScArena(benchmark::State& state) {
  const auto exec = sc_trace(4, 10, 2, 3);
  for (auto _ : state) benchmark::DoNotOptimize(vsc::check_sc_exact(exec));
}
BENCHMARK(BM_ScArena)->Unit(benchmark::kMicrosecond);

// --- the JSON-emitting sweep ---------------------------------------------

struct HotpathPoint {
  std::string name;
  bool alloc_bound = false;  ///< per-state key churn dominates; gated >=2x
  std::uint64_t states = 0;
  double legacy_sec = 0;
  double new_sec = 0;
  bool differential_ok = true;
};

template <typename Run>
double time_run(Run&& run) {
  Stopwatch warmup;
  benchmark::DoNotOptimize(run());
  const double once = warmup.seconds();
  const int reps =
      once > 0 ? std::clamp(static_cast<int>(50e-3 / once), 1, 64) : 64;
  Stopwatch timed;
  for (int r = 0; r < reps; ++r) benchmark::DoNotOptimize(run());
  return timed.seconds() / reps;
}

bool same_search(const vmc::CheckResult& a, const vmc::CheckResult& b) {
  return a.verdict == b.verdict && a.witness == b.witness &&
         a.stats.states_visited == b.stats.states_visited &&
         a.stats.transitions == b.stats.transitions &&
         a.stats.max_frontier == b.stats.max_frontier &&
         a.stats.prunes == b.stats.prunes;
}

void run_sweep() {
  std::cout << "\n== exact hot path: frozen legacy vs arena/packed keys ==\n";
  std::vector<HotpathPoint> points;

  struct VmcShape {
    const char* name;
    std::size_t histories, ops;
    bool alloc_bound;
  };
  // The small shape is far from allocation-bound (the table fits in a
  // few cache lines); the contended ones drown the legacy side in
  // per-state vector churn.
  const VmcShape vmc_shapes[] = {
      {"vmc_small", 3, 8, false},
      {"vmc_contended", 5, 12, true},
      {"vmc_contended_wide", 6, 12, true},
  };
  const auto add_vmc_point = [&](const char* name, bool alloc_bound,
                                 const vmc::VmcInstance& instance) {
    HotpathPoint point;
    point.name = name;
    point.alloc_bound = alloc_bound;
    const auto now = vmc::check_exact(instance);
    const auto legacy = vmc::check_exact_legacy(instance);
    point.differential_ok = same_search(now, legacy);
    point.states = now.stats.states_visited;
    point.legacy_sec =
        time_run([&] { return vmc::check_exact_legacy(instance); });
    point.new_sec = time_run([&] { return vmc::check_exact(instance); });
    points.push_back(std::move(point));
  };
  for (const VmcShape& shape : vmc_shapes) {
    const auto trace = contended_trace(shape.histories, shape.ops, 11);
    add_vmc_point(shape.name, shape.alloc_bound, {trace.execution, 0});
  }
  // The `hard` workload's certified-coherence shape: a one-word packed
  // key (6 x 5 position bits + 1 value bit) over ~10^5 states, where the
  // legacy side allocates a key per state.
  add_vmc_point("vmc_hard6", true, {hard6_trace(20, 17), 0});

  struct ScShape {
    const char* name;
    std::size_t processes, ops, addresses;
    bool alloc_bound;
  };
  const ScShape sc_shapes[] = {
      {"sc_small", 3, 6, 2, false},
      {"sc_contended", 4, 12, 2, true},
  };
  for (const ScShape& shape : sc_shapes) {
    const Execution exec =
        sc_trace(shape.processes, shape.ops, shape.addresses, 13);
    HotpathPoint point;
    point.name = shape.name;
    point.alloc_bound = shape.alloc_bound;
    const auto now = vsc::check_sc_exact(exec);
    const auto legacy = vsc::check_sc_exact_legacy(exec);
    point.differential_ok = same_search(now, legacy);
    point.states = now.stats.states_visited;
    point.legacy_sec =
        time_run([&] { return vsc::check_sc_exact_legacy(exec); });
    point.new_sec = time_run([&] { return vsc::check_sc_exact(exec); });
    points.push_back(std::move(point));
  }

  bool differential_ok = true;
  double min_alloc_bound_speedup = 0;
  TextTable table({"point", "states", "legacy", "arena", "speedup", "bound"});
  char buf[64];
  for (const HotpathPoint& point : points) {
    differential_ok = differential_ok && point.differential_ok;
    const double speedup = point.legacy_sec / point.new_sec;
    if (point.alloc_bound &&
        (min_alloc_bound_speedup == 0 || speedup < min_alloc_bound_speedup))
      min_alloc_bound_speedup = speedup;
    std::snprintf(buf, sizeof buf, "%.2fx", speedup);
    table.add_row({point.name, std::to_string(point.states),
                   human_nanos(point.legacy_sec * 1e9),
                   human_nanos(point.new_sec * 1e9), buf,
                   point.alloc_bound ? "alloc" : "small"});
  }
  table.print(std::cout);
  std::cout << "differential: " << (differential_ok ? "ok" : "DIVERGED")
            << "  min alloc-bound speedup: " << min_alloc_bound_speedup
            << "x (trajectory gate: >= 2x)\n";

  std::ofstream json("BENCH_exact_hotpath.json");
  json << "{\n  \"bench\": \"exact_hotpath\",\n"
       << "  \"differential_ok\": " << (differential_ok ? "true" : "false")
       << ",\n"
       << "  \"min_alloc_bound_speedup\": " << min_alloc_bound_speedup
       << ",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const HotpathPoint& point = points[i];
    json << "    {\"name\": \"" << point.name << "\", \"alloc_bound\": "
         << (point.alloc_bound ? "true" : "false")
         << ", \"states\": " << point.states
         << ", \"legacy_sec\": " << point.legacy_sec
         << ", \"new_sec\": " << point.new_sec
         << ", \"speedup\": " << point.legacy_sec / point.new_sec
         << ", \"differential_ok\": "
         << (point.differential_ok ? "true" : "false") << "}"
         << (i + 1 < points.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "wrote BENCH_exact_hotpath.json\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  run_sweep();
  return 0;
}
