// Coherence-order saturation tier: scaling of the decide path and the
// payoff of exporting must-precede edges into the exact search.
//
// Three sweeps land in BENCH_saturate.json:
//
//   Set A ("zip" traces): two histories whose reads pin every write of
//   the other history between two of their own, so saturation forces a
//   total order and the routed verifier decides without any search. A
//   trailing duplicated value keeps the trace out of the write-once
//   fragment so it genuinely routes through the saturation tier. The
//   log-log slope of routed time against trace size is the tier's
//   empirical exponent; the paper-level claim is n*alpha(n)..n log n,
//   and the trajectory harness (tools/check_bench_trajectory.py) caps
//   the fitted slope at 1.45 regardless of baseline drift.
//
//   Set B ("chain" traces): K histories of distinct-value writes where
//   history h ends with a read of history h-1's middle value. The read
//   sits after all of h's writes, so rule R1 derives "all of h's writes
//   precede h-1's suffix" — an ordering the plain exact search only
//   discovers by walking into dead subtrees (the read's value never
//   recurs once h-1 passes its midpoint). The must-precede oracle prunes
//   those subtrees at the candidate step; the harness holds the best
//   point to >= 2x. A differential_ok flag asserts the pruned search
//   returned bit-identical verdicts and witnesses, so the speedup can
//   never come from changed semantics.
//
//   Set C ("small" points): fleet-shaped addresses with at most 64
//   writes — the service's common case — saturated by the closure
//   kernel (saturate()) and by the reference condensation/DFS
//   derivation (saturate_reference()). Every Result must be equal field
//   for field, folded into differential_ok; kernel_speedup is the
//   reference's batch time over the kernel's.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/router.hpp"
#include "analysis/saturate/core.hpp"
#include "bench_util.hpp"
#include "support/format.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "trace/address_index.hpp"
#include "vmc/exact.hpp"
#include "workload/random.hpp"

namespace {

using namespace vermem;

/// Set A: forced-order "zip". P0 writes odd values; P1 alternates a read
/// of P0's next odd value with a write of the following even value, so
/// every P0 write is pinned between two P1 writes: o1 -> e1 -> o2 -> ...
/// The duplicated final value defeats the write-once fragment without
/// adding any ordering freedom (the duplicate is program-order-chained).
Execution zip_trace(std::size_t rungs) {
  std::vector<Operation> p0, p1;
  for (std::size_t k = 1; k <= rungs; ++k) {
    const auto odd = static_cast<Value>(2 * k - 1);
    const auto even = static_cast<Value>(2 * k);
    p0.push_back(W(0, odd));
    p1.push_back(R(0, odd));
    p1.push_back(W(0, even));
  }
  p1.push_back(W(0, static_cast<Value>(2 * rungs)));
  return ExecutionBuilder()
      .process_ops(std::move(p0))
      .process_ops(std::move(p1))
      .final_value(0, static_cast<Value>(2 * rungs))
      .build();
}

/// Set B: K histories of `writes` distinct values each; history h >= 1
/// ends with a read of history h-1's middle value. Program order puts
/// the read after all of h's writes, so the derived must-edge
/// (h's last write -> h-1's middle write) is invisible to the plain
/// search until it deadlocks.
Execution chain_trace(std::size_t histories, std::size_t writes) {
  ExecutionBuilder builder;
  const auto value_of = [&](std::size_t h, std::size_t i) {
    return static_cast<Value>(h * writes + i + 1);
  };
  for (std::size_t h = 0; h < histories; ++h) {
    std::vector<Operation> ops;
    for (std::size_t i = 0; i < writes; ++i)
      ops.push_back(W(0, value_of(h, i)));
    if (h > 0) ops.push_back(R(0, value_of(h - 1, writes / 2)));
    builder.process_ops(std::move(ops));
  }
  builder.final_value(0, value_of(0, writes - 1));
  return builder.build();
}

/// Set C: `traces` SC executions of the given shape (process, op and
/// address counts drawn uniformly from the ranges).
struct SmallShape {
  const char* name;
  std::size_t procs_lo, procs_hi;
  std::size_t ops_lo, ops_hi;
  std::size_t addrs_lo, addrs_hi;
  std::size_t traces;
};

std::size_t draw(Xoshiro256ss& rng, std::size_t lo, std::size_t hi) {
  return lo + static_cast<std::size_t>(rng.below(hi - lo + 1));
}

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

// --- google-benchmark pairs (smoke + local profiling) --------------------

void BM_SaturateRouted(benchmark::State& state) {
  const Execution exec = zip_trace(static_cast<std::size_t>(state.range(0)));
  const AddressIndex index(exec);
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis::verify_coherence_routed(index));
}
BENCHMARK(BM_SaturateRouted)->Arg(64)->Arg(256)->Unit(benchmark::kMicrosecond);

void BM_ExactPlain(benchmark::State& state) {
  const Execution exec = chain_trace(3, 8);
  const vmc::VmcInstance instance{exec, 0};
  for (auto _ : state) benchmark::DoNotOptimize(vmc::check_exact(instance));
}
BENCHMARK(BM_ExactPlain)->Unit(benchmark::kMicrosecond);

void BM_ExactPruned(benchmark::State& state) {
  const Execution exec = chain_trace(3, 8);
  const AddressIndex index(exec);
  const auto sat = saturate::saturate(index.view_at(0));
  const vmc::VmcInstance instance{exec, 0};
  const vmc::MustPrecede oracle = oracle_for(sat, instance);
  vmc::ExactOptions options;
  options.pruner = &oracle;
  for (auto _ : state)
    benchmark::DoNotOptimize(vmc::check_exact(instance, options));
}
BENCHMARK(BM_ExactPruned)->Unit(benchmark::kMicrosecond);

// --- the JSON-emitting sweeps ---------------------------------------------

struct RoutePoint {
  std::string name;
  std::size_t ops = 0;
  double routed_sec = 0;
  std::uint64_t edges = 0;
  bool decided = false;
};

struct PrunePoint {
  std::string name;
  double plain_sec = 0;
  double pruned_sec = 0;
  std::uint64_t plain_states = 0;
  std::uint64_t pruned_states = 0;
  std::uint64_t oracle_prunes = 0;
  bool differential_ok = true;
};

struct SmallPoint {
  std::string name;
  std::size_t addresses = 0;
  std::size_t max_writes = 0;
  double kernel_sec = 0;
  double reference_sec = 0;
  bool differential_ok = true;
};

void run_sweep() {
  bool differential_ok = true;

  // Set A: routed decide path on forced zips of growing size.
  std::cout << "\n== saturation tier: routed decide path (forced zips) ==\n";
  std::vector<RoutePoint> route_points;
  std::vector<double> sizes, times;
  for (const std::size_t rungs : {32u, 64u, 128u, 256u, 512u, 1024u}) {
    const Execution exec = zip_trace(rungs);
    const AddressIndex index(exec);
    RoutePoint point;
    point.name = "zip_" + std::to_string(rungs);
    point.ops = 0;
    for (std::size_t p = 0; p < exec.num_processes(); ++p)
      point.ops += exec.history(p).size();
    const analysis::RoutedReport routed =
        analysis::verify_coherence_routed(index);
    point.decided = routed.saturate_decided == 1 &&
                    routed.report.verdict == vmc::Verdict::kCoherent;
    differential_ok = differential_ok && point.decided;
    point.edges = routed.saturate_edges;
    if (rungs <= 64) {
      // Small points double as a differential check against the exact
      // search (the zip is value-forced, so exact stays linear here).
      const vmc::CheckResult exact =
          vmc::check_exact(vmc::VmcInstance::from_execution(exec, 0));
      differential_ok =
          differential_ok && exact.verdict == routed.report.verdict;
    }
    point.routed_sec =
        time_run([&] { return analysis::verify_coherence_routed(index); });
    sizes.push_back(static_cast<double>(point.ops));
    times.push_back(point.routed_sec);
    route_points.push_back(std::move(point));
  }
  const double routed_slope = bench::loglog_slope(sizes, times);

  TextTable route_table({"point", "ops", "routed", "edges", "decided"});
  for (const RoutePoint& point : route_points)
    route_table.add_row({point.name, std::to_string(point.ops),
                         human_nanos(point.routed_sec * 1e9),
                         std::to_string(point.edges),
                         point.decided ? "yes" : "NO"});
  route_table.print(std::cout);
  std::cout << "routed slope: " << bench::format_slope(routed_slope)
            << " (claimed n*alpha(n)..n log n; trajectory cap 1.45)\n";

  // Set B: pruned vs unpruned exact search on late-read chains.
  std::cout << "\n== must-precede oracle: pruned vs plain exact search ==\n";
  struct ChainShape {
    const char* name;
    std::size_t histories, writes;
  };
  const ChainShape shapes[] = {
      {"chain_k2_w12", 2, 12},
      {"chain_k3_w8", 3, 8},
      {"chain_k3_w12", 3, 12},
  };
  std::vector<PrunePoint> prune_points;
  double max_prune_speedup = 0;
  for (const ChainShape& shape : shapes) {
    const Execution exec = chain_trace(shape.histories, shape.writes);
    const AddressIndex index(exec);
    const auto sat = saturate::saturate(index.view_at(0));
    const vmc::VmcInstance instance{exec, 0};
    const vmc::MustPrecede oracle = oracle_for(sat, instance);
    vmc::ExactOptions with_oracle;
    with_oracle.pruner = &oracle;

    PrunePoint point;
    point.name = shape.name;
    const vmc::CheckResult plain = vmc::check_exact(instance);
    const vmc::CheckResult pruned = vmc::check_exact(instance, with_oracle);
    point.differential_ok = plain.verdict == pruned.verdict &&
                            plain.witness == pruned.witness &&
                            plain.verdict == vmc::Verdict::kCoherent;
    differential_ok = differential_ok && point.differential_ok;
    point.plain_states = plain.stats.states_visited;
    point.pruned_states = pruned.stats.states_visited;
    point.oracle_prunes = pruned.stats.oracle_prunes;
    point.plain_sec = time_run([&] { return vmc::check_exact(instance); });
    point.pruned_sec =
        time_run([&] { return vmc::check_exact(instance, with_oracle); });
    max_prune_speedup =
        std::max(max_prune_speedup, point.plain_sec / point.pruned_sec);
    prune_points.push_back(std::move(point));
  }

  TextTable prune_table(
      {"point", "plain", "pruned", "speedup", "states", "prunes"});
  char buf[64];
  for (const PrunePoint& point : prune_points) {
    std::snprintf(buf, sizeof buf, "%.2fx",
                  point.plain_sec / point.pruned_sec);
    prune_table.add_row(
        {point.name, human_nanos(point.plain_sec * 1e9),
         human_nanos(point.pruned_sec * 1e9), buf,
         std::to_string(point.plain_states) + "->" +
             std::to_string(point.pruned_states),
         std::to_string(point.oracle_prunes)});
  }
  prune_table.print(std::cout);
  std::cout << "differential: " << (differential_ok ? "ok" : "DIVERGED")
            << "  max prune speedup: " << max_prune_speedup
            << "x (trajectory gate: >= 2x)\n";

  // Set C: closure kernel vs reference on fleet-shaped small addresses.
  std::cout << "\n== closure kernel vs reference (<= 64 writes) ==\n";
  const SmallShape small_shapes[] = {
      // The service fleet: 2-4 procs x 32-80 ops over 4-8 addresses.
      {"fleet", 2, 4, 32, 80, 4, 8, 64},
      // Contended: 4 procs x 80 ops over 2 addresses, ~64 writes each.
      {"fleet_contended", 4, 4, 80, 80, 2, 2, 32},
  };
  std::vector<SmallPoint> small_points;
  for (const SmallShape& shape : small_shapes) {
    Xoshiro256ss rng(0x5a7u + small_points.size());
    std::vector<std::unique_ptr<Execution>> execs;
    std::vector<std::unique_ptr<AddressIndex>> indexes;
    std::vector<ProjectedView> views;
    for (std::size_t t = 0; t < shape.traces; ++t) {
      workload::MultiAddressParams params;
      params.num_processes = draw(rng, shape.procs_lo, shape.procs_hi);
      params.ops_per_process = draw(rng, shape.ops_lo, shape.ops_hi);
      params.num_addresses = draw(rng, shape.addrs_lo, shape.addrs_hi);
      params.num_values = 6;
      params.rmw_fraction = 0.05;
      execs.push_back(std::make_unique<Execution>(
          workload::generate_sc(params, rng).execution));
      indexes.push_back(std::make_unique<AddressIndex>(*execs.back()));
      const AddressIndex& index = *indexes.back();
      for (std::size_t i = 0; i < index.num_addresses(); ++i)
        if (index.entry(i).write_count <= saturate::kClosureMaxWrites)
          views.push_back(index.view_at(i));
    }
    SmallPoint point;
    point.name = shape.name;
    point.addresses = views.size();
    for (const ProjectedView& view : views) {
      point.max_writes =
          std::max<std::size_t>(point.max_writes, view.stats().write_count);
      point.differential_ok =
          point.differential_ok &&
          saturate::saturate(view) == saturate::saturate_reference(view);
    }
    differential_ok = differential_ok && point.differential_ok;
    const auto batch = [&](auto&& derive) {
      std::size_t edges = 0;
      for (const ProjectedView& view : views) edges += derive(view).edges.size();
      return edges;
    };
    point.kernel_sec = time_run([&] {
      return batch([](const ProjectedView& v) { return saturate::saturate(v); });
    });
    point.reference_sec = time_run([&] {
      return batch(
          [](const ProjectedView& v) { return saturate::saturate_reference(v); });
    });
    small_points.push_back(std::move(point));
  }

  TextTable small_table(
      {"point", "addresses", "max writes", "kernel", "reference", "speedup"});
  for (const SmallPoint& point : small_points) {
    std::snprintf(buf, sizeof buf, "%.2fx",
                  point.reference_sec / point.kernel_sec);
    small_table.add_row({point.name, std::to_string(point.addresses),
                         std::to_string(point.max_writes),
                         human_nanos(point.kernel_sec * 1e9),
                         human_nanos(point.reference_sec * 1e9), buf});
  }
  small_table.print(std::cout);
  std::cout << "differential (all sets): "
            << (differential_ok ? "ok" : "DIVERGED") << "\n";

  std::ofstream json("BENCH_saturate.json");
  json << "{\n  \"bench\": \"saturate\",\n"
       << "  \"differential_ok\": " << (differential_ok ? "true" : "false")
       << ",\n  \"routed_slope\": " << routed_slope
       << ",\n  \"max_prune_speedup\": " << max_prune_speedup
       << ",\n  \"points\": [\n";
  for (std::size_t i = 0; i < route_points.size(); ++i) {
    const RoutePoint& point = route_points[i];
    json << "    {\"name\": \"" << point.name << "\", \"ops\": " << point.ops
         << ", \"routed_sec\": " << point.routed_sec
         << ", \"edges\": " << point.edges
         << ", \"decided\": " << (point.decided ? "true" : "false") << "}"
         << (i + 1 < route_points.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"prune_points\": [\n";
  for (std::size_t i = 0; i < prune_points.size(); ++i) {
    const PrunePoint& point = prune_points[i];
    json << "    {\"name\": \"" << point.name
         << "\", \"plain_sec\": " << point.plain_sec
         << ", \"pruned_sec\": " << point.pruned_sec
         << ", \"speedup\": " << point.plain_sec / point.pruned_sec
         << ", \"plain_states\": " << point.plain_states
         << ", \"pruned_states\": " << point.pruned_states
         << ", \"oracle_prunes\": " << point.oracle_prunes
         << ", \"differential_ok\": "
         << (point.differential_ok ? "true" : "false") << "}"
         << (i + 1 < prune_points.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"small_points\": [\n";
  for (std::size_t i = 0; i < small_points.size(); ++i) {
    const SmallPoint& point = small_points[i];
    json << "    {\"name\": \"" << point.name
         << "\", \"addresses\": " << point.addresses
         << ", \"max_writes\": " << point.max_writes
         << ", \"kernel_sec\": " << point.kernel_sec
         << ", \"reference_sec\": " << point.reference_sec
         << ", \"kernel_speedup\": " << point.reference_sec / point.kernel_sec
         << ", \"differential_ok\": "
         << (point.differential_ok ? "true" : "false") << "}"
         << (i + 1 < small_points.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "wrote BENCH_saturate.json\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  run_sweep();
  return 0;
}
