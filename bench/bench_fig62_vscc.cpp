// Figures 6.2/6.3: SAT -> VSCC. Three measurements:
//   1. the reduced instances are coherent by construction, and verifying
//      that coherence is cheap (polynomial per address);
//   2. deciding sequential consistency on the same instances blows up
//      with formula size (exact search states) — coherence did not help;
//   3. the VSC-Conflict merge of the per-address coherence witnesses:
//      when it succeeds it is fast, and Section 6.3's caveat (a failed
//      merge proves nothing) shows up as exact-search fallbacks.

#include <benchmark/benchmark.h>

#include <iostream>

#include "analysis/router.hpp"
#include "reductions/sat_to_vscc.hpp"
#include "sat/brute.hpp"
#include "sat/gen.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "trace/address_index.hpp"
#include "vsc/vscc.hpp"

namespace {

using namespace vermem;

void BM_VerifyCoherencePerAddress(benchmark::State& state) {
  const auto m = static_cast<sat::Var>(state.range(0));
  Xoshiro256ss rng(1);
  const sat::Cnf cnf = sat::random_ksat(m, m * 3, 3, rng);
  const auto red = reductions::sat_to_vscc(cnf);
  for (auto _ : state) {
    const AddressIndex index(red.execution);
    const auto report = analysis::verify_coherence_routed(index).report;
    if (!report.coherent()) state.SkipWithError("not coherent by construction?");
  }
  state.counters["addresses"] =
      static_cast<double>(red.execution.addresses().size());
}
BENCHMARK(BM_VerifyCoherencePerAddress)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_DecideScOnVsccInstance(benchmark::State& state) {
  const auto m = static_cast<sat::Var>(state.range(0));
  Xoshiro256ss rng(2);
  std::vector<bool> planted;
  const sat::Cnf cnf = sat::planted_ksat(m, m * 2, 3, rng, planted);
  const auto red = reductions::sat_to_vscc(cnf);
  std::uint64_t states = 0;
  for (auto _ : state) {
    const auto result = vsc::check_sc_exact(red.execution);
    if (!result.coherent()) state.SkipWithError("expected SC");
    states = result.stats.states_visited;
  }
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(BM_DecideScOnVsccInstance)
    ->Arg(3)->Arg(4)->Arg(5)
    ->Unit(benchmark::kMillisecond);

void print_pipeline_table() {
  std::cout << "\n== Figure 6.2/6.3: coherence is easy, SC stays hard ==\n";
  TextTable table({"m", "satisfiable", "coherent (promise)", "coherence ms",
                   "SC verdict", "SC ms", "merge outcome"});
  Xoshiro256ss rng(3);
  for (const std::size_t m : {3, 4, 5}) {
    const sat::Cnf cnf =
        sat::random_ksat(static_cast<sat::Var>(m), 2 * m, 3, rng);
    const bool satisfiable = sat::solve_brute(cnf).has_value();
    const auto red = reductions::sat_to_vscc(cnf);

    Stopwatch coherence_time;
    const AddressIndex index(red.execution);
    const auto coherence = analysis::verify_coherence_routed(index).report;
    const double coh_ms = coherence_time.millis();

    Stopwatch sc_time;
    const auto report = vsc::check_vscc(red.execution);
    const double sc_ms = sc_time.millis();

    char coh_buf[32], sc_buf[32];
    std::snprintf(coh_buf, sizeof coh_buf, "%.2f", coh_ms);
    std::snprintf(sc_buf, sizeof sc_buf, "%.2f", sc_ms);
    table.add_row(
        {std::to_string(m), satisfiable ? "yes" : "no",
         to_string(coherence.verdict), coh_buf, to_string(report.sc.verdict),
         sc_buf,
         report.used_exact_fallback ? "merge failed -> exact fallback"
                                    : "merged"});
  }
  table.print(std::cout);
  std::cout << "\nshape check: coherence column always 'coherent' (the\n"
               "Figure 6.3 promise) while the SC verdict tracks formula\n"
               "satisfiability — verifying coherence first did not make\n"
               "consistency verification easy (Section 6.3).\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_pipeline_table();
  return 0;
}
