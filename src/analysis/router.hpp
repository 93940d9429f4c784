#pragma once
// Shape-directed routing: classify each per-address projection into its
// Figure 5.3 fragment and dispatch it to the cheapest dedicated decider.
//
// This is vermem's one per-address dispatcher: the service, the stream
// path, vscc's coherence stage, the models layer and the CLIs all decide
// coherence through it. The router classifies once from the
// ProjectedView (a single arena scan, reusing AddressIndex stats) and
// jumps straight to the fragment's polynomial decider; only
// kBoundedProcesses/kGeneral instances — and the rare branching RMW
// chain — reach the saturation tier and the exact frontier search.
// Verdicts equal those of the plain sequential cascade (probe each
// special case, then exact search) by construction: every polynomial
// decider is sound, and any kUnknown from a structural decider falls
// back to exact. The differential suites in tests/analysis_test.cpp and
// tests/differential_test.cpp enforce that against the cascade kept in
// the test oracle library (tests/oracles/cascade.hpp).

#include <array>
#include <cstdint>
#include <optional>

#include "analysis/fragment.hpp"
#include "analysis/saturate/core.hpp"
#include "sat/solver.hpp"
#include "trace/address_index.hpp"
#include "vmc/bounded.hpp"
#include "vmc/checker.hpp"
#include "vmc/exact.hpp"

namespace vermem::analysis {

/// Which decision procedure produced the verdict.
enum class Decider : std::uint8_t {
  kTrivial,     ///< empty projection, vacuous verdict
  kOneOp,       ///< one op per process (vmc/special, span poly.one_op)
  kWriteOnce,   ///< read-map known (vmc/special, span poly.write_once)
  kWriteOrder,  ///< poly/write_order (Section 5.2)
  kRmwChain,    ///< poly/rmw_chain forced walk
  kSaturate,    ///< coherence-order saturation (analysis/saturate)
  kExact,       ///< exact frontier search (incl. fallbacks)
};

inline constexpr std::size_t kNumDeciders =
    static_cast<std::size_t>(Decider::kExact) + 1;

[[nodiscard]] constexpr const char* to_string(Decider d) noexcept {
  switch (d) {
    case Decider::kTrivial: return "trivial";
    case Decider::kOneOp: return "one-op";
    case Decider::kWriteOnce: return "write-once";
    case Decider::kWriteOrder: return "write-order";
    case Decider::kRmwChain: return "rmw-chain";
    case Decider::kSaturate: return "saturate";
    case Decider::kExact: return "exact";
  }
  return "?";
}

/// Engines the portfolio races on the exact tier. Every engine decides
/// the same instance independently; the first *definite* verdict
/// (coherent/incoherent) wins and cancels the rest cooperatively.
enum class Engine : std::uint8_t {
  kExactSearch,  ///< memoized frontier search (vmc::check_exact)
  kCdcl,         ///< CNF encoding + CDCL (encode::check_via_sat)
  kBoundedK,     ///< level-synchronous BFS (vmc::check_bounded_k)
  kDpll,         ///< CNF + chronological DPLL (opt-in, see sat/dpll.hpp)
};

inline constexpr std::size_t kNumEngines =
    static_cast<std::size_t>(Engine::kDpll) + 1;

[[nodiscard]] constexpr const char* to_string(Engine e) noexcept {
  switch (e) {
    case Engine::kExactSearch: return "exact-search";
    case Engine::kCdcl: return "cdcl";
    case Engine::kBoundedK: return "bounded-k";
    case Engine::kDpll: return "dpll";
  }
  return "?";
}

/// Portfolio configuration for the exact tier. Disabled by default: the
/// race spends one thread per engine on every instance that reaches the
/// tier, which only pays off when instances are hard enough that no
/// single engine dominates.
struct PortfolioOptions {
  bool enabled = false;
  /// When set, the exact tier runs ONLY this engine instead of racing —
  /// the vermemd `--solver=cdcl|dpll` escape hatch. The winner is still
  /// recorded (trivially, as the forced engine).
  std::optional<Engine> only;
  /// CDCL budget/flags. `solver.race_dpll` opts the DPLL arm in (off by
  /// default — no cancellation hook, so a lost race still runs to its
  /// deadline; see sat/dpll.hpp).
  sat::SolverOptions solver;
  /// Bounded-k arm ceiling; its deadline/cancel are overridden per race.
  vmc::BoundedKOptions bounded;
};

/// Verdict plus routing provenance for one address.
struct RouteOutcome {
  vmc::CheckResult result;
  Fragment fragment = Fragment::kGeneral;
  Decider decider = Decider::kExact;
  /// True when a polynomial decider bailed (kUnknown) and the exact
  /// search produced the verdict instead.
  bool fell_back = false;
  /// Saturation provenance, populated when the saturation tier ran
  /// (kBoundedProcesses/kGeneral routes and structural fallbacks).
  bool saturation_ran = false;
  saturate::Status saturation_status = saturate::Status::kPartial;
  std::uint64_t saturation_edges = 0;         ///< must-edges derived
  std::uint64_t saturation_branch_points = 0; ///< unordered Kahn steps
  /// Portfolio provenance. `result.stats` carries ONLY the winning
  /// engine's effort; the losers' effort lands in `wasted_effort` so
  /// aggregate effort accounting stays honest (a race that burned three
  /// engines is not reported as one engine's work).
  bool portfolio_ran = false;
  Engine portfolio_winner = Engine::kExactSearch;
  vmc::SearchStats wasted_effort;  ///< losing engines' merged effort
};

/// Classifies and decides one projection. `write_order`, when non-null,
/// is this address's serialization log in original-execution
/// coordinates; the witness in the outcome is likewise translated back
/// to original coordinates. `portfolio`, when enabled, races the exact
/// tier's engines instead of running the frontier search alone.
[[nodiscard]] RouteOutcome check_routed(
    const ProjectedView& view, const std::vector<OpRef>* write_order,
    const vmc::ExactOptions& exact_options = {},
    const PortfolioOptions& portfolio = {});

/// Whole-execution coherence: check_routed on every address in sorted
/// order (addresses left once the deadline or cancel token fires report
/// kUnknown "skipped"), aggregated into a CoherenceReport, plus
/// per-address fragments/deciders and aggregate routing counters for
/// service stats. `write_orders`, when non-null, maps addresses to their
/// serialization logs; addresses without a log are decided as if none
/// had been supplied.
struct RoutedReport {
  vmc::CoherenceReport report;
  /// Parallel to report.addresses.
  std::vector<Fragment> fragments;
  std::vector<Decider> deciders;
  std::array<std::uint64_t, kNumFragments> fragment_counts{};
  std::array<std::uint64_t, kNumDeciders> decider_counts{};
  std::uint64_t poly_routed = 0;   ///< addresses decided polynomially
  std::uint64_t exact_routed = 0;  ///< addresses that reached exact search
  // Saturation tier tallies (subset of the addresses above).
  std::uint64_t saturate_ran = 0;      ///< addresses the tier analyzed
  std::uint64_t saturate_decided = 0;  ///< decided by it (no search needed)
  std::uint64_t saturate_cycles = 0;   ///< cycle refutations
  std::uint64_t saturate_forced = 0;   ///< forced-total orders found
  std::uint64_t saturate_edges = 0;    ///< must-edges exported to exact/SAT
  // Portfolio tallies (meaningful when a PortfolioOptions was enabled).
  std::uint64_t portfolio_races = 0;   ///< addresses decided by a race
  std::array<std::uint64_t, kNumEngines> engine_wins{};
  /// Losing engines' merged effort across all races. Deliberately kept
  /// out of report.effort: that field is winner-only, per-engine honest.
  vmc::SearchStats wasted_effort;
};

[[nodiscard]] RoutedReport verify_coherence_routed(
    const AddressIndex& index,
    const vmc::WriteOrderMap* write_orders = nullptr,
    const vmc::ExactOptions& exact_options = {},
    const PortfolioOptions& portfolio = {});

}  // namespace vermem::analysis
