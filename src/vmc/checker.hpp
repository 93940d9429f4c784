#pragma once
// Whole-execution coherence reports.
//
// Coherence is a per-location property: a recorded execution is
// coherent iff every address's projection has a coherent schedule. The
// per-address dispatcher lives in the analysis layer
// (analysis::verify_coherence_routed / check_routed); this header holds
// the report types it fills and the aggregation every caller shares.

#include <unordered_map>
#include <vector>

#include "vmc/result.hpp"

namespace vermem::vmc {

struct AddressReport {
  Addr addr = 0;
  CheckResult result;
};

struct CoherenceReport {
  static constexpr std::size_t kNoViolation = static_cast<std::size_t>(-1);

  /// kCoherent iff every address verified; kIncoherent if any address has
  /// no coherent schedule; kUnknown if undecided addresses remain (budget)
  /// and none is definitely incoherent.
  Verdict verdict = Verdict::kCoherent;
  std::vector<AddressReport> addresses;
  /// Index into `addresses` of the lowest-address incoherent report,
  /// recorded at aggregation time (kNoViolation when every address
  /// verified). Reports are address-sorted, so this is deterministic.
  std::size_t first_violation_index = kNoViolation;
  /// Whole-trace solver effort: per-address SearchStats merged (counters
  /// summed, peaks maxed) at aggregation time, so per-address stats are
  /// never dropped.
  SearchStats effort;
  /// Peak provenance: which address report owned each maxed peak in
  /// `effort` (kNoViolation when no address did any search work). Lets
  /// operators find the one hot address behind a fat aggregate instead
  /// of guessing.
  std::size_t peak_frontier_index = kNoViolation;   ///< max max_frontier
  std::size_t peak_visited_index = kNoViolation;    ///< most states_visited
  std::size_t peak_arena_index = kNoViolation;      ///< max arena_high_water

  [[nodiscard]] bool coherent() const noexcept {
    return verdict == Verdict::kCoherent;
  }
  /// First (lowest) address that failed, O(1) (meaningful when verdict ==
  /// kIncoherent).
  [[nodiscard]] const AddressReport* first_violation() const noexcept {
    return first_violation_index == kNoViolation
               ? nullptr
               : &addresses[first_violation_index];
  }
};

/// Folds per-address reports into a CoherenceReport: first incoherent
/// address decides the verdict (otherwise any undecided address makes it
/// kUnknown), per-address SearchStats merge into `effort`, and the peak
/// provenance indices record which address owned each maxed peak. Shared
/// by the analysis router, the streaming verifier and vscc's warm sweep
/// so every path aggregates identically.
[[nodiscard]] CoherenceReport aggregate_reports(std::vector<AddressReport> reports);

/// Per-address write-orders in *original execution* coordinates, e.g. as
/// recorded by the simulator's bus.
using WriteOrderMap = std::unordered_map<Addr, std::vector<OpRef>>;

}  // namespace vermem::vmc
