#pragma once
// Frozen reference implementation of the TSO/PSO store-buffer search,
// as it stood before the frontier engine (vmc/frontier.hpp): per-frame
// copies of the buffer vectors and an
// std::unordered_set<std::vector<uint32_t>> visited table keyed on the
// raw buffer contents. It is the differential oracle for
// models::check_model under kTso/kPso (identical verdicts, witnesses,
// states, transitions and max_frontier) and the "old" side of the
// store-buffer points in bench_exact_hotpath.
//
// Do not optimize this file; its value is being the fixed point. It
// never counts SearchStats::prunes and reports no arena accounting.

#include "models/checker.hpp"

namespace vermem::models {

/// Same contract and search order as check_model(exec, m, options) for
/// m = kTso or kPso; any other model yields kUnknown/kUnsupported.
[[nodiscard]] vmc::CheckResult check_buffered_legacy(
    const Execution& exec, Model m, const ModelCheckOptions& options = {});

}  // namespace vermem::models
