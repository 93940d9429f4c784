#pragma once
// The sequential Figure 5.3 cascade, kept as a test oracle.
//
// Production code decides every address through the analysis router
// (analysis::check_routed / verify_coherence_routed). This is the older,
// simpler dispatcher the router replaced: probe each polynomial special
// case in turn by rescanning the instance, then fall back to the plain
// exact search (no saturation, no pruning oracle, no portfolio). It
// stays here as the independent reference for the routed differentials
// (tests/analysis_test.cpp, tests/differential_test.cpp) and must not
// be linked by any production target.

#include "trace/address_index.hpp"
#include "vmc/checker.hpp"
#include "vmc/exact.hpp"
#include "vmc/instance.hpp"
#include "vmc/result.hpp"

namespace vermem::oracles {

/// Tries the polynomial special cases whose structural preconditions
/// match, then falls back to the exact exponential checker. Always
/// returns a definite verdict unless the exact search hits its budget.
[[nodiscard]] vmc::CheckResult check_auto(
    const vmc::VmcInstance& instance, const vmc::ExactOptions& exact_options = {});

/// Verifies coherence of a whole execution, one address at a time, with
/// the check_auto cascade. Witnesses and evidence come back in original
/// execution coordinates.
[[nodiscard]] vmc::CoherenceReport verify_coherence(
    const Execution& exec, const vmc::ExactOptions& exact_options = {});
[[nodiscard]] vmc::CoherenceReport verify_coherence(
    const AddressIndex& index, const vmc::ExactOptions& exact_options = {});

/// Verifies coherence using supplied write-orders (polynomial, §5.2).
/// Addresses missing from `write_orders` fall back to check_auto.
[[nodiscard]] vmc::CoherenceReport verify_coherence_with_write_order(
    const Execution& exec, const vmc::WriteOrderMap& write_orders,
    const vmc::ExactOptions& fallback_options = {});
[[nodiscard]] vmc::CoherenceReport verify_coherence_with_write_order(
    const AddressIndex& index, const vmc::WriteOrderMap& write_orders,
    const vmc::ExactOptions& fallback_options = {});

}  // namespace vermem::oracles
