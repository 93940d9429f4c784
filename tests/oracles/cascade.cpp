#include "oracles/cascade.hpp"

#include <string>
#include <utility>
#include <vector>

#include "vmc/special.hpp"
#include "vmc/write_order.hpp"

namespace vermem::oracles {

using vmc::AddressReport;
using vmc::CheckResult;
using vmc::CoherenceReport;
using vmc::ExactOptions;
using vmc::Verdict;
using vmc::VmcInstance;

CheckResult check_auto(const VmcInstance& instance,
                       const ExactOptions& exact_options) {
  if (const auto why = instance.malformed())
    return CheckResult::unknown(certify::UnknownReason::kMalformed, *why);

  // Cheap structural probes pick the cascade branch.
  const bool rmw_only = instance.all_rmw();
  if (instance.max_ops_per_process() <= 1) {
    const CheckResult result = rmw_only
                                   ? vmc::check_rmw_one_op_per_process(instance)
                                   : vmc::check_one_op_per_process(instance);
    if (result.verdict != Verdict::kUnknown) return result;
  }
  {
    const CheckResult result = rmw_only ? vmc::check_rmw_read_map(instance)
                                        : vmc::check_read_map(instance);
    if (result.verdict != Verdict::kUnknown) return result;
  }
  return vmc::check_exact(instance, exact_options);
}

namespace {

/// True once the caller's wall-clock or cancellation budget is spent, at
/// which point remaining addresses are skipped rather than checked.
bool interrupted(const ExactOptions& options) {
  return options.deadline.expired() ||
         (options.cancel && options.cancel->cancelled());
}

AddressReport skipped(Addr addr) {
  return {addr, CheckResult::unknown(certify::UnknownReason::kSkipped,
                                     "deadline expired or request cancelled")};
}

/// Runs `decide` on the materialized projection of `view` and
/// translates the witness and evidence back to original coordinates.
template <typename Decide>
AddressReport check_projected(const ProjectedView& view, Decide&& decide) {
  const auto projection = view.materialize();
  const VmcInstance instance{projection.execution, view.addr()};
  CheckResult result = decide(instance);
  const auto to_original = [&](OpRef& ref) {
    ref = projection.origin[ref.process][ref.index];
  };
  for (OpRef& ref : result.witness) to_original(ref);
  certify::for_each_ref(result.evidence, to_original);
  return {view.addr(), std::move(result)};
}

AddressReport check_address(const AddressIndex& index, std::size_t i,
                            const ExactOptions& exact_options) {
  return check_projected(index.view_at(i), [&](const VmcInstance& instance) {
    return check_auto(instance, exact_options);
  });
}

}  // namespace

CoherenceReport verify_coherence(const AddressIndex& index,
                                 const ExactOptions& exact_options) {
  std::vector<AddressReport> reports;
  reports.reserve(index.num_addresses());
  for (std::size_t i = 0; i < index.num_addresses(); ++i) {
    reports.push_back(interrupted(exact_options)
                          ? skipped(index.entry(i).addr)
                          : check_address(index, i, exact_options));
  }
  return vmc::aggregate_reports(std::move(reports));
}

CoherenceReport verify_coherence(const Execution& exec,
                                 const ExactOptions& exact_options) {
  return verify_coherence(AddressIndex(exec), exact_options);
}

CoherenceReport verify_coherence_with_write_order(
    const AddressIndex& index, const vmc::WriteOrderMap& write_orders,
    const ExactOptions& fallback_options) {
  std::vector<AddressReport> reports;
  reports.reserve(index.num_addresses());
  for (std::size_t i = 0; i < index.num_addresses(); ++i) {
    const ProjectedView view = index.view_at(i);
    const Addr addr = view.addr();
    if (interrupted(fallback_options)) {
      reports.push_back(skipped(addr));
      continue;
    }
    const auto it = write_orders.find(addr);
    if (it == write_orders.end()) {
      reports.push_back(check_address(index, i, fallback_options));
      continue;
    }

    // Remap the write-order from original-execution coordinates into the
    // projected instance's, straight off the index's sorted arena run.
    vmc::WriteOrder local;
    local.reserve(it->second.size());
    for (const OpRef original : it->second) {
      const auto projected = view.projected_of(original);
      if (!projected) break;
      local.push_back(*projected);
    }
    if (local.size() != it->second.size()) {
      reports.push_back(
          {addr, CheckResult::unknown(
                     certify::UnknownReason::kInvalidWriteOrder,
                     "write-order references operations outside address " +
                         std::to_string(addr))});
      continue;
    }
    reports.push_back(check_projected(view, [&](const VmcInstance& instance) {
      return instance.all_rmw() ? vmc::check_rmw_with_write_order(instance, local)
                                : vmc::check_with_write_order(instance, local);
    }));
  }
  return vmc::aggregate_reports(std::move(reports));
}

CoherenceReport verify_coherence_with_write_order(
    const Execution& exec, const vmc::WriteOrderMap& write_orders,
    const ExactOptions& fallback_options) {
  return verify_coherence_with_write_order(AddressIndex(exec), write_orders,
                                           fallback_options);
}

}  // namespace vermem::oracles
