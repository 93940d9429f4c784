#include "models/checker.hpp"

#include "analysis/router.hpp"
#include "trace/address_index.hpp"
#include "vsc/exact.hpp"

namespace vermem::models {

vmc::CheckResult check_model(const Execution& exec, Model m,
                             const ModelCheckOptions& options) {
  // One indexing pass over the trace feeds every model's dense address
  // numbering (and the coherence-only path's per-address projections).
  const AddressIndex index(exec);
  vsc::ScOptions search;
  search.max_states = options.max_states;
  search.deadline = options.deadline;
  search.cancel = options.cancel;
  switch (m) {
    case Model::kSc:
      return vsc::check_sc_exact(index, search);
    case Model::kTso:
      return vsc::check_memory_model(index, vsc::StoreBuffer::kFifo, search);
    case Model::kPso:
      return vsc::check_memory_model(index, vsc::StoreBuffer::kPerAddress,
                                     search);
    case Model::kCoherenceOnly: {
      vmc::ExactOptions vmc_options;
      vmc_options.max_states = options.max_states;
      vmc_options.deadline = options.deadline;
      vmc_options.cancel = options.cancel;
      const auto report =
          analysis::verify_coherence_routed(index, nullptr, vmc_options).report;
      switch (report.verdict) {
        case vmc::Verdict::kCoherent:
          return vmc::CheckResult::yes({});
        case vmc::Verdict::kIncoherent: {
          const auto* violation = report.first_violation();
          certify::Incoherence evidence;
          if (violation) {
            if (const auto* inc = violation->result.incoherence())
              evidence = *inc;
            evidence.addr = violation->addr;
          }
          return vmc::CheckResult::no(std::move(evidence));
        }
        case vmc::Verdict::kUnknown:
          return vmc::CheckResult::unknown(
              certify::UnknownReason::kBudget,
              "coherence undecided within budget");
      }
      return vmc::CheckResult::unknown(certify::UnknownReason::kUnsupported,
                                       "unreachable");
    }
  }
  return vmc::CheckResult::unknown(certify::UnknownReason::kUnsupported,
                                   "unknown model");
}

}  // namespace vermem::models
