#pragma once
// VSC -> CNF: sequential consistency as satisfiability.
//
// Unlike coherence, SC constrains *one* total order across all addresses,
// so the writes-only trick from vmc_to_cnf does not decompose: a read's
// placement interacts with reads of other addresses through program
// order. This encoding therefore orders ALL operations (the multi-address
// generalization of encode/naive.hpp): O(n^2) order variables,
// n(n-1)(n-2)/3 transitivity clauses (two per operation triangle), and
// per-read interval constraints quantified over the writes of the read's
// own address. Practical to n of a few hundred operations — which is
// exactly the regime where the exact SC search already struggles, making
// this the heavyweight fallback of the VSCC pipeline and the cross-check
// oracle for check_sc_exact.
//
// Decoded models are certified with check_sc_schedule before a coherent
// verdict is reported.

#include "sat/cnf.hpp"
#include "sat/solver.hpp"
#include "trace/execution.hpp"
#include "trace/schedule.hpp"
#include "vmc/result.hpp"

namespace vermem::encode {

struct VscEncoding {
  sat::Cnf cnf;
  std::vector<OpRef> ops;  ///< all operations, (process, index) order
  std::vector<sat::Var> order_vars;
  bool trivially_unsatisfiable = false;
  certify::Incoherence evidence;

  [[nodiscard]] std::size_t num_ops() const noexcept { return ops.size(); }
  [[nodiscard]] sat::Var order_var(std::size_t i, std::size_t j) const {
    const std::size_t n = ops.size();
    return order_vars[i * n - i * (i + 1) / 2 + (j - i - 1)];
  }
  [[nodiscard]] Schedule decode_schedule(const std::vector<bool>& model) const;
};

/// Builds the CNF; satisfiable iff a sequentially consistent schedule
/// exists. Synchronization operations participate in the order only.
[[nodiscard]] VscEncoding encode_vsc(const Execution& exec);

/// End-to-end SAT-based SC check with certified witnesses.
[[nodiscard]] vmc::CheckResult check_sc_via_sat(
    const Execution& exec, const sat::SolverOptions& solver_options = {});

}  // namespace vermem::encode
