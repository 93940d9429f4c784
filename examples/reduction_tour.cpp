// A guided tour of the paper's reductions, printing each constructed
// instance for the running example Q = (u0 | ~u1) & (u1 | u2):
//
//   Figure 4.1  SAT  -> VMC          (general form; Figure 4.2 is Q = u)
//   Figure 5.1  3SAT -> VMC          (<=3 ops/process, <=2 writes/value)
//   Figure 5.2  3SAT -> VMC, RMW     (<=2 RMW/process, <=3 writes/value)
//   Figure 6.2  SAT  -> VSCC         (coherent by construction)
//   Figure 6.1  acquire/release wrap (for models that relax coherence)
//
// Build & run:  ./build/examples/reduction_tour

#include <cstdio>

#include "analysis/router.hpp"
#include "reductions/restricted.hpp"
#include "reductions/sat_to_vmc.hpp"
#include "reductions/sat_to_vscc.hpp"
#include "reductions/sync_wrap.hpp"
#include "sat/gen.hpp"
#include "trace/address_index.hpp"
#include "trace/text_io.hpp"
#include "vmc/exact.hpp"
#include "vsc/exact.hpp"

namespace {

void show(const char* title, const vermem::Execution& exec) {
  std::printf("---- %s: %zu histories, %zu operations ----\n%s\n", title,
              exec.num_processes(), exec.num_operations(),
              vermem::serialize_execution(exec).c_str());
}

}  // namespace

int main() {
  using namespace vermem;

  // Figure 4.2's exact example first: Q = u.
  sat::Cnf q_u;
  q_u.reserve_vars(1);
  q_u.add_unit(sat::pos(0));
  show("Figure 4.2 (Q = u)", reductions::sat_to_vmc(q_u).instance.execution);

  // The running example.
  sat::Cnf cnf;
  cnf.reserve_vars(3);
  cnf.add_binary(sat::pos(0), sat::neg(1));
  cnf.add_binary(sat::pos(1), sat::pos(2));

  const auto fig41 = reductions::sat_to_vmc(cnf);
  show("Figure 4.1 (SAT -> VMC)", fig41.instance.execution);
  std::printf("verdict: %s (formula is satisfiable)\n\n",
              to_string(vmc::check_exact(fig41.instance).verdict));

  // The restricted forms need exactly-3 clauses; pad with a repeated var.
  sat::Cnf cnf3;
  cnf3.reserve_vars(3);
  cnf3.add_ternary(sat::pos(0), sat::neg(1), sat::neg(1));
  cnf3.add_ternary(sat::pos(1), sat::pos(2), sat::pos(2));

  const auto fig51 = reductions::three_sat_to_vmc_3ops(cnf3);
  std::printf("---- Figure 5.1 (3 ops/process, <=2 writes/value) ----\n");
  std::printf("histories: %zu, max ops/process: %zu, max writes/value: %zu\n",
              fig51.instance.num_histories(),
              fig51.instance.max_ops_per_process(),
              fig51.instance.max_writes_per_value());

  const auto fig52 = reductions::three_sat_to_vmc_rmw(cnf3);
  std::printf("\n---- Figure 5.2 (2 RMW/process, <=3 writes/value) ----\n");
  std::printf("histories: %zu, all RMW: %s, max writes/value: %zu\n",
              fig52.instance.num_histories(),
              fig52.instance.all_rmw() ? "yes" : "no",
              fig52.instance.max_writes_per_value());
  show("Figure 5.2 instance", fig52.instance.execution);

  const auto fig62 = reductions::sat_to_vscc(cnf);
  std::printf("---- Figure 6.2 (SAT -> VSCC) ----\n");
  std::printf("processes: %zu, addresses: %zu\n",
              fig62.execution.num_processes(), fig62.execution.addresses().size());
  const AddressIndex fig62_index(fig62.execution);
  std::printf(
      "coherent by construction: %s\n",
      to_string(analysis::verify_coherence_routed(fig62_index).report.verdict));
  std::printf("sequentially consistent: %s\n\n",
              to_string(vsc::check_sc_exact(fig62.execution).verdict));

  const auto wrapped =
      reductions::wrap_with_synchronization(fig41.instance.execution, 999);
  std::printf("---- Figure 6.1 (acquire/release wrapping, lock=999) ----\n");
  std::printf("%zu operations after wrapping (3x data ops)\n",
              wrapped.num_operations());
  std::printf("wrapped instance under SC: %s (unchanged, as expected)\n",
              to_string(vsc::check_sc_exact(wrapped).verdict));
  return 0;
}
