#include "sat/solver.hpp"

#include <cstdlib>

#include "obs/span.hpp"
#include "sat/effort.hpp"
#include "sat/incremental.hpp"

namespace vermem::sat {

// One-shot façade over the persistent engine: fresh IncrementalSolver,
// load, single solve with no assumptions. certify::check()'s RUP replay
// path depends on this exact contract (per-call proof against the plain
// input formula), so it must stay a pure wrapper.
SolveResult solve(const Cnf& cnf, const SolverOptions& options) {
  obs::Span span("sat.cdcl");
  SolverOptions inner = options;
  inner.verify_models = false;  // verified below against the caller's Cnf
  IncrementalSolver solver(inner);
  (void)solver.add_cnf(cnf);
  SolveResult result = solver.solve();
  if (result.status == Status::kSat && !cnf.satisfied_by(result.model)) {
    // A model that does not satisfy the input is a solver bug; fail loudly
    // rather than report a wrong answer.
    std::abort();
  }
  // CDCL has no explicit backtrack counter; conflicts is the analogous
  // "undo" count in the shared effort schema.
  record_sat_effort(span, cnf.num_clauses(), result.stats.decisions,
                    result.stats.propagations,
                    result.stats.conflicts, result.stats.restarts,
                    result.status);
  return result;
}

}  // namespace vermem::sat
