#pragma once
// Internal: one effort-reporting helper shared by the DPLL and CDCL
// entry points, so both emit the same span-attribute and metric schema
// (decisions / propagations / backtracks / restarts — DPLL's restarts
// are structurally 0, see DpllStats — plus the input-clause counter,
// which is a metric only: a span holds at most obs::kMaxNumericAttrs
// numeric attributes).

#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sat/solver.hpp"

namespace vermem::sat {

/// `input_clauses` is the size of the formula the solve loaded.
inline void record_sat_effort(obs::Span& span, std::uint64_t input_clauses,
                              std::uint64_t decisions,
                              std::uint64_t propagations,
                              std::uint64_t backtracks, std::uint64_t restarts,
                              Status status) {
  if (span.active()) {
    span.attr("decisions", decisions);
    span.attr("propagations", propagations);
    span.attr("backtracks", backtracks);
    span.attr("restarts", restarts);
    span.attr("status", to_string(status));
  }
  if (obs::enabled()) {
    static const obs::Counter solves = obs::counter("vermem_sat_solves_total");
    static const obs::Counter input_clause_count =
        obs::counter("vermem_sat_input_clauses_total");
    static const obs::Counter decision_count =
        obs::counter("vermem_sat_decisions_total");
    static const obs::Counter propagation_count =
        obs::counter("vermem_sat_propagations_total");
    static const obs::Counter backtrack_count =
        obs::counter("vermem_sat_backtracks_total");
    static const obs::Counter restart_count =
        obs::counter("vermem_sat_restarts_total");
    solves.add();
    input_clause_count.add(input_clauses);
    decision_count.add(decisions);
    propagation_count.add(propagations);
    backtrack_count.add(backtracks);
    restart_count.add(restarts);
  }
}

}  // namespace vermem::sat
