#pragma once
// Execution-driven multiprocessor simulator: N cores with private
// direct-mapped MESI caches over an atomic shared bus and a flat memory.
//
// The machine executes one memory request per step (a seeded scheduler
// picks the core), maintaining coherence with a textbook MESI
// write-invalidate protocol: BusRd (read miss), BusRdX (write miss),
// BusUpgr (write hit on Shared), dirty interventions, and writebacks on
// eviction. Because the bus is atomic, the baseline machine is coherent
// by construction — the recorded trace always verifies — and the bus
// order of stores is exactly the Section 5.2 write-order.
//
// With a FaultPlan, protocol steps misbehave with the configured
// probabilities, producing the incoherent traces the paper's dynamic
// verification is meant to catch.

#include <unordered_map>

#include "sim/config.hpp"
#include "sim/program.hpp"
#include "trace/execution.hpp"
#include "vmc/checker.hpp"

namespace vermem::sim {

struct SimResult {
  /// The observed trace: one history per core, with the values each load
  /// actually returned; final values are the post-flush memory image.
  Execution execution;
  /// Bus serialization of writing operations, per address, in original
  /// trace coordinates (feed to analysis::verify_coherence_routed).
  vmc::WriteOrderMap write_orders;
  /// Global completion order of every operation — the event stream a
  /// verification unit would observe (feed to vmc::OnlineCoherenceChecker).
  Schedule commit_order;
  SimStats stats;
};

/// Runs the per-core programs to completion and returns the trace.
[[nodiscard]] SimResult run_programs(const std::vector<Program>& programs,
                                     const SimConfig& config);

}  // namespace vermem::sim
