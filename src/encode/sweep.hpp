#pragma once
// Warm kVscc sweep: the VSC encoding split across one persistent
// incremental solver.
//
// The cold path (vsc/vscc.cpp before this refactor) re-encoded and
// re-solved the whole trace once per address plus once for the full SC
// query — m+n+1 cold solver runs over formulas that share their entire
// O(n^3) skeleton. VscSweep pushes the address-independent skeleton
// (order variables, transitivity, program order) into a
// sat::IncrementalSolver exactly once; each address's read-semantics and
// final-value constraints live in an assumption-guarded frame keyed by
// an activation literal. Then:
//
//   solve_address(i)  — solve under {act_i}: satisfiable iff some total
//                       order of ALL operations respects program order
//                       and address i's data constraints, i.e. the
//                       trace is per-address VSC-coherent at address i.
//   solve_all()       — solve under every activation literal at once:
//                       satisfiable iff the trace is sequentially
//                       consistent (same formula as encode_vsc).
//
// Learned clauses about the shared skeleton (and the solver's variable
// activities/phases) carry over between the per-address calls, which is
// where the warm-vs-cold speedup measured by bench_sat_incremental
// comes from.
//
// prepare() may be called repeatedly with successive snapshots of a
// growing trace. When the new execution extends the previous one per
// process (suffix extension), the skeleton is extended in place — new
// order variables, delta transitivity (only triangles whose largest node
// is new), new program-order units — and only the per-address frames
// are retired and re-emitted (their interval constraints quantify over
// the write set, which may have grown, so the old frames are invalid;
// retiring them neutralizes any frame-dependent learned clauses). When
// nothing changed at all, prepare() is a no-op and every retained clause
// stays live.
//
// The sweep does not produce RUP certificates: its formula interleaves
// guard literals with constraint variables, so its variable numbering
// differs from the plain re-encode that certify::check() replays proofs
// against. Callers needing certified UNSAT evidence fall back to the
// cold check_sc_via_sat path (see vsc/vscc.cpp).

#include <cstdint>
#include <vector>

#include "certify/evidence.hpp"
#include "sat/incremental.hpp"
#include "sat/solver.hpp"
#include "trace/execution.hpp"
#include "trace/schedule.hpp"

namespace vermem::encode {

class VscSweep {
 public:
  explicit VscSweep(sat::SolverOptions options = {});

  /// What prepare() did with the execution it was handed.
  enum class Prepare {
    kFresh,     ///< built from scratch (first call, or not an extension)
    kExtended,  ///< skeleton extended in place, frames re-emitted
    kReused,    ///< identical to the previous call; nothing re-emitted
  };

  /// Loads (or incrementally extends toward) `exec`. Safe to call with
  /// any execution; non-extensions simply rebuild from scratch.
  Prepare prepare(const Execution& exec);

  /// Drops all solver state; the next prepare() builds fresh.
  void reset();

  [[nodiscard]] std::size_t num_addresses() const noexcept {
    return frames_.size();
  }
  [[nodiscard]] Addr address(std::size_t i) const { return frames_[i].addr; }
  /// True when the address's constraints were unsatisfiable at emission
  /// time (unwritten read value / unreachable final value); the frame
  /// holds typed evidence and solve_address() short-circuits to kUnsat.
  [[nodiscard]] bool address_trivially_unsat(std::size_t i) const {
    return frames_[i].trivially_unsat;
  }
  [[nodiscard]] const certify::Incoherence& address_evidence(
      std::size_t i) const {
    return frames_[i].evidence;
  }

  struct Outcome {
    sat::Status status = sat::Status::kUnknown;
    Schedule schedule;  ///< witness order over all operations, when kSat
  };

  /// Per-address VSC query under the address's activation literal.
  [[nodiscard]] Outcome solve_address(std::size_t i);
  /// Full SC query under every activation literal.
  [[nodiscard]] Outcome solve_all();

  /// Per-call knobs (deadline, cancel, max_conflicts); forwarded to the
  /// underlying solver. Structural flags were latched at construction.
  [[nodiscard]] sat::SolverOptions& solver_options() noexcept {
    return solver_.options();
  }

  [[nodiscard]] std::size_t num_operations() const noexcept {
    return ops_.size();
  }
  [[nodiscard]] const sat::SolverStats& cumulative_stats() const noexcept {
    return solver_.cumulative_stats();
  }
  [[nodiscard]] std::uint64_t num_solves() const noexcept {
    return solver_.num_solves();
  }
  [[nodiscard]] std::size_t num_retained() const noexcept {
    return solver_.num_retained();
  }

  /// Literal "node i precedes node j" (i != j, both < num_operations()).
  [[nodiscard]] sat::Lit order_lit(std::size_t i, std::size_t j) const {
    return i < j ? sat::pos(order_rows_[j][i]) : sat::neg(order_rows_[i][j]);
  }
  /// Every clause loaded into the solver so far, skeleton and frames.
  [[nodiscard]] sat::Cnf formula() const { return solver_.formula(); }

 private:
  struct Frame {
    Addr addr = 0;
    sat::Var act = 0;
    bool trivially_unsat = false;
    certify::Incoherence evidence;
  };

  void build(const Execution& exec, std::size_t n_old);
  void emit_frames(const Execution& exec);
  [[nodiscard]] Outcome run(const std::vector<sat::Lit>& assumptions);

  sat::SolverOptions base_options_;
  sat::IncrementalSolver solver_;
  bool prepared_ = false;

  /// All operations in node order: append-only across suffix
  /// extensions, so a node index (and its order variables) stays valid
  /// as the trace grows. Fresh builds lay nodes out (process, index)
  /// major; extensions append the delta in the same order.
  std::vector<OpRef> ops_;
  /// Row layout: order_rows_[j][i] for i < j is the variable for
  /// "node i precedes node j". Rows are appended as nodes arrive, so
  /// growing the trace never renumbers existing variables.
  std::vector<std::vector<sat::Var>> order_rows_;

  // Snapshot of the previously prepared execution, for suffix detection.
  std::vector<std::uint32_t> proc_len_;
  std::vector<std::uint64_t> proc_hash_;  ///< rolling hash of each history
  std::uint64_t env_hash_ = 0;  ///< initial + final values
  std::vector<std::vector<std::size_t>> node_of_;  ///< [process][index] -> node

  std::vector<Frame> frames_;
};

}  // namespace vermem::encode
