#pragma once
// Shared clause-emission context for the encoders.
//
// Every encoder in this module (naive, vmc_to_cnf, vsc_to_cnf) produces
// the same kind of output — fresh variables plus clauses — but two very
// different consumers want it: the one-shot checkers buffer a sat::Cnf
// and hand it to sat::solve(), while the incremental kVscc sweep feeds a
// persistent sat::IncrementalSolver where the trace skeleton is pushed
// once and per-address constraints land in assumption-guarded frames.
// EmitContext abstracts the target so the encoding logic is written
// once: it forwards to a Cnf or to an IncrementalSolver, and while a
// frame guard is set every emitted clause C is stored as (C | ~act),
// i.e. enforced only when the frame's activation literal is assumed.
//
// emit_transitivity() below is the strict-total-order skeleton shared by
// the VMC and VSC encoders and the incremental sweep.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <span>
#include <utility>

#include "sat/cnf.hpp"
#include "sat/incremental.hpp"

namespace vermem::encode {

class EmitContext {
 public:
  explicit EmitContext(sat::Cnf& cnf) : cnf_(&cnf) {}
  explicit EmitContext(sat::IncrementalSolver& solver) : solver_(&solver) {}

  [[nodiscard]] sat::Var new_var() {
    return cnf_ ? cnf_->new_var() : solver_->new_var();
  }

  /// Guards all subsequent clauses with ~act until end_frame(). Both
  /// backends honor it, so a buffered formula and an incremental one
  /// built from the same emission sequence are literally identical.
  void begin_frame(sat::Var act) {
    assert(!guarded_);
    guarded_ = true;
    act_ = act;
  }
  void end_frame() { guarded_ = false; }
  [[nodiscard]] bool in_frame() const noexcept { return guarded_; }

  void add_clause(std::span<const sat::Lit> lits) {
    if (solver_) {  // copied into the solver's arena
      (void)(guarded_ ? solver_->add_guarded(act_, lits)
                      : solver_->add_clause(lits));
      return;
    }
    sat::Clause clause(lits.begin(), lits.end());
    if (guarded_) clause.push_back(sat::neg(act_));
    cnf_->add_clause(std::move(clause));
  }
  void add_unit(sat::Lit a) { add_clause(std::span<const sat::Lit>(&a, 1)); }
  void add_binary(sat::Lit a, sat::Lit b) {
    const sat::Lit lits[] = {a, b};
    add_clause(lits);
  }
  void add_ternary(sat::Lit a, sat::Lit b, sat::Lit c) {
    const sat::Lit lits[] = {a, b, c};
    add_clause(lits);
  }

 private:
  sat::Cnf* cnf_ = nullptr;
  sat::IncrementalSolver* solver_ = nullptr;
  bool guarded_ = false;
  sat::Var act_{};
};

namespace detail {

/// Transitivity of a strict total order over [0, n), where
/// `order_lit(i, j)` yields the literal "i precedes j". Every instance of
/// ~o(a,b) | ~o(b,c) | o(a,c) over an ordered triple equals the instance
/// whose first index is the triple's smallest, so only those are emitted:
/// for each triangle i < j < l, the two clauses that forbid the 3-cycles
/// i->j->l->i and i->l->j->i, n(n-1)(n-2)/3 clauses in all. The clause
/// set is that of all ordered triples, which RUP certificates issued for
/// the ordered-triple formula rely on; the loop order is the
/// ordered-triple loop's, so the solver meets the clauses in the same
/// order too.
///
/// With n_old > 0 only triangles whose largest index is >= n_old are
/// emitted: exactly the delta a suffix extension needs, since triangles
/// inside the old prefix were already emitted and still stand.
template <class OrderLit>
void emit_transitivity(EmitContext& ctx, std::size_t n, std::size_t n_old,
                       const OrderLit& order_lit) {
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      for (std::size_t l = j < n_old ? std::max(i + 1, n_old) : i + 1; l < n;
           ++l) {
        if (l == j) continue;
        ctx.add_ternary(~order_lit(i, j), ~order_lit(j, l), order_lit(i, l));
      }
}

}  // namespace detail

}  // namespace vermem::encode
