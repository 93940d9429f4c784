#include "sat/dpll.hpp"

#include <algorithm>
#include <cstdlib>

#include "sat/effort.hpp"

namespace vermem::sat {

namespace {

constexpr int kUndef = 0, kTrue = 1, kFalse = -1;

class Dpll {
 public:
  Dpll(const Cnf& cnf, Deadline deadline) : cnf_(cnf), deadline_(deadline) {
    assigns_.assign(cnf.num_vars, kUndef);
    occurrences_.assign(2 * cnf.num_vars, {});
    for (std::size_t c = 0; c < cnf.clauses.size(); ++c)
      for (const Lit l : cnf.clauses[c]) occurrences_[(~l).code()].push_back(c);
  }

  DpllResult run() {
    DpllResult result;
    // Top-level units.
    for (const auto& clause : cnf_.clauses) {
      if (clause.empty()) {
        result.status = Status::kUnsat;
        result.stats = stats_;
        return result;
      }
      if (clause.size() == 1) {
        if (value(clause[0]) == kFalse) {
          result.status = Status::kUnsat;
          result.stats = stats_;
          return result;
        }
        if (value(clause[0]) == kUndef) assign(clause[0]);
      }
    }
    if (!propagate_from(0)) {
      result.status = Status::kUnsat;
      result.stats = stats_;
      return result;
    }
    switch (search()) {
      case Outcome::kSat:
        result.status = Status::kSat;
        result.model.resize(cnf_.num_vars);
        for (Var v = 0; v < cnf_.num_vars; ++v) result.model[v] = assigns_[v] == kTrue;
        break;
      case Outcome::kUnsat:
        result.status = Status::kUnsat;
        break;
      case Outcome::kTimeout:
        result.status = Status::kUnknown;
        break;
    }
    result.stats = stats_;
    return result;
  }

 private:
  enum class Outcome { kSat, kUnsat, kTimeout };

  [[nodiscard]] int value(Lit l) const {
    const int v = assigns_[l.var()];
    return l.negated() ? -v : v;
  }

  void assign(Lit l) {
    assigns_[l.var()] = l.negated() ? kFalse : kTrue;
    trail_.push_back(l);
  }

  void undo_to(std::size_t mark) {
    while (trail_.size() > mark) {
      assigns_[trail_.back().var()] = kUndef;
      trail_.pop_back();
    }
  }

  /// Unit-propagates from trail position `head`; false on conflict.
  bool propagate_from(std::size_t head) {
    while (head < trail_.size()) {
      const Lit p = trail_[head++];
      ++stats_.propagations;
      for (const std::size_t c : occurrences_[p.code()]) {
        const Clause& clause = cnf_.clauses[c];
        Lit unit{};
        int unassigned = 0;
        bool satisfied = false;
        for (const Lit l : clause) {
          const int val = value(l);
          if (val == kTrue) {
            satisfied = true;
            break;
          }
          if (val == kUndef) {
            ++unassigned;
            unit = l;
          }
        }
        if (satisfied) continue;
        if (unassigned == 0) return false;
        if (unassigned == 1) assign(unit);
      }
    }
    return true;
  }

  Outcome search() {
    if (deadline_.expired()) return Outcome::kTimeout;
    Var branch = cnf_.num_vars;
    for (Var v = 0; v < cnf_.num_vars; ++v) {
      if (assigns_[v] == kUndef) {
        branch = v;
        break;
      }
    }
    if (branch == cnf_.num_vars) return Outcome::kSat;

    for (const bool negated : {false, true}) {
      ++stats_.decisions;
      const std::size_t mark = trail_.size();
      assign(Lit(branch, negated));
      if (propagate_from(mark)) {
        const Outcome sub = search();
        if (sub != Outcome::kUnsat) return sub;
      }
      ++stats_.backtracks;
      undo_to(mark);
    }
    return Outcome::kUnsat;
  }

  const Cnf& cnf_;
  Deadline deadline_;
  std::vector<int> assigns_;
  std::vector<Lit> trail_;
  std::vector<std::vector<std::size_t>> occurrences_;
  DpllStats stats_;
};

}  // namespace

DpllResult solve_dpll(const Cnf& cnf, Deadline deadline) {
  obs::Span span("sat.dpll");
  Dpll solver(cnf, deadline);
  DpllResult result = solver.run();
  if (result.status == Status::kSat && !cnf.satisfied_by(result.model)) std::abort();
  record_sat_effort(span, cnf.num_clauses(), result.stats.decisions,
                    result.stats.propagations,
                    result.stats.backtracks, result.stats.restarts,
                    result.status);
  return result;
}

}  // namespace vermem::sat
