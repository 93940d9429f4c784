#pragma once
// Test-only reference for the transitivity skeleton of the order-based
// CNF encoders (encode_vmc, encode_vsc, VscSweep).
//
// Earlier encoder versions emitted ~o(i,j) | ~o(j,k) | o(i,k) for every
// ordered triple of distinct indices: n(n-1)(n-2) clauses, each one of
// only two distinct clauses per unordered triangle. The production
// encoders now emit each distinct clause once. These helpers rebuild the
// ordered-triple formula from a current one, so tests can check that the
// two formulas have the same clause set and that RUP refutations of
// either replay against the other (certificate files issued by earlier
// versions name the ordered-triple formula).

#include <algorithm>
#include <cstddef>
#include <set>
#include <vector>

#include "sat/cnf.hpp"

namespace vermem::oracles {

/// Order variables of an encoding: every variable some order_lit(i, j)
/// names, for distinct i, j in [0, n).
template <class OrderLit>
std::vector<bool> order_var_mask(sat::Var num_vars, std::size_t n,
                                 const OrderLit& order_lit) {
  std::vector<bool> mask(num_vars, false);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) mask[order_lit(i, j).var()] = true;
  return mask;
}

/// A transitivity clause: three literals, all over order variables. No
/// other constraint of the encoders has that shape (program order and
/// hints are units; read and final-value clauses carry a selector
/// variable; frame clauses carry an activation literal).
inline bool is_transitivity(const sat::Clause& clause,
                            const std::vector<bool>& order_mask) {
  return clause.size() == 3 &&
         std::all_of(clause.begin(), clause.end(), [&](sat::Lit l) {
           return l.var() < order_mask.size() && order_mask[l.var()];
         });
}

/// Number of transitivity clauses in `cnf`, duplicates counted.
template <class OrderLit>
std::size_t count_transitivity(const sat::Cnf& cnf, std::size_t n,
                               const OrderLit& order_lit) {
  const auto mask = order_var_mask(cnf.num_vars, n, order_lit);
  return static_cast<std::size_t>(
      std::count_if(cnf.clauses.begin(), cnf.clauses.end(),
                    [&](const sat::Clause& c) { return is_transitivity(c, mask); }));
}

/// The ordered-triple formula: one transitivity clause per ordered
/// triple of [0, n), in the nested-loop order earlier encoders used,
/// followed by every non-transitivity clause of `cnf` in its order. For
/// encode_vmc and encode_vsc (which emit transitivity right after the
/// order variables) this is clause for clause the formula earlier
/// versions produced.
template <class OrderLit>
sat::Cnf with_ordered_triples(const sat::Cnf& cnf, std::size_t n,
                              const OrderLit& order_lit) {
  const auto mask = order_var_mask(cnf.num_vars, n, order_lit);
  sat::Cnf out;
  out.num_vars = cnf.num_vars;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      for (std::size_t k = 0; k < n; ++k) {
        if (k == i || k == j) continue;
        out.add_ternary(~order_lit(i, j), ~order_lit(j, k), order_lit(i, k));
      }
    }
  for (const sat::Clause& clause : cnf.clauses)
    if (!is_transitivity(clause, mask)) out.add_clause(clause);
  return out;
}

/// The formula's clauses as a set: literals sorted, duplicates dropped.
inline std::set<sat::Clause> clause_set(const sat::Cnf& cnf) {
  std::set<sat::Clause> set;
  for (sat::Clause clause : cnf.clauses) {
    std::sort(clause.begin(), clause.end());
    clause.erase(std::unique(clause.begin(), clause.end()), clause.end());
    set.insert(std::move(clause));
  }
  return set;
}

}  // namespace vermem::oracles
