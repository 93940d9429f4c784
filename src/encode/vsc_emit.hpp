#pragma once
// Shared emission helpers for the VSC (all-operations total order)
// encoding. Two consumers build the same per-address constraints:
// encode_vsc() buffers them into one flat Cnf, and VscSweep (sweep.hpp)
// pushes them into assumption-guarded frames of a persistent incremental
// solver. The helpers are templated on the order-literal accessor so
// each caller keeps its own order-variable layout (triangular array vs
// growable rows).
//
// Both helpers return false — with typed evidence and nothing further
// emitted for that obligation — when the constraint is trivially
// unsatisfiable (a read of a never-written value, an unreachable final
// value). Callers decide how to record that: the one-shot encoder emits
// the empty clause and stops, the sweep poisons just that address's
// frame.

#include <cstddef>
#include <vector>

#include "certify/evidence.hpp"
#include "encode/context.hpp"
#include "trace/execution.hpp"

namespace vermem::encode::detail {

/// Read semantics for one read node over its own address's writes: pick
/// an observed write (or the initial value) and forbid any other write
/// of that address from landing between the anchor and the read.
/// `addr_writes` holds node indices of every write to the read's address
/// (the read itself included when it is an RMW); `order_lit(i, j)` must
/// yield the literal "op i precedes op j".
template <class OrderLit>
bool emit_vsc_read(EmitContext& ctx, const Execution& exec,
                   const std::vector<OpRef>& ops, std::size_t node,
                   const std::vector<std::size_t>& addr_writes,
                   const OrderLit& order_lit,
                   certify::Incoherence& evidence) {
  const Operation& op = exec.op(ops[node]);
  const Addr addr = op.addr;
  const Value initial = exec.initial_value(addr);

  std::vector<std::size_t> candidates;
  for (const std::size_t w : addr_writes) {
    if (w == node) continue;  // an RMW cannot observe its own write
    if (exec.op(ops[w]).value_written != op.value_read) continue;
    candidates.push_back(w);
  }
  const bool initial_ok = op.value_read == initial;
  if (candidates.empty() && !initial_ok) {
    evidence = certify::unwritten_read(addr, ops[node], op.value_read);
    return false;
  }

  sat::Clause alo;
  std::vector<sat::Var> map_vars(candidates.size());
  for (auto& var : map_vars) {
    var = ctx.new_var();
    alo.push_back(sat::pos(var));
  }
  sat::Var initial_var = 0;
  if (initial_ok) {
    initial_var = ctx.new_var();
    alo.push_back(sat::pos(initial_var));
  }
  ctx.add_clause(alo);

  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const std::size_t w = candidates[c];
    const sat::Lit m = sat::pos(map_vars[c]);
    ctx.add_binary(~m, order_lit(w, node));
    for (const std::size_t other : addr_writes) {
      if (other == w || other == node) continue;
      ctx.add_ternary(~m, order_lit(other, w), order_lit(node, other));
    }
  }
  if (initial_ok) {
    for (const std::size_t w : addr_writes) {
      if (w == node) continue;
      ctx.add_binary(sat::neg(initial_var), order_lit(node, w));
    }
  }
  return true;
}

/// Final-value constraint for one address: some write of the final value
/// is ordered after every other write of that address.
template <class OrderLit>
bool emit_vsc_final(EmitContext& ctx, const Execution& exec,
                    const std::vector<OpRef>& ops, Addr addr, Value fin,
                    const std::vector<std::size_t>& addr_writes,
                    const OrderLit& order_lit,
                    certify::Incoherence& evidence) {
  if (addr_writes.empty()) {
    if (fin != exec.initial_value(addr)) {
      evidence = certify::unwritable_final(addr, fin);
      return false;
    }
    return true;
  }
  std::vector<std::size_t> last_candidates;
  for (const std::size_t w : addr_writes)
    if (exec.op(ops[w]).value_written == fin) last_candidates.push_back(w);
  if (last_candidates.empty()) {
    evidence = certify::unwritable_final(addr, fin);
    return false;
  }
  sat::Clause alo;
  for (const std::size_t w : last_candidates) {
    const sat::Var l = ctx.new_var();
    alo.push_back(sat::pos(l));
    for (const std::size_t other : addr_writes)
      if (other != w) ctx.add_binary(sat::neg(l), order_lit(other, w));
  }
  ctx.add_clause(alo);
  return true;
}

}  // namespace vermem::encode::detail
