#include "encode/vsc_to_cnf.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "encode/context.hpp"
#include "encode/vsc_emit.hpp"

namespace vermem::encode {

Schedule VscEncoding::decode_schedule(const std::vector<bool>& model) const {
  const std::size_t n = ops.size();
  std::vector<std::size_t> rank(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (model[order_var(i, j)])
        ++rank[j];
      else
        ++rank[i];
    }
  }
  std::vector<std::size_t> indices(n);
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  std::sort(indices.begin(), indices.end(),
            [&](std::size_t a, std::size_t b) { return rank[a] < rank[b]; });
  Schedule schedule;
  schedule.reserve(n);
  for (const std::size_t i : indices) schedule.push_back(ops[i]);
  return schedule;
}

VscEncoding encode_vsc(const Execution& exec) {
  VscEncoding enc;

  // Index every operation; bucket the writes per address.
  std::unordered_map<Addr, std::vector<std::size_t>> writes_of;
  for (std::uint32_t p = 0; p < exec.num_processes(); ++p) {
    for (std::uint32_t i = 0; i < exec.history(p).size(); ++i) {
      const Operation& op = exec.history(p)[i];
      if (op.writes_memory()) writes_of[op.addr].push_back(enc.ops.size());
      enc.ops.push_back(OpRef{p, i});
    }
  }
  const std::size_t n = enc.ops.size();

  enc.order_vars.resize(n * (n - 1) / 2);
  for (auto& var : enc.order_vars) var = enc.cnf.new_var();
  auto order_lit = [&](std::size_t i, std::size_t j) {
    return i < j ? sat::pos(enc.order_var(i, j)) : sat::neg(enc.order_var(j, i));
  };

  // The constraint emitters are shared with the incremental sweep
  // (vsc_emit.hpp); the emission sequence here must stay deterministic
  // because certify::check re-encodes this formula to replay RUP
  // refutations against it.
  EmitContext ctx(enc.cnf);

  // Transitivity: two clauses per operation triangle.
  detail::emit_transitivity(ctx, n, 0, order_lit);

  // Program order.
  {
    std::size_t base = 0;
    for (std::uint32_t p = 0; p < exec.num_processes(); ++p) {
      for (std::size_t i = 0; i + 1 < exec.history(p).size(); ++i)
        ctx.add_unit(order_lit(base + i, base + i + 1));
      base += exec.history(p).size();
    }
  }
  for (std::size_t node = 0; node < n; ++node) {
    if (!exec.op(enc.ops[node]).reads_memory()) continue;
    const auto& addr_writes = writes_of[exec.op(enc.ops[node]).addr];
    if (!detail::emit_vsc_read(ctx, exec, enc.ops, node, addr_writes, order_lit,
                               enc.evidence)) {
      enc.trivially_unsatisfiable = true;
      enc.cnf.add_clause({});
      return enc;
    }
  }

  // Final-value constraints per address.
  for (const auto& [addr, fin] : exec.final_values()) {
    const auto it = writes_of.find(addr);
    const auto& addr_writes =
        it == writes_of.end() ? std::vector<std::size_t>{} : it->second;
    if (!detail::emit_vsc_final(ctx, exec, enc.ops, addr, fin, addr_writes,
                                order_lit, enc.evidence)) {
      enc.trivially_unsatisfiable = true;
      enc.cnf.add_clause({});
      return enc;
    }
  }
  return enc;
}

vmc::CheckResult check_sc_via_sat(const Execution& exec,
                                  const sat::SolverOptions& solver_options) {
  const VscEncoding enc = encode_vsc(exec);
  if (enc.trivially_unsatisfiable) return vmc::CheckResult::no(enc.evidence);

  // Force proof logging so an UNSAT answer carries an RUP refutation of
  // the (deterministically re-buildable) SC formula.
  sat::SolverOptions options = solver_options;
  options.log_proof = true;
  const sat::SolveResult solved = sat::solve(enc.cnf, options);
  vmc::SearchStats stats;
  stats.states_visited = solved.stats.decisions;
  stats.transitions = solved.stats.propagations;

  switch (solved.status) {
    case sat::Status::kUnsat:
      // Execution-scope refutation: the address field is unused.
      return vmc::CheckResult::no(certify::rup_refutation(0, solved.proof),
                                  stats);
    case sat::Status::kUnknown:
      return vmc::CheckResult::unknown(certify::UnknownReason::kSolverGaveUp,
                                       "SAT solver gave up", stats);
    case sat::Status::kSat:
      break;
  }
  Schedule schedule = enc.decode_schedule(solved.model);
  const auto valid = check_sc_schedule(exec, schedule);
  if (!valid.ok)
    return vmc::CheckResult::unknown(
        certify::UnknownReason::kCertificationFailed,
        "internal: SC model failed certification: " + valid.violation, stats);
  vmc::CheckResult result = vmc::CheckResult::yes(std::move(schedule), stats);
  result.stats = stats;
  return result;
}

}  // namespace vermem::encode
