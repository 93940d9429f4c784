#include "encode/naive.hpp"

#include <algorithm>
#include <numeric>
#include <variant>

#include "encode/context.hpp"

namespace vermem::encode {

namespace {

constexpr std::size_t kInitial = SIZE_MAX;

}  // namespace

Schedule NaiveEncoding::decode_schedule(const std::vector<bool>& model) const {
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

NaiveEncoding encode_vmc_naive(const vmc::VmcInstance& instance) {
  NaiveEncoding enc;
  EmitContext ctx(enc.cnf);
  if (const auto why = instance.malformed()) {
    enc.trivially_incoherent = true;
    enc.evidence = certify::Unknown{certify::UnknownReason::kMalformed, *why};
    ctx.add_clause({});
    return enc;
  }
  const Execution& exec = instance.execution;
  const Value initial = instance.initial_value();

  // Index every operation.
  std::vector<std::size_t> write_nodes;
  for (std::uint32_t p = 0; p < exec.num_processes(); ++p) {
    for (std::uint32_t i = 0; i < exec.history(p).size(); ++i) {
      if (exec.history(p)[i].writes_memory()) write_nodes.push_back(enc.ops.size());
      enc.ops.push_back(OpRef{p, i});
    }
  }
  const std::size_t n = enc.ops.size();

  enc.order_vars.resize(n * (n - 1) / 2);
  for (auto& var : enc.order_vars) var = ctx.new_var();
  auto order_lit = [&](std::size_t i, std::size_t j) {
    return i < j ? sat::pos(enc.order_var(i, j)) : sat::neg(enc.order_var(j, i));
  };

  // Transitivity over all ordered triples of operations.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      for (std::size_t l = 0; l < n; ++l) {
        if (l == i || l == j) continue;
        ctx.add_ternary(~order_lit(i, j), ~order_lit(j, l), order_lit(i, l));
      }
    }

  // Program order units (consecutive ops of each history).
  {
    std::size_t base = 0;
    for (std::uint32_t p = 0; p < exec.num_processes(); ++p) {
      for (std::size_t i = 0; i + 1 < exec.history(p).size(); ++i)
        ctx.add_unit(order_lit(base + i, base + i + 1));
      base += exec.history(p).size();
    }
  }

  // Read semantics.
  for (std::size_t node = 0; node < n; ++node) {
    const Operation& op = exec.op(enc.ops[node]);
    if (!op.reads_memory()) continue;
    const bool is_rmw = op.kind == OpKind::kRmw;
    // The schedule position the read component occupies: the node itself.
    std::vector<std::size_t> candidates;
    for (const std::size_t w : write_nodes) {
      if (w == node) continue;
      if (exec.op(enc.ops[w]).value_written != op.value_read) continue;
      candidates.push_back(w);
    }
    const bool initial_ok = op.value_read == initial;
    if (candidates.empty() && !initial_ok) {
      enc.trivially_incoherent = true;
      enc.evidence = certify::unwritten_read(instance.addr, enc.ops[node],
                                             op.value_read);
      ctx.add_clause({});
      return enc;
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
      // No other write between w and this operation.
      for (const std::size_t other : write_nodes) {
        if (other == w || other == node) continue;
        ctx.add_ternary(~m, order_lit(other, w), order_lit(node, other));
      }
    }
    if (initial_ok) {
      // Reads the initial value: precedes every write (except, for an
      // RMW, itself).
      for (const std::size_t w : write_nodes) {
        if (w == node) continue;
        ctx.add_binary(sat::neg(initial_var), order_lit(node, w));
      }
    }
    (void)is_rmw;  // the node doubles as the write; no extra constraint
  }

  // Final-value constraint.
  if (const auto fin = instance.final_value()) {
    std::vector<std::size_t> last_candidates;
    for (const std::size_t w : write_nodes)
      if (exec.op(enc.ops[w]).value_written == *fin) last_candidates.push_back(w);
    if (write_nodes.empty()) {
      if (*fin != initial) {
        enc.trivially_incoherent = true;
        enc.evidence = certify::unwritable_final(instance.addr, *fin);
        ctx.add_clause({});
      }
      return enc;
    }
    if (last_candidates.empty()) {
      enc.trivially_incoherent = true;
      enc.evidence = certify::unwritable_final(instance.addr, *fin);
      ctx.add_clause({});
      return enc;
    }
    sat::Clause alo;
    for (const std::size_t w : last_candidates) {
      const sat::Var l = ctx.new_var();
      alo.push_back(sat::pos(l));
      for (const std::size_t other : write_nodes)
        if (other != w) ctx.add_binary(sat::neg(l), order_lit(other, w));
    }
    ctx.add_clause(alo);
  }
  return enc;
}

vmc::CheckResult check_via_sat_naive(const vmc::VmcInstance& instance,
                                     const sat::SolverOptions& solver_options) {
  const NaiveEncoding enc = encode_vmc_naive(instance);
  if (enc.trivially_incoherent) {
    if (const auto* unknown = std::get_if<certify::Unknown>(&enc.evidence))
      return vmc::CheckResult::unknown(*unknown);
    return vmc::CheckResult::no(std::get<certify::Incoherence>(enc.evidence));
  }

  const sat::SolveResult solved = sat::solve(enc.cnf, solver_options);
  vmc::SearchStats stats;
  stats.states_visited = solved.stats.decisions;
  stats.transitions = solved.stats.propagations;

  switch (solved.status) {
    case sat::Status::kUnsat:
      // The naive oracle is not a certificate producer; its refutation is
      // re-derived from the trace, not from a proof of this formula.
      return vmc::CheckResult::no(
          certify::search_exhaustion(instance.addr, solved.stats.decisions,
                                     solved.stats.propagations),
          stats);
    case sat::Status::kUnknown:
      return vmc::CheckResult::unknown(certify::UnknownReason::kSolverGaveUp,
                                       "SAT solver gave up", stats);
    case sat::Status::kSat:
      break;
  }
  Schedule schedule = enc.decode_schedule(solved.model);
  const auto valid =
      check_coherent_schedule(instance.execution, instance.addr, schedule);
  if (!valid.ok)
    return vmc::CheckResult::unknown(
        certify::UnknownReason::kCertificationFailed,
        "internal: naive model failed certification: " + valid.violation, stats);
  vmc::CheckResult result = vmc::CheckResult::yes(std::move(schedule), stats);
  return result;
}

}  // namespace vermem::encode
