#include "encode/sweep.hpp"

#include <algorithm>
#include <numeric>
#include <set>
#include <unordered_map>

#include "encode/context.hpp"
#include "encode/vsc_emit.hpp"

namespace vermem::encode {

namespace {

// Decoded schedules are certified by check_sc_schedule downstream and
// the sweep's proofs cannot back RUP certificates (see sweep.hpp), so
// neither per-call model verification nor proof logging pays its way.
sat::SolverOptions sweep_options(sat::SolverOptions options) {
  options.verify_models = false;
  options.log_proof = false;
  return options;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

std::uint64_t op_hash(const Operation& op) {
  std::uint64_t h = 1469598103934665603ULL;
  h = mix(h, static_cast<std::uint64_t>(op.kind));
  h = mix(h, op.addr);
  h = mix(h, static_cast<std::uint64_t>(op.value_read));
  h = mix(h, static_cast<std::uint64_t>(op.value_written));
  return h;
}

std::uint64_t history_prefix_hash(const Execution& exec, std::uint32_t p,
                                  std::uint32_t len) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint32_t i = 0; i < len; ++i)
    h = mix(h, op_hash(exec.history(p)[i]));
  return h;
}

// Initial and final values feed the per-address frames (read candidate
// sets and final-value selectors), so a change forces frame re-emission
// even with zero new operations. Commutative combine: the maps are
// unordered.
std::uint64_t environment_hash(const Execution& exec) {
  std::uint64_t h = 0;
  for (const auto& [addr, value] : exec.initial_values())
    h ^= mix(mix(0x11, addr), static_cast<std::uint64_t>(value));
  for (const auto& [addr, value] : exec.final_values())
    h ^= mix(mix(0x22, addr), static_cast<std::uint64_t>(value));
  return h;
}

}  // namespace

VscSweep::VscSweep(sat::SolverOptions options)
    : base_options_(sweep_options(std::move(options))),
      solver_(base_options_) {}

void VscSweep::reset() {
  // Per-call knobs survive a rebuild; structural flags come from base.
  sat::SolverOptions fresh = base_options_;
  fresh.deadline = solver_.options().deadline;
  fresh.cancel = solver_.options().cancel;
  fresh.max_conflicts = solver_.options().max_conflicts;
  solver_ = sat::IncrementalSolver(fresh);
  ops_.clear();
  order_rows_.clear();
  proc_len_.clear();
  proc_hash_.clear();
  node_of_.clear();
  frames_.clear();
  env_hash_ = 0;
  prepared_ = false;
}

VscSweep::Prepare VscSweep::prepare(const Execution& exec) {
  const auto num_procs = static_cast<std::uint32_t>(exec.num_processes());

  // Suffix extension: every previously seen history is a prefix of the
  // new one (verified by rolling hash), and processes may only be added.
  bool suffix = prepared_ && num_procs >= proc_len_.size();
  if (suffix) {
    for (std::uint32_t p = 0; p < proc_len_.size(); ++p) {
      if (exec.history(p).size() < proc_len_[p] ||
          history_prefix_hash(exec, p, proc_len_[p]) != proc_hash_[p]) {
        suffix = false;
        break;
      }
    }
  }

  const std::uint64_t env = environment_hash(exec);
  if (suffix) {
    std::size_t total = 0;
    for (std::uint32_t p = 0; p < num_procs; ++p)
      total += exec.history(p).size();
    if (total == ops_.size() && env == env_hash_) return Prepare::kReused;
  } else {
    reset();
  }

  const std::size_t n_old = ops_.size();
  build(exec, n_old);
  emit_frames(exec);

  proc_len_.assign(num_procs, 0);
  proc_hash_.assign(num_procs, 0);
  for (std::uint32_t p = 0; p < num_procs; ++p) {
    proc_len_[p] = static_cast<std::uint32_t>(exec.history(p).size());
    proc_hash_[p] = history_prefix_hash(exec, p, proc_len_[p]);
  }
  env_hash_ = env;
  const bool was_prepared = prepared_;
  prepared_ = true;
  return was_prepared ? Prepare::kExtended : Prepare::kFresh;
}

void VscSweep::build(const Execution& exec, std::size_t n_old) {
  const auto num_procs = static_cast<std::uint32_t>(exec.num_processes());
  node_of_.resize(num_procs);
  for (std::uint32_t p = 0; p < num_procs; ++p) {
    const std::uint32_t old_len = p < proc_len_.size() ? proc_len_[p] : 0;
    for (std::uint32_t i = old_len; i < exec.history(p).size(); ++i) {
      node_of_[p].push_back(ops_.size());
      ops_.push_back(OpRef{p, i});
    }
  }
  const std::size_t n = ops_.size();
  for (std::size_t j = n_old; j < n; ++j) {
    std::vector<sat::Var> row(j);
    for (auto& var : row) var = solver_.new_var();
    order_rows_.push_back(std::move(row));
  }

  EmitContext ctx(solver_);
  const auto ol = [this](std::size_t i, std::size_t j) {
    return order_lit(i, j);
  };
  detail::emit_transitivity(ctx, n, n_old, ol);

  // Program order: consecutive pairs; an extension only needs the pairs
  // whose later operation is new.
  for (std::uint32_t p = 0; p < num_procs; ++p) {
    const std::uint32_t len =
        static_cast<std::uint32_t>(exec.history(p).size());
    const std::uint32_t old_len = p < proc_len_.size() ? proc_len_[p] : 0;
    for (std::uint32_t i = old_len > 0 ? old_len - 1 : 0; i + 1 < len; ++i)
      ctx.add_unit(order_lit(node_of_[p][i], node_of_[p][i + 1]));
  }
}

void VscSweep::emit_frames(const Execution& exec) {
  // Old frames quantify over the old write set, so any growth (or an
  // environment change) invalidates all of them; retiring neutralizes
  // their clauses and any learned clause that depended on them.
  for (const Frame& frame : frames_) solver_.retire(frame.act);
  frames_.clear();

  const std::size_t n = ops_.size();
  std::unordered_map<Addr, std::vector<std::size_t>> writes_of;
  std::set<Addr> addr_set;  // ordered for deterministic frame layout
  for (std::size_t node = 0; node < n; ++node) {
    const Operation& op = exec.op(ops_[node]);
    addr_set.insert(op.addr);
    if (op.writes_memory()) writes_of[op.addr].push_back(node);
  }
  const auto& finals = exec.final_values();
  for (const auto& [addr, value] : finals) addr_set.insert(addr);

  static const std::vector<std::size_t> kNoWrites;
  const auto ol = [this](std::size_t i, std::size_t j) {
    return order_lit(i, j);
  };
  for (const Addr addr : addr_set) {
    Frame frame;
    frame.addr = addr;
    frame.act = solver_.new_activation();
    const auto wit = writes_of.find(addr);
    const auto& addr_writes = wit == writes_of.end() ? kNoWrites : wit->second;

    EmitContext ctx(solver_);
    ctx.begin_frame(frame.act);
    bool alive = true;
    for (std::size_t node = 0; node < n && alive; ++node) {
      const Operation& op = exec.op(ops_[node]);
      if (!op.reads_memory() || op.addr != addr) continue;
      if (!detail::emit_vsc_read(ctx, exec, ops_, node, addr_writes, ol,
                                 frame.evidence)) {
        frame.trivially_unsat = true;
        ctx.add_clause({});  // stored as {~act}: poisons only this frame
        alive = false;
      }
    }
    if (alive) {
      const auto fit = finals.find(addr);
      if (fit != finals.end() &&
          !detail::emit_vsc_final(ctx, exec, ops_, addr, fit->second,
                                  addr_writes, ol, frame.evidence)) {
        frame.trivially_unsat = true;
        ctx.add_clause({});
      }
    }
    ctx.end_frame();
    frames_.push_back(std::move(frame));
  }
}

VscSweep::Outcome VscSweep::run(const std::vector<sat::Lit>& assumptions) {
  const sat::SolveResult solved = solver_.solve(assumptions);
  Outcome out;
  out.status = solved.status;
  if (solved.status != sat::Status::kSat) return out;

  const std::size_t n = ops_.size();
  std::vector<std::size_t> rank(n, 0);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < j; ++i) {
      if (solved.model[order_rows_[j][i]])
        ++rank[j];
      else
        ++rank[i];
    }
  std::vector<std::size_t> indices(n);
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  std::sort(indices.begin(), indices.end(),
            [&](std::size_t a, std::size_t b) { return rank[a] < rank[b]; });
  out.schedule.reserve(n);
  for (const std::size_t i : indices) out.schedule.push_back(ops_[i]);
  return out;
}

VscSweep::Outcome VscSweep::solve_address(std::size_t i) {
  if (frames_[i].trivially_unsat) {
    Outcome out;
    out.status = sat::Status::kUnsat;
    return out;
  }
  return run({sat::pos(frames_[i].act)});
}

VscSweep::Outcome VscSweep::solve_all() {
  std::vector<sat::Lit> assumptions;
  assumptions.reserve(frames_.size());
  for (const Frame& frame : frames_) assumptions.push_back(sat::pos(frame.act));
  return run(assumptions);
}

}  // namespace vermem::encode
