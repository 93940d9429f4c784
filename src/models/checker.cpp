#include "models/checker.hpp"

#include <unordered_map>
#include <unordered_set>

#include "analysis/router.hpp"
#include "support/hash.hpp"
#include "trace/address_index.hpp"
#include "vsc/exact.hpp"

namespace vermem::models {

namespace {

/// Store-buffer search shared by TSO and PSO; `per_address_fifo` selects
/// PSO's relaxed drain rule.
///
/// Transitions from a state: "issue" the next program operation of some
/// processor, or "drain" an eligible buffered store of some processor to
/// global memory. TSO may drain only the front of the FIFO; PSO may drain
/// any store that is the oldest to its own address. The trace is
/// admissible iff some transition sequence issues every operation and
/// empties every buffer, ending with memory matching the recorded final
/// values.
class BufferedSearch {
 public:
  BufferedSearch(const AddressIndex& index, bool per_address_fifo,
                 const ModelCheckOptions& options)
      : exec_(index.execution()), pso_(per_address_fifo), options_(options),
        k_(exec_.num_processes()) {
    for (const Addr addr : index.addresses()) {
      addr_id_[addr] = memory_.size();
      memory_.push_back(exec_.initial_value(addr));
    }
    positions_.assign(k_, 0);
    buffers_.assign(k_, {});
    // Choice encoding: [0, k) = issue by processor; [k, k + k*slots_) =
    // drain slot (c-k)%slots_ of processor (c-k)/slots_.
    std::size_t longest = 1;
    for (const auto& h : exec_.histories())
      longest = std::max(longest, h.size());
    slots_ = longest;
  }

  vmc::CheckResult run() {
    if (accepting()) return vmc::CheckResult::yes(issued_, stats_);
    remember();

    struct Frame {
      std::vector<std::uint32_t> positions;
      std::vector<std::vector<std::pair<Addr, Value>>> buffers;
      std::vector<Value> memory;
      std::size_t issued_len;
      std::size_t next_choice;
    };
    std::vector<Frame> stack;
    stack.push_back({positions_, buffers_, memory_, issued_.size(), 0});
    const std::size_t num_choices = k_ + k_ * slots_;

    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (budget_exhausted()) {
        if (options_.deadline.expired())
          return vmc::CheckResult::unknown(certify::UnknownReason::kDeadline,
                                           "search deadline expired", stats_);
        if (options_.cancel && options_.cancel->cancelled())
          return vmc::CheckResult::unknown(certify::UnknownReason::kCancelled,
                                           "search cancelled", stats_);
        return vmc::CheckResult::unknown(certify::UnknownReason::kBudget,
                                         "search budget exhausted", stats_);
      }

      positions_ = frame.positions;
      buffers_ = frame.buffers;
      memory_ = frame.memory;
      issued_.resize(frame.issued_len);

      std::size_t choice = frame.next_choice;
      for (; choice < num_choices; ++choice) {
        if (choice < k_) {
          if (can_issue(static_cast<std::uint32_t>(choice))) break;
        } else {
          const std::uint32_t p =
              static_cast<std::uint32_t>((choice - k_) / slots_);
          const std::size_t slot = (choice - k_) % slots_;
          if (can_drain(p, slot)) break;
        }
      }
      if (choice == num_choices) {
        stack.pop_back();
        continue;
      }
      frame.next_choice = choice + 1;
      ++stats_.transitions;

      if (choice < k_) {
        issue(static_cast<std::uint32_t>(choice));
      } else {
        const std::uint32_t p = static_cast<std::uint32_t>((choice - k_) / slots_);
        drain(p, (choice - k_) % slots_);
      }

      if (accepting()) return vmc::CheckResult::yes(issued_, stats_);
      if (!remember()) continue;
      stack.push_back({positions_, buffers_, memory_, issued_.size(), 0});
      stats_.max_frontier =
          std::max<std::uint64_t>(stats_.max_frontier, stack.size());
    }
    return vmc::CheckResult::no(
        certify::search_exhaustion(0, stats_.states_visited, stats_.transitions),
        stats_);
  }

 private:
  /// Newest buffered store of processor p to addr (forwarding), else the
  /// global memory value.
  [[nodiscard]] Value visible(std::uint32_t p, Addr addr) const {
    const auto& buffer = buffers_[p];
    for (std::size_t i = buffer.size(); i-- > 0;)
      if (buffer[i].first == addr) return buffer[i].second;
    return memory_[addr_id_.at(addr)];
  }

  [[nodiscard]] bool can_issue(std::uint32_t p) const {
    if (positions_[p] >= exec_.history(p).size()) return false;
    const Operation& op = exec_.history(p)[positions_[p]];
    switch (op.kind) {
      case OpKind::kWrite:
        return true;
      case OpKind::kRead:
        return visible(p, op.addr) == op.value_read;
      case OpKind::kRmw:
        // Atomics flush the buffer and act on memory directly.
        return buffers_[p].empty() &&
               memory_[addr_id_.at(op.addr)] == op.value_read;
      case OpKind::kAcquire:
      case OpKind::kRelease:
        return buffers_[p].empty();  // sync acts as a full fence
    }
    return false;
  }

  void issue(std::uint32_t p) {
    const Operation& op = exec_.history(p)[positions_[p]];
    issued_.push_back(OpRef{p, positions_[p]});
    ++positions_[p];
    if (op.kind == OpKind::kWrite)
      buffers_[p].emplace_back(op.addr, op.value_written);
    else if (op.kind == OpKind::kRmw)
      memory_[addr_id_.at(op.addr)] = op.value_written;
  }

  /// TSO: only slot 0 (FIFO front) drains. PSO: a slot drains iff it is
  /// the oldest buffered store to its address.
  [[nodiscard]] bool can_drain(std::uint32_t p, std::size_t slot) const {
    const auto& buffer = buffers_[p];
    if (slot >= buffer.size()) return false;
    if (!pso_) return slot == 0;
    for (std::size_t i = 0; i < slot; ++i)
      if (buffer[i].first == buffer[slot].first) return false;
    return true;
  }

  void drain(std::uint32_t p, std::size_t slot) {
    auto& buffer = buffers_[p];
    memory_[addr_id_.at(buffer[slot].first)] = buffer[slot].second;
    buffer.erase(buffer.begin() + static_cast<std::ptrdiff_t>(slot));
  }

  /// Accepting state: everything issued, buffers empty, finals match.
  [[nodiscard]] bool accepting() const {
    for (std::size_t p = 0; p < k_; ++p) {
      if (positions_[p] < exec_.history(p).size()) return false;
      if (!buffers_[p].empty()) return false;
    }
    for (const auto& [addr, fin] : exec_.final_values())
      if (memory_[addr_id_.at(addr)] != fin) return false;
    return true;
  }

  bool remember() {
    ++stats_.states_visited;
    std::vector<std::uint32_t> key(positions_);
    for (const Value v : memory_) {
      key.push_back(static_cast<std::uint32_t>(static_cast<std::uint64_t>(v)));
      key.push_back(
          static_cast<std::uint32_t>(static_cast<std::uint64_t>(v) >> 32));
    }
    for (std::size_t p = 0; p < k_; ++p) {
      key.push_back(0xffffffffu);  // buffer separator
      for (const auto& [addr, value] : buffers_[p]) {
        key.push_back(addr);
        key.push_back(
            static_cast<std::uint32_t>(static_cast<std::uint64_t>(value)));
        key.push_back(
            static_cast<std::uint32_t>(static_cast<std::uint64_t>(value) >> 32));
      }
    }
    if (!visited_.insert(std::move(key)).second) {
      --stats_.states_visited;
      return false;
    }
    return true;
  }

  [[nodiscard]] bool budget_exhausted() const {
    if (options_.max_states != 0 && stats_.states_visited >= options_.max_states)
      return true;
    if ((stats_.transitions & 0xff) != 0) return false;
    return options_.deadline.expired() ||
           (options_.cancel && options_.cancel->cancelled());
  }

  struct KeyHash {
    std::size_t operator()(const std::vector<std::uint32_t>& key) const noexcept {
      return static_cast<std::size_t>(hash_span<std::uint32_t>(key));
    }
  };

  const Execution& exec_;
  bool pso_;
  const ModelCheckOptions& options_;
  std::size_t k_;
  std::size_t slots_ = 1;

  std::unordered_map<Addr, std::size_t> addr_id_;
  std::vector<std::uint32_t> positions_;
  std::vector<std::vector<std::pair<Addr, Value>>> buffers_;
  std::vector<Value> memory_;
  Schedule issued_;
  std::unordered_set<std::vector<std::uint32_t>, KeyHash> visited_;
  vmc::SearchStats stats_;
};

}  // namespace

vmc::CheckResult check_model(const Execution& exec, Model m,
                             const ModelCheckOptions& options) {
  // One indexing pass over the trace feeds every model's dense address
  // numbering (and the coherence-only path's per-address projections).
  const AddressIndex index(exec);
  switch (m) {
    case Model::kSc: {
      vsc::ScOptions sc;
      sc.max_states = options.max_states;
      sc.deadline = options.deadline;
      sc.cancel = options.cancel;
      return vsc::check_sc_exact(index, sc);
    }
    case Model::kTso:
      return BufferedSearch(index, /*per_address_fifo=*/false, options).run();
    case Model::kPso:
      return BufferedSearch(index, /*per_address_fifo=*/true, options).run();
    case Model::kCoherenceOnly: {
      vmc::ExactOptions vmc_options;
      vmc_options.max_states = options.max_states;
      vmc_options.deadline = options.deadline;
      vmc_options.cancel = options.cancel;
      const auto report =
          analysis::verify_coherence_routed(index, nullptr, vmc_options).report;
      switch (report.verdict) {
        case vmc::Verdict::kCoherent:
          return vmc::CheckResult::yes({});
        case vmc::Verdict::kIncoherent: {
          const auto* violation = report.first_violation();
          certify::Incoherence evidence;
          if (violation) {
            if (const auto* inc = violation->result.incoherence())
              evidence = *inc;
            evidence.addr = violation->addr;
          }
          return vmc::CheckResult::no(std::move(evidence));
        }
        case vmc::Verdict::kUnknown:
          return vmc::CheckResult::unknown(
              certify::UnknownReason::kBudget,
              "coherence undecided within budget");
      }
      return vmc::CheckResult::unknown(certify::UnknownReason::kUnsupported,
                                       "unreachable");
    }
  }
  return vmc::CheckResult::unknown(certify::UnknownReason::kUnsupported,
                                   "unknown model");
}

}  // namespace vermem::models
