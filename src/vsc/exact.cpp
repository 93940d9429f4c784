#include "vsc/exact.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "support/arena.hpp"
#include "support/flat_set.hpp"

namespace vermem::vsc {

namespace {

// Same arena/FlatKeySet/SoA layout as the VMC search (vmc/exact.cpp),
// with the state widened to one current value per address: the key is
// the k 32-bit positions, two per 64-bit word, followed by one word per
// address value; the frame stack keeps one contiguous positions row and
// one contiguous values row per frame. The test oracle library
// (tests/oracles/vsc) preserves the pre-rework shape as the
// differential oracle.
class ScSearch {
 public:
  ScSearch(const AddressIndex& index, const ScOptions& options)
      : exec_(index.execution()), options_(options),
        k_(exec_.num_processes()) {
    // Dense address ids, straight off the one-pass index.
    for (const Addr addr : index.addresses()) {
      addr_id_[addr] = values_.size();
      values_.push_back(exec_.initial_value(addr));
    }
    positions_.assign(k_, 0);
    a_ = values_.size();
    key_buf_.assign((k_ + 1) / 2 + a_, 0);
    visited_.emplace(arena_, key_buf_.size());
  }

  CheckResult run() {
    CheckResult result = search();
    const ArenaStats& arena = arena_.stats();
    result.stats.arena_reserved = arena.reserved;
    result.stats.arena_high_water = arena.high_water;
    result.stats.arena_allocations = arena.allocations;
    return result;
  }

 private:
  CheckResult search() {
    if (options_.eager_reads) close_free_ops();
    if (complete()) {
      // Complete without a single write scheduled: only pure reads and
      // sync ops were consumed, so a mismatching final value is simply
      // unwritable on its address.
      return final_ok() ? CheckResult::yes(schedule_, stats_)
                        : CheckResult::no(final_mismatch_evidence(), stats_);
    }
    remember_current();
    push_frame();

    while (!frame_base_len_.empty()) {
      if (budget_exhausted()) {
        if (options_.deadline.expired())
          return CheckResult::unknown(certify::UnknownReason::kDeadline,
                                      "search deadline expired", stats_);
        if (options_.cancel && options_.cancel->cancelled())
          return CheckResult::unknown(certify::UnknownReason::kCancelled,
                                      "search cancelled", stats_);
        return CheckResult::unknown(certify::UnknownReason::kBudget,
                                    "search budget exhausted", stats_);
      }

      const std::size_t top = frame_base_len_.size() - 1;
      const std::uint32_t* prow = frame_positions_.data() + top * k_;
      std::copy(prow, prow + k_, positions_.begin());
      const Value* vrow = frame_values_.data() + top * a_;
      std::copy(vrow, vrow + a_, values_.begin());
      schedule_.resize(frame_base_len_[top]);

      std::uint32_t p = frame_next_choice_[top];
      for (; p < k_; ++p) {
        if (positions_[p] >= exec_.history(p).size()) continue;
        const Operation& op = exec_.history(p)[positions_[p]];
        if (options_.eager_reads && !op.writes_memory()) continue;
        if (!enabled(op)) continue;
        break;
      }
      if (p == k_) {
        pop_frame();
        continue;
      }
      frame_next_choice_[top] = p + 1;
      ++stats_.transitions;

      apply(p);
      if (options_.eager_reads) close_free_ops();

      if (complete()) {
        if (final_ok()) return CheckResult::yes(schedule_, stats_);
        continue;
      }
      if (!remember_current()) continue;
      push_frame();
      stats_.max_frontier = std::max<std::uint64_t>(stats_.max_frontier,
                                                    frame_base_len_.size());
    }
    return CheckResult::no(
        certify::search_exhaustion(0, stats_.states_visited, stats_.transitions),
        stats_);
  }

  void push_frame() {
    frame_positions_.insert(frame_positions_.end(), positions_.begin(),
                            positions_.end());
    frame_values_.insert(frame_values_.end(), values_.begin(), values_.end());
    frame_base_len_.push_back(schedule_.size());
    frame_next_choice_.push_back(0);
  }

  void pop_frame() {
    frame_positions_.resize(frame_positions_.size() - k_);
    frame_values_.resize(frame_values_.size() - a_);
    frame_base_len_.pop_back();
    frame_next_choice_.pop_back();
  }

  /// Evidence for the no-writes final mismatch: the first address whose
  /// recorded final value differs from its (never-written) initial value.
  [[nodiscard]] certify::Incoherence final_mismatch_evidence() const {
    for (const auto& [addr, fin] : exec_.final_values())
      if (values_[addr_id_.at(addr)] != fin)
        return certify::unwritable_final(addr, fin);
    return certify::search_exhaustion(0, stats_.states_visited,
                                      stats_.transitions);  // unreachable
  }

  [[nodiscard]] bool enabled(const Operation& op) const {
    if (op.is_sync()) return true;
    if (!op.reads_memory()) return true;
    return op.value_read == values_[addr_id_.at(op.addr)];
  }

  [[nodiscard]] bool complete() const {
    for (std::size_t p = 0; p < k_; ++p)
      if (positions_[p] < exec_.history(p).size()) return false;
    return true;
  }

  [[nodiscard]] bool final_ok() const {
    for (const auto& [addr, fin] : exec_.final_values())
      if (values_[addr_id_.at(addr)] != fin) return false;
    return true;
  }

  [[nodiscard]] bool budget_exhausted() const {
    if (options_.max_states != 0 && stats_.states_visited >= options_.max_states)
      return true;
    if (options_.max_transitions != 0 &&
        stats_.transitions >= options_.max_transitions)
      return true;
    if ((stats_.transitions & 0xff) != 0) return false;
    return options_.deadline.expired() ||
           (options_.cancel && options_.cancel->cancelled());
  }

  void apply(std::uint32_t p) {
    const Operation& op = exec_.history(p)[positions_[p]];
    schedule_.push_back(OpRef{p, positions_[p]});
    ++positions_[p];
    if (op.writes_memory()) values_[addr_id_.at(op.addr)] = op.value_written;
  }

  /// Eagerly schedules enabled pure reads and sync ops: neither changes
  /// any location's value, so the reordering argument from the VMC search
  /// applies per address.
  void close_free_ops() {
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (std::uint32_t p = 0; p < k_; ++p) {
        const auto& history = exec_.history(p);
        while (positions_[p] < history.size()) {
          const Operation& op = history[positions_[p]];
          const bool free_op = op.is_sync() || op.kind == OpKind::kRead;
          if (!free_op || !enabled(op)) break;
          apply(p);
          progressed = true;
        }
      }
    }
  }

  bool remember_current() {
    ++stats_.states_visited;
    if (!options_.memoize) return true;
    std::fill(key_buf_.begin(), key_buf_.end(), 0);
    for (std::size_t p = 0; p < k_; ++p)
      key_buf_[p / 2] |= std::uint64_t{positions_[p]} << (32 * (p % 2));
    std::uint64_t* out = key_buf_.data() + (k_ + 1) / 2;
    for (const Value v : values_) *out++ = static_cast<std::uint64_t>(v);
    if (!visited_->insert(key_buf_.data()).fresh) {
      --stats_.states_visited;
      return false;
    }
    return true;
  }

  const Execution& exec_;
  const ScOptions& options_;
  std::size_t k_;
  std::size_t a_ = 0;  ///< number of addresses (values per state)

  std::unordered_map<Addr, std::size_t> addr_id_;
  std::vector<std::uint32_t> positions_;
  std::vector<Value> values_;
  Schedule schedule_;

  // SoA frame stack: positions row and values row per frame.
  std::vector<std::uint32_t> frame_positions_;
  std::vector<Value> frame_values_;
  std::vector<std::size_t> frame_base_len_;
  std::vector<std::uint32_t> frame_next_choice_;

  Arena arena_;  ///< owns all visited-key storage for this call
  std::optional<FlatKeySet> visited_;  ///< set once a_ is known
  std::vector<std::uint64_t> key_buf_;
  SearchStats stats_;
};

}  // namespace

CheckResult check_sc_exact(const Execution& exec, const ScOptions& options) {
  return ScSearch(AddressIndex(exec), options).run();
}

CheckResult check_sc_exact(const AddressIndex& index, const ScOptions& options) {
  return ScSearch(index, options).run();
}

}  // namespace vermem::vsc
