#pragma once
// Single-pass per-address index over an Execution.
//
// Coherence decomposes exactly by location (Section 4), but exploiting
// that with Execution::addresses() + Execution::project(a) costs
// O(addresses x total_ops): every projection rescans the whole trace.
// AddressIndex takes one linear pass and produces, for every address, a
// contiguous arena-backed run of OpRefs plus cheap structural stats (op
// and write counts, rmw-only flag, processes touched). ProjectedView is
// the zero-copy window onto one address; materialize() rebuilds the
// exact ExecutionProjection that Execution::project() returns, but in
// O(ops_on_address) instead of O(total_ops).
//
// The index borrows the Execution it was built from; it must not outlive
// it, and the Execution must not be mutated while the index is in use.

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "trace/execution.hpp"

namespace vermem {

/// Structural summary of one address, gathered during the indexing pass.
/// These are exactly the probes the Figure 5.3 router dispatches on, so
/// checkers can pick a branch without touching the operations at all.
struct AddressEntry {
  Addr addr = 0;
  std::uint32_t op_count = 0;       ///< non-sync operations on this address
  std::uint32_t write_count = 0;    ///< ops that write (W or RMW)
  std::uint32_t process_count = 0;  ///< distinct histories touching the address
  std::uint32_t offset = 0;         ///< first OpRef in the shared arena
  bool rmw_only = true;             ///< every op is a read-modify-write
};

class ProjectedView;

/// One O(n) sweep over an Execution; afterwards every per-address
/// question (enumeration, stats, projection) is O(1) or O(ops_on_address).
class AddressIndex {
 public:
  AddressIndex() = default;
  explicit AddressIndex(const Execution& exec);

  /// The execution this index was built over.
  [[nodiscard]] const Execution& execution() const noexcept { return *exec_; }

  /// All distinct non-sync addresses, ascending (same contract as
  /// Execution::addresses()).
  [[nodiscard]] std::span<const Addr> addresses() const noexcept {
    return addresses_;
  }
  [[nodiscard]] std::size_t num_addresses() const noexcept {
    return addresses_.size();
  }

  /// Entry for the i-th address in sorted order.
  [[nodiscard]] const AddressEntry& entry(std::size_t i) const noexcept {
    return entries_[i];
  }
  /// Entry for an address, or nullptr when no operation touches it.
  [[nodiscard]] const AddressEntry* find(Addr a) const;

  /// All OpRefs on the entry's address, grouped by process, program order
  /// within each group (hence sorted lexicographically by (process, index)).
  [[nodiscard]] std::span<const OpRef> refs(const AddressEntry& e) const noexcept {
    return {arena_.data() + e.offset, e.op_count};
  }
  /// Same, by address; empty span when the address is untouched.
  [[nodiscard]] std::span<const OpRef> refs(Addr a) const;

  /// Lightweight single-address window. The address must be present.
  [[nodiscard]] ProjectedView view(Addr a) const;
  /// View of the i-th address in sorted order.
  [[nodiscard]] ProjectedView view_at(std::size_t i) const;

 private:
  const Execution* exec_ = nullptr;
  std::vector<Addr> addresses_;        // sorted ascending
  std::vector<AddressEntry> entries_;  // parallel to addresses_
  std::vector<OpRef> arena_;           // all refs, contiguous per address
  std::unordered_map<Addr, std::uint32_t> slot_of_;
};

/// Non-owning projection of an Execution onto one address. Histories are
/// the runs of same-process refs inside the arena span; history h of the
/// view corresponds to history h of Execution::project(addr) (empty
/// projected histories are dropped by both).
class ProjectedView {
 public:
  ProjectedView(const Execution& exec, const AddressEntry& entry,
                std::span<const OpRef> refs);

  [[nodiscard]] Addr addr() const noexcept { return entry_->addr; }
  [[nodiscard]] const AddressEntry& stats() const noexcept { return *entry_; }
  [[nodiscard]] std::size_t num_ops() const noexcept { return refs_.size(); }
  [[nodiscard]] std::size_t num_histories() const noexcept {
    return history_process_.size();
  }

  /// All refs on the address (original coordinates), grouped by process.
  [[nodiscard]] std::span<const OpRef> refs() const noexcept { return refs_; }
  /// Refs belonging to projected history h.
  [[nodiscard]] std::span<const OpRef> history_refs(std::size_t h) const noexcept {
    return refs_.subspan(history_begin_[h], history_begin_[h + 1] - history_begin_[h]);
  }
  /// Original process id behind projected history h.
  [[nodiscard]] std::uint32_t history_process(std::size_t h) const noexcept {
    return history_process_[h];
  }

  /// Operation behind an original-coordinate ref.
  [[nodiscard]] const Operation& op(OpRef original) const noexcept {
    return exec_->op(original);
  }
  [[nodiscard]] Value initial_value() const noexcept {
    return exec_->initial_value(entry_->addr);
  }
  [[nodiscard]] std::optional<Value> final_value() const noexcept {
    return exec_->final_value(entry_->addr);
  }

  /// Maps an original-execution ref to its projected coordinates, or
  /// nullopt when the ref is not an operation on this address. O(log n_a)
  /// binary search over the sorted arena span — no hash map needed.
  [[nodiscard]] std::optional<OpRef> projected_of(OpRef original) const;
  /// Maps projected coordinates back to the original execution's.
  [[nodiscard]] OpRef original_of(OpRef projected) const noexcept {
    return refs_[history_begin_[projected.process] + projected.index];
  }

  /// Builds the same ExecutionProjection Execution::project(addr) returns
  /// (histories, origin refs, initial/final values), in O(ops_on_address).
  [[nodiscard]] ExecutionProjection materialize() const;

 private:
  const Execution* exec_;
  const AddressEntry* entry_;
  std::span<const OpRef> refs_;
  std::vector<std::uint32_t> history_begin_;    // size num_histories + 1
  std::vector<std::uint32_t> history_process_;  // size num_histories
};

}  // namespace vermem
