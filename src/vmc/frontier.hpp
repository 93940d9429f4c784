#pragma once
// The one memoized depth-first frontier search behind the exact VMC
// (vmc/exact.cpp), VSC and TSO/PSO (vsc/exact.cpp) checkers: one
// algorithm over different states, in the spirit of Chini & Saivasan's
// framework for consistency algorithms. The engine owns the arena-backed
// key scratch, the SoA frame stack (one key row and one next choice per
// frame), the FlatKeySet memo, the budget/deadline/cancel check, the
// effort counters and the witness replay. A policy, a template argument
// with no virtual call per transition, supplies the key and the moves:
//
//   std::size_t words() const;  // 64-bit words per key
//   void start(std::uint64_t* key, Schedule* witness) const;
//   std::uint32_t next(const std::uint64_t* key, std::uint32_t from,
//                      SearchStats& stats) const;  // or kNoChoice
//   void apply(std::uint64_t* key, std::uint32_t choice,
//              Schedule* witness) const;
//   bool complete(const std::uint64_t* key) const;  // ends the branch
//   bool accept(const std::uint64_t* key) const;    // a complete key wins
//   certify::Incoherence refute(const std::uint64_t* key,
//                               const SearchStats& stats) const;
//
// start() and apply() leave the key closed under the policy's eager
// moves and append what they schedule to `witness` unless it is null.
// refute() gets the complete, rejected start key, or null once the
// search is exhausted. docs/ALGORITHMS.md §15 has the contract and each
// policy's key layout.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/arena.hpp"
#include "support/flat_set.hpp"
#include "support/parallel.hpp"
#include "support/stopwatch.hpp"
#include "vmc/result.hpp"

namespace vermem::vmc {

/// A search's effort caps and its cooperative stop signals.
struct SearchBudget {
  std::uint64_t max_states = 0;       ///< 0 = unlimited
  std::uint64_t max_transitions = 0;  ///< 0 = unlimited
  Deadline deadline = Deadline::never();
  const CancellationToken* cancel = nullptr;  ///< not owned

  /// True once a cap is reached or, checked every 256 transitions, the
  /// deadline expired or the search was cancelled.
  [[nodiscard]] bool exhausted(const SearchStats& stats) const {
    if (max_states != 0 && stats.states_visited >= max_states) return true;
    if (max_transitions != 0 && stats.transitions >= max_transitions)
      return true;
    if ((stats.transitions & 0xff) != 0) return false;
    return deadline.expired() || (cancel != nullptr && cancel->cancelled());
  }

  /// The kUnknown result of an exhausted search: the deadline wins over
  /// cancellation, which wins over the caps.
  [[nodiscard]] CheckResult give_up(const SearchStats& stats) const {
    if (deadline.expired())
      return CheckResult::unknown(certify::UnknownReason::kDeadline,
                                  "search deadline expired", stats);
    if (cancel != nullptr && cancel->cancelled())
      return CheckResult::unknown(certify::UnknownReason::kCancelled,
                                  "search cancelled", stats);
    return CheckResult::unknown(certify::UnknownReason::kBudget,
                                "search budget exhausted", stats);
  }
};

/// Returned by a policy's next() when no choice at or after `from` is
/// enabled.
inline constexpr std::uint32_t kNoChoice = 0xffffffffu;

/// Copies the accounting of the arena a search ran in into its result.
inline CheckResult with_arena_stats(CheckResult result, const Arena& arena) {
  result.stats.arena_reserved = arena.stats().reserved;
  result.stats.arena_high_water = arena.stats().high_water;
  result.stats.arena_allocations = arena.stats().allocations;
  return result;
}

template <typename Policy>
class FrontierSearch {
 public:
  /// `policy` and `arena` must outlive the search; the policy's own
  /// tables usually live in the same arena.
  FrontierSearch(const Policy& policy, const SearchBudget& budget,
                 bool memoize, Arena& arena)
      : policy_(policy),
        budget_(budget),
        memoize_(memoize),
        arena_(arena),
        words_(policy.words()),
        key_(arena.allocate_array<std::uint64_t>(2 * words_)),
        visited_(arena, words_) {}

  /// Runs the search; the result carries the effort and arena stats.
  CheckResult run() { return with_arena_stats(search(), arena_); }

 private:
  CheckResult search() {
    policy_.start(key_, nullptr);
    if (policy_.complete(key_))
      return policy_.accept(key_)
                 ? CheckResult::yes(witness(), stats_)
                 : CheckResult::no(policy_.refute(key_, stats_), stats_);
    remember_current();
    push_frame();

    while (!next_choice_.empty()) {
      if (budget_.exhausted(stats_)) return budget_.give_up(stats_);

      // Restore the top frame's state: one key row.
      const std::size_t top = next_choice_.size() - 1;
      const std::uint64_t* row = frame_keys_.data() + top * words_;
      for (std::size_t w = 0; w < words_; ++w) key_[w] = row[w];

      // A commutation (sleep-set) reduction belongs here, for every
      // policy at once: skip a choice whose successor an earlier,
      // independent sibling has already reached.
      const std::uint32_t choice = policy_.next(key_, next_choice_[top], stats_);
      if (choice == kNoChoice) {
        pop_frame();
        continue;
      }
      next_choice_[top] = choice + 1;
      ++stats_.transitions;

      policy_.apply(key_, choice, nullptr);
      if (policy_.complete(key_)) {
        if (policy_.accept(key_)) return CheckResult::yes(witness(), stats_);
        continue;  // frame state restored at loop head
      }
      if (!remember_current()) continue;  // state already explored
      push_frame();
      stats_.max_frontier =
          std::max<std::uint64_t>(stats_.max_frontier, next_choice_.size());
    }
    return CheckResult::no(policy_.refute(nullptr, stats_), stats_);
  }

  void push_frame() {
    for (std::size_t w = 0; w < words_; ++w) frame_keys_.push_back(key_[w]);
    next_choice_.push_back(0);
  }

  void pop_frame() {
    frame_keys_.resize(frame_keys_.size() - words_);
    next_choice_.pop_back();
  }

  /// The schedule that reached the current state: frame i took choice
  /// next_choice_[i] - 1, replayed from the start on the second key row.
  [[nodiscard]] Schedule witness() const {
    Schedule schedule;
    std::uint64_t* key = key_ + words_;
    policy_.start(key, &schedule);
    for (const std::uint32_t choice : next_choice_)
      policy_.apply(key, choice - 1, &schedule);
    return schedule;
  }

  /// Returns false when the current state was seen before (memoization
  /// on); always true with memoization off.
  bool remember_current() {
    ++stats_.states_visited;
    if (!memoize_) return true;
    if (!visited_.insert(key_).fresh) {
      --stats_.states_visited;
      ++stats_.prunes;
      return false;
    }
    return true;
  }

  const Policy& policy_;
  const SearchBudget budget_;
  const bool memoize_;
  Arena& arena_;
  const std::size_t words_;

  std::uint64_t* key_;  ///< the current state; a second row for witness()

  // SoA frame stack: key row i of frame_keys_ belongs to frame i, whose
  // next choice is next_choice_[i].
  std::vector<std::uint64_t> frame_keys_;
  std::vector<std::uint32_t> next_choice_;

  FlatKeySet visited_;
  SearchStats stats_;
};

}  // namespace vermem::vmc
