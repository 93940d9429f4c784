#include "vmc/exact.hpp"

#include <algorithm>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/arena.hpp"
#include "support/flat_set.hpp"
#include "vmc/packed_instance.hpp"

namespace vermem::vmc {

namespace {

// The search runs on PackedInstance keys (vmc/packed_instance.hpp): the
// state is W bit-packed words, W = 1 whenever the fields fit 64 bits.
// Scheduling an op is an add plus a masked store on the key, completion
// is one masked compare, and the visited set keeps the keys inline in
// its slots (support/flat_set.hpp). The DFS frame stack is SoA: one key
// row per frame plus the frame's next branching choice; no schedule is
// kept while searching, the witness is replayed from the choices on
// success. See docs/ALGORITHMS.md §12 and tests/oracles/vmc for the
// pre-rework shape this replaces (kept as the differential oracle).
class ExactSearch {
 public:
  using History = PackedInstance::History;
  using Op = PackedInstance::Op;

  ExactSearch(const VmcInstance& instance, const ExactOptions& options,
              Arena& arena)
      : instance_(instance),
        options_(options),
        packed_(instance, arena),
        k_(static_cast<std::uint32_t>(packed_.num_histories())),
        words_(packed_.words()),
        key_(arena.allocate_array<std::uint64_t>(2 * words_)),
        visited_(arena, words_) {}

  [[nodiscard]] std::size_t key_words() const noexcept { return words_; }

  CheckResult run() {
    std::copy_n(packed_.initial_key(), words_, key_);
    if (options_.eager_reads) close_reads(key_, nullptr);
    if (packed_.complete(key_)) {
      // Complete without scheduling a write: the instance has no writes
      // (only pure reads of the initial value were consumed), so a final
      // value other than the initial one is unwritable.
      return packed_.final_ok(key_)
                 ? CheckResult::yes(witness(), stats_)
                 : CheckResult::no(
                       certify::unwritable_final(instance_.addr,
                                                 *instance_.final_value()),
                       stats_);
    }
    remember_current();
    push_frame();

    while (!next_choice_.empty()) {
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

      // Restore the top frame's state: one key row.
      const std::size_t top = next_choice_.size() - 1;
      const std::uint64_t* row = frame_keys_.data() + top * words_;
      for (std::size_t w = 0; w < words_; ++w) key_[w] = row[w];

      // Find the next enabled candidate. With eager reads, pure reads are
      // consumed by the closure, so only writing operations branch.
      const std::uint32_t value = packed_.value(key_);
      std::uint32_t p = next_choice_[top];
      std::uint32_t pos = 0;
      for (; p < k_; ++p) {
        const History& h = packed_.history(p);
        pos = PackedInstance::position(key_, h);
        const Op op = h.ops[pos];  // the sentinel once h is done
        if (options_.eager_reads && op.write == PackedInstance::kNone)
          continue;
        if (op.read != PackedInstance::kNone && op.read != value) continue;
        if (options_.pruner && op.write != PackedInstance::kNone &&
            !options_.pruner->satisfied(
                [&](std::uint32_t q) {
                  return PackedInstance::position(key_, packed_.history(q));
                },
                p, pos)) {
          // A must-precede predecessor is still unscheduled: this branch
          // violates a necessary ordering and cannot contain a witness.
          ++stats_.oracle_prunes;
          continue;
        }
        break;
      }
      if (p == k_) {
        pop_frame();
        continue;
      }
      next_choice_[top] = p + 1;
      ++stats_.transitions;

      const History& h = packed_.history(p);
      packed_.apply(key_, h, h.ops[pos]);
      if (options_.eager_reads) close_reads(key_, nullptr);

      if (packed_.complete(key_)) {
        if (packed_.final_ok(key_)) return CheckResult::yes(witness(), stats_);
        continue;  // frame state restored at loop head
      }
      if (!remember_current()) continue;  // state already explored
      push_frame();
      stats_.max_frontier =
          std::max<std::uint64_t>(stats_.max_frontier, next_choice_.size());
    }
    return CheckResult::no(
        certify::search_exhaustion(instance_.addr, stats_.states_visited,
                                   stats_.transitions),
        stats_);
  }

 private:
  void push_frame() {
    for (std::size_t w = 0; w < words_; ++w) frame_keys_.push_back(key_[w]);
    next_choice_.push_back(0);
  }

  void pop_frame() {
    frame_keys_.resize(frame_keys_.size() - words_);
    next_choice_.pop_back();
  }

  /// The schedule that reached the current state, rebuilt once on
  /// success: frame i branched on history next_choice_[i] - 1, and
  /// every branch is followed by its (deterministic) read closure.
  [[nodiscard]] Schedule witness() const {
    Schedule schedule;
    std::uint64_t* key = key_ + words_;  // second scratch row
    std::copy_n(packed_.initial_key(), words_, key);
    if (options_.eager_reads) close_reads(key, &schedule);
    for (const std::uint32_t choice : next_choice_) {
      const std::uint32_t p = choice - 1;
      const History& h = packed_.history(p);
      const std::uint32_t pos = PackedInstance::position(key, h);
      schedule.push_back(OpRef{p, pos});
      packed_.apply(key, h, h.ops[pos]);
      if (options_.eager_reads) close_reads(key, &schedule);
    }
    return schedule;
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

  /// Eagerly schedules every enabled pure read. Sound and complete: a
  /// read does not change the location's value, so any coherent
  /// continuation can be reordered to execute enabled reads first. One
  /// pass suffices: the value is fixed throughout, so once a history's
  /// run of enabled reads is consumed its next op is not an enabled read.
  /// Appends the consumed reads to `schedule` unless it is null (the
  /// search itself keeps no schedule; see witness()).
  void close_reads(std::uint64_t* key, Schedule* schedule) const {
    const std::uint32_t value = packed_.value(key);
    for (std::uint32_t p = 0; p < k_; ++p) {
      const History& h = packed_.history(p);
      const std::uint32_t pos = PackedInstance::position(key, h);
      const Op op = h.ops[pos];
      if (op.run == 0 || op.read != value) continue;
      if (schedule != nullptr)
        for (std::uint32_t i = pos; i != pos + op.run; ++i)
          schedule->push_back(OpRef{p, i});
      key[h.position.word] += std::uint64_t{op.run} << h.position.shift;
    }
  }

  /// Returns false when the current state was seen before (memoization
  /// on); always true with memoization off.
  bool remember_current() {
    ++stats_.states_visited;
    if (!options_.memoize) return true;
    if (!visited_.insert(key_).fresh) {
      --stats_.states_visited;
      ++stats_.prunes;
      return false;
    }
    return true;
  }

  const VmcInstance& instance_;
  const ExactOptions& options_;
  const PackedInstance packed_;
  std::uint32_t k_;
  std::size_t words_;

  std::uint64_t* key_;  ///< the current state; a second row for witness()

  // SoA frame stack: key row i of frame_keys_ belongs to frame i, whose
  // next branching choice is next_choice_[i].
  std::vector<std::uint64_t> frame_keys_;
  std::vector<std::uint32_t> next_choice_;

  FlatKeySet visited_;
  SearchStats stats_;
};

}  // namespace

CheckResult check_exact(const VmcInstance& instance, const ExactOptions& options) {
  obs::Span span("vmc.exact");
  CheckResult result;
  std::size_t key_words = 0;
  if (const auto why = instance.malformed()) {
    result = CheckResult::unknown(certify::UnknownReason::kMalformed, *why);
  } else {
    // The arena owns the compiled instance, the key scratch and every
    // visited key of this call.
    Arena arena;
    ExactSearch search(instance, options, arena);
    key_words = search.key_words();
    result = search.run();
    const ArenaStats& stats = arena.stats();
    result.stats.arena_reserved = stats.reserved;
    result.stats.arena_high_water = stats.high_water;
    result.stats.arena_allocations = stats.allocations;
  }
  if (span.active()) {
    // A span holds four numeric attributes (obs/span.hpp); the other
    // counters reach the registry below and the response's effort.
    span.attr("states", result.stats.states_visited);
    span.attr("transitions", result.stats.transitions);
    span.attr("max_frontier", result.stats.max_frontier);
    span.attr("key_words", key_words);
    span.attr("verdict", to_string(result.verdict));
  }
  if (obs::enabled()) {
    static const obs::Counter searches =
        obs::counter("vermem_exact_searches_total");
    static const obs::Counter states = obs::counter("vermem_exact_states_total");
    static const obs::Counter transitions =
        obs::counter("vermem_exact_transitions_total");
    static const obs::Counter prunes = obs::counter("vermem_exact_prunes_total");
    static const obs::Counter oracle_prunes =
        obs::counter("vermem_exact_oracle_prunes_total");
    static const obs::Counter arena_reserved =
        obs::counter("vermem_exact_arena_reserved_bytes_total");
    static const obs::Counter arena_allocations =
        obs::counter("vermem_exact_arena_allocations_total");
    searches.add();
    states.add(result.stats.states_visited);
    transitions.add(result.stats.transitions);
    prunes.add(result.stats.prunes);
    oracle_prunes.add(result.stats.oracle_prunes);
    arena_reserved.add(result.stats.arena_reserved);
    arena_allocations.add(result.stats.arena_allocations);
  }
  if (result.stats.arena_high_water != 0)
    obs::flight_event(obs::FlightEventKind::kArenaHighWater, "vmc.exact",
                      result.stats.arena_high_water,
                      result.stats.states_visited);
  return result;
}

}  // namespace vermem::vmc
