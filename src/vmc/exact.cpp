#include "vmc/exact.hpp"

#include <algorithm>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/arena.hpp"
#include "vmc/frontier.hpp"
#include "vmc/packed_instance.hpp"

namespace vermem::vmc {

namespace {

// The VMC policy of the frontier search (vmc/frontier.hpp) runs on
// PackedInstance keys (vmc/packed_instance.hpp): the state is W
// bit-packed words, W = 1 whenever the fields fit 64 bits. A choice is
// a history index; scheduling its op is an add plus a masked store on
// the key, and completion is one masked compare. See
// docs/ALGORITHMS.md §12 and §15 and tests/oracles/vmc for the pre-rework
// shape this replaces (kept as the differential oracle).
class VmcPolicy {
 public:
  using History = PackedInstance::History;
  using Op = PackedInstance::Op;

  VmcPolicy(const VmcInstance& instance, const ExactOptions& options,
            Arena& arena)
      : instance_(instance),
        options_(options),
        packed_(instance, arena),
        k_(static_cast<std::uint32_t>(packed_.num_histories())) {}

  [[nodiscard]] std::size_t words() const noexcept { return packed_.words(); }

  void start(std::uint64_t* key, Schedule* witness) const {
    std::copy_n(packed_.initial_key(), packed_.words(), key);
    if (options_.eager_reads) close_reads(key, witness);
  }

  /// The next enabled history at or after `p`. With eager reads, pure
  /// reads are consumed by the closure, so only writing operations
  /// branch.
  std::uint32_t next(const std::uint64_t* key, std::uint32_t p,
                     SearchStats& stats) const {
    const std::uint32_t value = packed_.value(key);
    for (; p < k_; ++p) {
      const History& h = packed_.history(p);
      const std::uint32_t pos = PackedInstance::position(key, h);
      const Op op = h.ops[pos];  // the sentinel once h is done
      if (options_.eager_reads && op.write == PackedInstance::kNone) continue;
      if (op.read != PackedInstance::kNone && op.read != value) continue;
      if (options_.pruner && op.write != PackedInstance::kNone &&
          !options_.pruner->satisfied(
              [&](std::uint32_t q) {
                return PackedInstance::position(key, packed_.history(q));
              },
              p, pos)) {
        // A must-precede predecessor is still unscheduled: this branch
        // violates a necessary ordering and cannot contain a witness.
        ++stats.oracle_prunes;
        continue;
      }
      return p;
    }
    return kNoChoice;
  }

  void apply(std::uint64_t* key, std::uint32_t p, Schedule* witness) const {
    const History& h = packed_.history(p);
    const std::uint32_t pos = PackedInstance::position(key, h);
    if (witness != nullptr) witness->push_back(OpRef{p, pos});
    packed_.apply(key, h, h.ops[pos]);
    if (options_.eager_reads) close_reads(key, witness);
  }

  [[nodiscard]] bool complete(const std::uint64_t* key) const noexcept {
    return packed_.complete(key);
  }
  [[nodiscard]] bool accept(const std::uint64_t* key) const noexcept {
    return packed_.final_ok(key);
  }

  /// A complete start state schedules no write (the instance has none;
  /// only pure reads of the initial value were consumed), so a final
  /// value other than the initial one is unwritable.
  [[nodiscard]] certify::Incoherence refute(const std::uint64_t* key,
                                            const SearchStats& stats) const {
    if (key != nullptr)
      return certify::unwritable_final(instance_.addr, *instance_.final_value());
    return certify::search_exhaustion(instance_.addr, stats.states_visited,
                                      stats.transitions);
  }

 private:
  /// Eagerly schedules every enabled pure read. Sound and complete: a
  /// read does not change the location's value, so any coherent
  /// continuation can be reordered to execute enabled reads first. One
  /// pass suffices: the value is fixed throughout, so once a history's
  /// run of enabled reads is consumed its next op is not an enabled read.
  void close_reads(std::uint64_t* key, Schedule* witness) const {
    const std::uint32_t value = packed_.value(key);
    for (std::uint32_t p = 0; p < k_; ++p) {
      const History& h = packed_.history(p);
      const std::uint32_t pos = PackedInstance::position(key, h);
      const Op op = h.ops[pos];
      if (op.run == 0 || op.read != value) continue;
      if (witness != nullptr)
        for (std::uint32_t i = pos; i != pos + op.run; ++i)
          witness->push_back(OpRef{p, i});
      key[h.position.word] += std::uint64_t{op.run} << h.position.shift;
    }
  }

  const VmcInstance& instance_;
  const ExactOptions& options_;
  const PackedInstance packed_;
  std::uint32_t k_;
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
    const VmcPolicy policy(instance, options, arena);
    key_words = policy.words();
    const SearchBudget budget{options.max_states, options.max_transitions,
                              options.deadline, options.cancel};
    result = FrontierSearch(policy, budget, options.memoize, arena).run();
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
