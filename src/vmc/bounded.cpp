#include "vmc/bounded.hpp"

#include <algorithm>

#include "support/arena.hpp"
#include "support/flat_set.hpp"
#include "vmc/packed_instance.hpp"

namespace vermem::vmc {

// Breadth-first frontier over the same packed state keys the exact DFS
// uses (vmc/packed_instance.hpp). Dedup is the shared FlatKeySet; its
// dense insertion ids double as the parent links for witness
// reconstruction and index an id-ordered copy of each key, so the
// per-state cost is one key row plus one ParentLink in the arena, with
// no per-state heap allocation.
CheckResult check_bounded_k(const VmcInstance& instance,
                            const BoundedKOptions& options) {
  if (const auto why = instance.malformed())
    return CheckResult::unknown(certify::UnknownReason::kMalformed, *why);
  const std::size_t k = instance.num_histories();
  if (options.max_histories != 0 && k > options.max_histories)
    return CheckResult::unknown(certify::UnknownReason::kNotApplicable,
                                "more than " +
                                    std::to_string(options.max_histories) +
                                    " histories");

  const std::size_t total_ops = instance.num_operations();
  SearchStats stats;

  Arena arena;
  const PackedInstance packed(instance, arena);
  const std::size_t words = packed.words();
  FlatKeySet visited(arena, words);
  const auto with_arena = [&](CheckResult result) {
    result.stats.arena_reserved = arena.stats().reserved;
    result.stats.arena_high_water = arena.stats().high_water;
    result.stats.arena_allocations = arena.stats().allocations;
    return result;
  };

  /// Per visited-set id: the key (`words` words at id * words) and the
  /// parent link (parent id, the OpRef scheduled to get here). The start
  /// state's parent is kNone.
  struct ParentLink {
    std::uint32_t parent;
    OpRef via;
  };
  ArenaVec<std::uint64_t> keys(arena);
  ArenaVec<ParentLink> parents(arena);
  const auto record = [&](const std::uint64_t* key, ParentLink link) {
    for (std::size_t w = 0; w < words; ++w) keys.push_back(key[w]);
    parents.push_back(link);
    ++stats.states_visited;
  };

  const std::uint32_t start_id = visited.insert(packed.initial_key()).id;
  record(packed.initial_key(), {FlatKeySet::kNone, {}});

  const auto build_witness = [&](std::uint32_t id) {
    Schedule schedule;
    while (parents[id].parent != FlatKeySet::kNone) {
      schedule.push_back(parents[id].via);
      id = parents[id].parent;
    }
    std::reverse(schedule.begin(), schedule.end());
    return schedule;
  };

  std::uint64_t* state = arena.allocate_array<std::uint64_t>(words);
  std::uint64_t* next = arena.allocate_array<std::uint64_t>(words);
  std::vector<std::uint32_t> level{start_id};
  std::vector<std::uint32_t> next_level;
  for (std::size_t step = 0; step < total_ops; ++step) {
    next_level.clear();
    for (const std::uint32_t id : level) {
      if (options.max_states != 0 && stats.states_visited >= options.max_states)
        return with_arena(CheckResult::unknown(
            certify::UnknownReason::kBudget, "state budget exhausted", stats));
      if ((stats.transitions & 0xff) == 0) {
        if (options.deadline.expired())
          return with_arena(CheckResult::unknown(
              certify::UnknownReason::kDeadline, "deadline exceeded", stats));
        if (options.cancel && options.cancel->cancelled())
          return with_arena(CheckResult::unknown(
              certify::UnknownReason::kCancelled, "cancelled", stats));
      }

      // Copied out: recording successors may move `keys`.
      std::copy_n(keys.data() + id * words, words, state);
      const std::uint32_t value = packed.value(state);
      for (std::uint32_t p = 0; p < k; ++p) {
        const PackedInstance::History& h = packed.history(p);
        const std::uint32_t pos = PackedInstance::position(state, h);
        const PackedInstance::Op op = h.ops[pos];  // sentinel: never enabled
        if (op.read != PackedInstance::kNone && op.read != value) continue;
        ++stats.transitions;

        std::copy_n(state, words, next);
        packed.apply(next, h, op);
        const auto inserted = visited.insert(next);
        if (!inserted.fresh) continue;
        record(next, {id, OpRef{p, pos}});
        next_level.push_back(inserted.id);
      }
    }
    stats.max_frontier =
        std::max<std::uint64_t>(stats.max_frontier, next_level.size());
    if (next_level.empty())
      return with_arena(CheckResult::no(
          certify::search_exhaustion(instance.addr, stats.states_visited,
                                     stats.transitions),
          stats));
    level.swap(next_level);
  }

  // All operations scheduled: any final state with an acceptable value
  // wins.
  for (const std::uint32_t id : level)
    if (packed.final_ok(keys.data() + id * words))
      return with_arena(CheckResult::yes(build_witness(id), stats));
  return with_arena(CheckResult::no(
      certify::search_exhaustion(instance.addr, stats.states_visited,
                                 stats.transitions),
      stats));
}

}  // namespace vermem::vmc
