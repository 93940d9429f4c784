#pragma once
// Open-addressing dedup table for the packed search-state keys of the
// exact VMC/VSC frontier searches.
//
// Replaces std::unordered_set<std::vector<uint32_t>>: the node-based
// table costs one heap allocation per inserted key plus pointer-chasing
// on every probe. Here a key is `words` consecutive uint64 words
// (support/state_codec.hpp packs a VMC state into one word) stored
// inline in a power-of-two slot array next to its id, so a probe
// touches one slot: no fingerprint byte, no id-to-key indirection, no
// per-key copy. The slot array comes from the owning Arena, so a whole
// search performs no per-entry system allocation at all.
//
// Inserts only — the searches never remove a state, so there are no
// tombstones and growth is a clean re-placement of live slots. Every
// inserted key gets a dense id (insertion order) that survives growth;
// the DFS searches ignore ids, vmc/bounded.cpp uses them as parent
// links for witness reconstruction.

#include <bit>
#include <cstdint>
#include <cstring>

#include "support/arena.hpp"

namespace vermem {

class FlatKeySet {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Inserted {
    std::uint32_t id;  ///< dense insertion index of the key
    bool fresh;        ///< true when the key was not present before
  };

  /// `words` = 64-bit words per key; fixed for the table's lifetime.
  FlatKeySet(Arena& arena, std::size_t words,
             std::size_t initial_capacity = 64)
      : arena_(&arena), words_(words), slot_words_(words + 1) {
    std::size_t capacity = 16;
    while (capacity < initial_capacity) capacity *= 2;
    rehash(capacity);
  }

  /// Inserts the key at `key` (`words` words). A duplicate insert reads
  /// one slot per probe and writes nothing.
  Inserted insert(const std::uint64_t* key) {
    // Grow at 3/4 load: linear probing stays short and the doubling cost
    // is amortized against the arena's bump allocations.
    if ((size_ + 1) * 4 > capacity_ * 3) rehash(capacity_ * 2);
    std::size_t index = slot_of(key);
    while (true) {
      std::uint64_t* slot = slots_ + index * slot_words_;
      if (slot[0] == kEmptyTag) {
        slot[0] = size_ + 1;
        for (std::size_t w = 0; w < words_; ++w) slot[1 + w] = key[w];
        return {static_cast<std::uint32_t>(size_++), true};
      }
      if (equal(slot + 1, key))
        return {static_cast<std::uint32_t>(slot[0] - 1), false};
      index = (index + 1) & mask_;
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  /// Slot layout: tag word (id + 1; 0 = empty), then the key words.
  static constexpr std::uint64_t kEmptyTag = 0;

  /// Fibonacci hashing over the key words: the multiply carries every
  /// low bit (where the packed position fields sit) into the top bits,
  /// which pick the slot.
  [[nodiscard]] std::size_t slot_of(const std::uint64_t* key) const noexcept {
    std::uint64_t hash = 0;
    for (std::size_t w = 0; w < words_; ++w)
      hash = (hash ^ key[w]) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(hash >> shift_);
  }

  /// Word loop rather than memcmp: keys are a few words (one for every
  /// VMC search the benchmark runs), where a library call costs more
  /// than the compare.
  [[nodiscard]] bool equal(const std::uint64_t* a,
                           const std::uint64_t* b) const noexcept {
    for (std::size_t w = 0; w < words_; ++w)
      if (a[w] != b[w]) return false;
    return true;
  }

  void rehash(std::size_t capacity) {
    std::uint64_t* old = slots_;
    const std::size_t old_capacity = capacity_;
    slots_ = arena_->allocate_array<std::uint64_t>(capacity * slot_words_);
    std::memset(slots_, 0, capacity * slot_words_ * sizeof(std::uint64_t));
    capacity_ = capacity;
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (std::size_t i = 0; i < old_capacity; ++i) {
      const std::uint64_t* from = old + i * slot_words_;
      if (from[0] == kEmptyTag) continue;
      std::size_t index = slot_of(from + 1);
      while (slots_[index * slot_words_] != kEmptyTag)
        index = (index + 1) & mask_;
      std::memcpy(slots_ + index * slot_words_, from,
                  slot_words_ * sizeof(std::uint64_t));
    }
  }

  Arena* arena_;
  std::size_t words_;
  std::size_t slot_words_;
  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
  std::uint64_t* slots_ = nullptr;
};

}  // namespace vermem
