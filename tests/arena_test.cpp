// Tests for the search-allocation layer: the bump/extent Arena (and its
// ArenaVec), the bit-packing StateCodec, and the open-addressing
// FlatKeySet, including a randomized differential against
// std::unordered_set on the exact key distribution the frontier
// searches produce.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "support/arena.hpp"
#include "support/flat_set.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "support/state_codec.hpp"

namespace vermem {
namespace {

TEST(Arena, AlignmentIsRespected) {
  Arena arena(128);
  for (const std::size_t align : {1, 2, 4, 8, 16, 32, 64}) {
    for (const std::size_t bytes : {1, 3, 7, 24, 100}) {
      void* p = arena.allocate(bytes, align);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
          << bytes << " bytes at alignment " << align;
    }
  }
}

TEST(Arena, AllocationsDoNotOverlap) {
  Arena arena(64);  // tiny first extent, so growth happens mid-test
  std::vector<std::pair<char*, std::size_t>> chunks;
  for (std::size_t i = 0; i < 200; ++i) {
    const std::size_t bytes = 1 + (i * 7) % 50;
    auto* p = static_cast<char*>(arena.allocate(bytes, 4));
    std::memset(p, static_cast<int>(i & 0xff), bytes);
    chunks.emplace_back(p, bytes);
  }
  // Every chunk still holds its fill pattern: no overlap, no relocation.
  for (std::size_t i = 0; i < chunks.size(); ++i)
    for (std::size_t b = 0; b < chunks[i].second; ++b)
      ASSERT_EQ(static_cast<unsigned char>(chunks[i].first[b]), i & 0xff);
}

TEST(Arena, ExtentsGrowGeometrically) {
  Arena arena(64);
  EXPECT_EQ(arena.stats().extents, 0u);  // lazy: nothing until first use
  (void)arena.allocate(1, 1);
  EXPECT_EQ(arena.stats().extents, 1u);
  const std::uint64_t first = arena.stats().reserved;
  // Burn through several extents; each must at least double the reserve.
  std::uint64_t last_reserved = first;
  for (int i = 0; i < 4; ++i) {
    while (arena.stats().reserved == last_reserved) (void)arena.allocate(48, 8);
    const std::uint64_t grown = arena.stats().reserved - last_reserved;
    EXPECT_GE(grown, last_reserved) << "extent " << i << " grew sub-geometrically";
    last_reserved = arena.stats().reserved;
  }
  EXPECT_EQ(arena.stats().extents, 5u);
}

TEST(Arena, OversizedRequestGetsItsOwnExtent) {
  Arena arena(64);
  auto* p = static_cast<char*>(arena.allocate(10'000, 8));
  std::memset(p, 0xab, 10'000);
  EXPECT_GE(arena.stats().reserved, 10'000u);
}

TEST(Arena, ResetIsWholesaleAndRetainsLargestExtent) {
  Arena arena(64);
  for (int i = 0; i < 100; ++i) (void)arena.allocate(100, 8);
  const ArenaStats before = arena.stats();
  EXPECT_GT(before.extents, 1u);
  EXPECT_GT(before.high_water, 0u);

  arena.reset();
  const ArenaStats after_reset = arena.stats();
  EXPECT_EQ(after_reset.extents, 1u);  // largest extent retained for reuse
  EXPECT_LT(after_reset.reserved, before.reserved);
  EXPECT_GT(after_reset.reserved, 0u);
  // Lifetime counters survive the reset.
  EXPECT_EQ(after_reset.allocations, before.allocations);
  EXPECT_EQ(after_reset.high_water, before.high_water);
  EXPECT_EQ(after_reset.used, before.used);

  // Allocating within the retained extent reuses it: no new reserve.
  (void)arena.allocate(64, 8);
  EXPECT_EQ(arena.stats().reserved, after_reset.reserved);
  EXPECT_EQ(arena.stats().extents, 1u);
}

TEST(Arena, HighWaterTracksPeakNotCurrent) {
  Arena arena(64);
  for (int i = 0; i < 50; ++i) (void)arena.allocate(64, 8);
  const std::uint64_t peak = arena.stats().high_water;
  arena.reset();
  (void)arena.allocate(8, 8);
  EXPECT_GE(arena.stats().high_water, peak);  // peak is a lifetime maximum
}

TEST(ArenaVec, PushGrowAndIndex) {
  Arena arena(64);
  ArenaVec<std::uint64_t> vec(arena);
  EXPECT_TRUE(vec.empty());
  for (std::uint64_t i = 0; i < 1000; ++i) vec.push_back(i * 3);
  ASSERT_EQ(vec.size(), 1000u);
  for (std::uint64_t i = 0; i < 1000; ++i) ASSERT_EQ(vec[i], i * 3);
  vec.clear();
  EXPECT_TRUE(vec.empty());
  vec.push_back(7);
  EXPECT_EQ(vec[0], 7u);
}

// ---- StateCodec ----------------------------------------------------------

TEST(StateCodec, WordCountsForSearchShapes) {
  Arena arena;
  // perfbench `hard`: 6 histories of <= 24 ops (5 bits each), 2 values.
  const std::vector<std::uint64_t> hard = {24, 24, 24, 24, 24, 24, 1};
  EXPECT_EQ(StateCodec(arena, hard).words(), 1u);
  // 12 histories of 100 ops: 84 position bits.
  std::vector<std::uint64_t> wide(12, 100);
  wide.push_back(2);
  EXPECT_EQ(StateCodec(arena, wide).words(), 2u);
  // Only zero-width fields: still one (all-zero) word.
  const std::vector<std::uint64_t> empty = {0, 0, 0};
  const StateCodec none(arena, empty);
  EXPECT_EQ(none.words(), 1u);
  for (std::size_t i = 0; i < empty.size(); ++i)
    EXPECT_EQ(none.field(i).mask, 0u);
}

TEST(StateCodec, RandomFieldsRoundTripAndNeverStraddle) {
  Xoshiro256ss rng(2003);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t count = 1 + static_cast<std::size_t>(rng() % 20);
    std::vector<std::uint64_t> maxima(count);
    for (auto& max : maxima) {
      const unsigned width = static_cast<unsigned>(rng() % 65);  // 0..64
      max = width == 0    ? 0
            : width == 64 ? ~std::uint64_t{0} >> (rng() % 2)
                          : (std::uint64_t{1} << (width - 1)) +
                                rng() % (std::uint64_t{1} << (width - 1));
    }
    Arena arena;
    const StateCodec codec(arena, maxima);
    std::vector<std::uint64_t> used(codec.words(), 0);
    for (std::size_t i = 0; i < count; ++i) {
      const StateCodec::Field& f = codec.field(i);
      const auto width = static_cast<unsigned>(std::bit_width(f.mask));
      ASSERT_EQ(width, static_cast<unsigned>(std::bit_width(maxima[i])));
      if (width == 0) continue;
      ASSERT_LT(f.word, codec.words());
      ASSERT_LE(f.shift + width, 64u) << "field " << i << " straddles";
      ASSERT_EQ(used[f.word] & (f.mask << f.shift), 0u) << "overlap";
      used[f.word] |= f.mask << f.shift;
    }

    std::vector<std::uint64_t> values(count);
    for (std::size_t i = 0; i < count; ++i)
      values[i] = maxima[i] == 0 ? 0 : rng() % maxima[i];  // < max
    std::vector<std::uint64_t> key(codec.words(), 0);
    for (std::size_t i = 0; i < count; ++i)
      StateCodec::set(key.data(), codec.field(i), values[i]);
    for (std::size_t i = 0; i < count; ++i)
      ASSERT_EQ(StateCodec::get(key.data(), codec.field(i)), values[i]);
    // Incrementing a field below its maximum leaves its neighbours alone.
    const std::size_t bump = static_cast<std::size_t>(rng() % count);
    if (maxima[bump] != 0) {
      StateCodec::increment(key.data(), codec.field(bump));
      ++values[bump];
    }
    const std::size_t reset = static_cast<std::size_t>(rng() % count);
    StateCodec::set(key.data(), codec.field(reset), maxima[reset]);
    values[reset] = maxima[reset];
    for (std::size_t i = 0; i < count; ++i)
      ASSERT_EQ(StateCodec::get(key.data(), codec.field(i)), values[i]);
  }
}

// ---- FlatKeySet ---------------------------------------------------------

using Key = std::vector<std::uint64_t>;

struct KeyHash {
  std::size_t operator()(const Key& key) const noexcept {
    return static_cast<std::size_t>(hash_span<std::uint64_t>(key));
  }
};

TEST(FlatKeySet, FreshThenDuplicate) {
  Arena arena;
  FlatKeySet set(arena, 3);
  const std::uint64_t a[3] = {1, 2, 3};
  const std::uint64_t b[3] = {1, 2, 4};
  const auto first = set.insert(a);
  EXPECT_TRUE(first.fresh);
  EXPECT_EQ(first.id, 0u);
  const auto second = set.insert(b);
  EXPECT_TRUE(second.fresh);
  EXPECT_EQ(second.id, 1u);
  const auto dup = set.insert(a);
  EXPECT_FALSE(dup.fresh);
  EXPECT_EQ(dup.id, 0u);
  EXPECT_EQ(set.size(), 2u);
}

TEST(FlatKeySet, KeysAreStableAcrossGrowth) {
  // Keys live inline in the slots and move on growth; what stays stable
  // is the id contract: ids are dense insertion indices, a key keeps its
  // id across every growth, and re-inserting it is a duplicate.
  Arena arena;
  FlatKeySet set(arena, 2, 16);
  for (std::uint64_t i = 0; i < 500; ++i) {
    const std::uint64_t words[2] = {i, i ^ 0xdeadbeefcafef00dULL};
    const auto r = set.insert(words);
    ASSERT_TRUE(r.fresh);
    ASSERT_EQ(r.id, i);  // dense: the i-th fresh key gets id i
  }
  ASSERT_GT(set.capacity(), 500u);  // grew several times
  for (std::uint64_t i = 0; i < 500; ++i) {
    const std::uint64_t words[2] = {i, i ^ 0xdeadbeefcafef00dULL};
    const auto r = set.insert(words);
    EXPECT_FALSE(r.fresh);
    EXPECT_EQ(r.id, i);
  }
  EXPECT_EQ(set.size(), 500u);
}

TEST(FlatKeySet, CollidingKeysStayDistinct) {
  // Keys differing only in the last word probe near each other under any
  // reasonable hash; all must survive growth without tombstone artifacts.
  Arena arena;
  FlatKeySet set(arena, 4, 16);
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const std::uint64_t words[4] = {7, 7, 7, i};
    ASSERT_TRUE(set.insert(words).fresh) << i;
  }
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const std::uint64_t words[4] = {7, 7, 7, i};
    const auto r = set.insert(words);
    ASSERT_FALSE(r.fresh);
    ASSERT_EQ(r.id, i);
  }
}

TEST(FlatKeySet, RandomizedDifferentialAgainstUnorderedSet) {
  // The searches' key distribution: short vectors of small, regular
  // values with many near-duplicates. FlatKeySet must agree with
  // std::unordered_set insert-for-insert.
  for (const std::uint64_t seed : {1ull, 42ull, 1234567ull}) {
    Xoshiro256ss rng(seed);
    const std::size_t stride = 2 + static_cast<std::size_t>(rng() % 7);
    Arena arena;
    FlatKeySet set(arena, stride);
    std::unordered_set<Key, KeyHash> reference;
    Key key(stride);
    for (std::size_t step = 0; step < 20'000; ++step) {
      for (auto& word : key)
        word = static_cast<std::uint64_t>(rng() % 8);  // dense duplicates
      const bool fresh_ref = reference.insert(key).second;
      const auto r = set.insert(key.data());
      ASSERT_EQ(r.fresh, fresh_ref) << "seed " << seed << " step " << step;
    }
    ASSERT_EQ(set.size(), reference.size());
    EXPECT_GT(arena.stats().high_water, 0u);
  }
}

}  // namespace
}  // namespace vermem
