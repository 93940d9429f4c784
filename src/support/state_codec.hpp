#pragma once
// Bit-packed search-state keys for the frontier searches.
//
// A frontier-search state is a fixed tuple of small counters: one
// position per history plus the id of the location's current value.
// StateCodec lays those fields out once per search, each exactly
// `bit_width(max)` bits wide, into W 64-bit words. Fields are placed in
// order and never straddle a word: a field that does not fit in the
// current word's remaining bits starts the next one. A field whose
// maximum is 0 takes no bits at all (mask 0, always reads 0).
//
// The packed key is then the state itself: advancing a history is one
// add of `1 << shift` (positions never exceed their maximum, so the
// add cannot carry into a neighbour), replacing the value is one
// masked store, and two states are equal iff their W words are. W is 1
// whenever the fields total at most 64 bits (docs/ALGORITHMS.md §12).
//
// The field table lives in the caller's Arena, so building a codec costs
// no system allocation.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "support/arena.hpp"

namespace vermem {

class StateCodec {
 public:
  struct Field {
    std::uint32_t word = 0;   ///< index of the key word holding the field
    std::uint32_t shift = 0;  ///< bit offset inside that word
    std::uint64_t mask = 0;   ///< low `bit_width(max)` bits, unshifted
  };

  /// A one-word codec without fields, to be assigned a real layout.
  StateCodec() = default;

  /// One field per entry of `maxima`, wide enough for 0..maxima[i].
  StateCodec(Arena& arena, std::span<const std::uint64_t> maxima)
      : fields_(arena.allocate_array<Field>(maxima.size())) {
    std::uint32_t word = 0;
    std::uint32_t used = 0;
    for (std::size_t i = 0; i < maxima.size(); ++i) {
      const auto width = static_cast<std::uint32_t>(std::bit_width(maxima[i]));
      Field& field = fields_[i];
      if (width == 0) {
        field = Field{};
        continue;
      }
      if (used + width > 64) {
        ++word;
        used = 0;
      }
      field.word = word;
      field.shift = used;
      field.mask = width == 64 ? ~std::uint64_t{0}
                               : (std::uint64_t{1} << width) - 1;
      used += width;
    }
    words_ = word + 1;
  }

  /// Key length in 64-bit words (at least 1).
  [[nodiscard]] std::size_t words() const noexcept { return words_; }
  [[nodiscard]] const Field& field(std::size_t i) const noexcept {
    return fields_[i];
  }

  [[nodiscard]] static std::uint64_t get(const std::uint64_t* key,
                                         const Field& f) noexcept {
    return (key[f.word] >> f.shift) & f.mask;
  }

  /// Increments a field that is below its maximum.
  static void increment(std::uint64_t* key, const Field& f) noexcept {
    key[f.word] += std::uint64_t{1} << f.shift;
  }

  static void set(std::uint64_t* key, const Field& f,
                  std::uint64_t value) noexcept {
    key[f.word] = (key[f.word] & ~(f.mask << f.shift)) | (value << f.shift);
  }

 private:
  Field* fields_ = nullptr;
  std::size_t words_ = 1;
};

}  // namespace vermem
