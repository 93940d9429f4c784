#pragma once
// A VMC instance compiled for the frontier searches (vmc/exact.cpp,
// vmc/bounded.cpp): every operation becomes a 12-byte record of dense
// value ids, and a search state — one position per history plus the
// current value — becomes a StateCodec key of W 64-bit words (W = 1
// whenever the fields fit 64 bits; docs/ALGORITHMS.md §12).
//
// Value ids are dense over the values a state can hold: the initial
// value plus every written value. A read of any other value compiles to
// kUnheld, which no state's value field ever equals, so such a read is
// simply never enabled.
//
// Everything is allocated from the search's Arena; compiling costs one
// sort over the written values and no system allocation of its own.

#include <algorithm>
#include <cstdint>
#include <span>

#include "support/arena.hpp"
#include "support/state_codec.hpp"
#include "vmc/instance.hpp"

namespace vermem::vmc {

class PackedInstance {
 public:
  /// "Does not read", "does not write", or "no final-value constraint".
  static constexpr std::uint32_t kNone = 0xffffffffu;
  /// A value no state holds: never written and not the initial value.
  static constexpr std::uint32_t kUnheld = 0xfffffffeu;

  struct Op {
    std::uint32_t read;   ///< value id the op must observe, or kNone
    std::uint32_t write;  ///< value id the op stores; kNone for pure reads
    /// For a pure read: the length of the run of consecutive pure reads
    /// of the same value starting here (so the eager read closure
    /// consumes a whole run at once); 0 for every other op.
    std::uint32_t run;
  };

  struct History {
    /// len ops plus one sentinel at ops[len] that is never enabled (it
    /// reads kUnheld and writes nothing), so scans need no bounds check.
    const Op* ops;
    std::uint32_t len;
    StateCodec::Field position;  ///< the history's field in the key
  };

  /// `instance` must be well-formed (see VmcInstance::malformed()).
  PackedInstance(const VmcInstance& instance, Arena& arena)
      : k_(instance.num_histories()),
        histories_(arena.allocate_array<History>(k_)),
        codec_(arena, compile(instance, arena)),
        value_field_(codec_.field(k_)),
        initial_(arena.allocate_array<std::uint64_t>(codec_.words())),
        done_(arena.allocate_array<std::uint64_t>(codec_.words())),
        keep_(arena.allocate_array<std::uint64_t>(codec_.words())) {
    for (std::size_t w = 0; w < codec_.words(); ++w) {
      initial_[w] = 0;
      done_[w] = 0;
      keep_[w] = ~std::uint64_t{0};
    }
    StateCodec::set(initial_, value_field_, initial_id_);
    // The complete key: every position at its history's length, the
    // value field 0 and masked out by keep_.
    for (std::size_t p = 0; p < k_; ++p) {
      histories_[p].position = codec_.field(p);
      StateCodec::set(done_, histories_[p].position, histories_[p].len);
    }
    keep_[value_field_.word] &= ~(value_field_.mask << value_field_.shift);
  }

  [[nodiscard]] std::size_t num_histories() const noexcept { return k_; }
  [[nodiscard]] std::size_t words() const noexcept { return codec_.words(); }
  [[nodiscard]] const History& history(std::size_t p) const noexcept {
    return histories_[p];
  }
  /// The start state: every position 0, the initial value's id.
  [[nodiscard]] const std::uint64_t* initial_key() const noexcept {
    return initial_;
  }

  [[nodiscard]] static std::uint32_t position(const std::uint64_t* key,
                                              const History& h) noexcept {
    return static_cast<std::uint32_t>(StateCodec::get(key, h.position));
  }
  [[nodiscard]] std::uint32_t value(const std::uint64_t* key) const noexcept {
    return static_cast<std::uint32_t>(StateCodec::get(key, value_field_));
  }

  /// Schedules the op at history h's position: advances the position and
  /// stores the op's written value, if any.
  void apply(std::uint64_t* key, const History& h, const Op& op) const noexcept {
    StateCodec::increment(key, h.position);
    if (op.write != kNone) StateCodec::set(key, value_field_, op.write);
  }

  /// Every history fully scheduled: one masked compare per key word.
  [[nodiscard]] bool complete(const std::uint64_t* key) const noexcept {
    for (std::size_t w = 0; w < codec_.words(); ++w)
      if ((key[w] & keep_[w]) != done_[w]) return false;
    return true;
  }

  /// The state's value satisfies the recorded final value, if any.
  [[nodiscard]] bool final_ok(const std::uint64_t* key) const noexcept {
    return final_id_ == kNone || value(key) == final_id_;
  }

 private:
  /// Fills histories_' op tables and the value ids; returns the codec's
  /// field maxima (k positions, then the value id).
  std::span<const std::uint64_t> compile(const VmcInstance& instance,
                                         Arena& arena) {
    const Execution& exec = instance.execution;
    const std::size_t n = exec.num_operations();
    Value* values = arena.allocate_array<Value>(n + 1);
    std::size_t count = 0;
    values[count++] = instance.initial_value();
    for (const auto& history : exec.histories())
      for (const Operation& op : history)
        if (op.writes_memory()) values[count++] = op.value_written;
    std::sort(values, values + count);
    count = static_cast<std::size_t>(std::unique(values, values + count) - values);
    const auto id_of = [&](Value v) {
      const Value* it = std::lower_bound(values, values + count, v);
      return it != values + count && *it == v
                 ? static_cast<std::uint32_t>(it - values)
                 : kUnheld;
    };

    Op* ops = arena.allocate_array<Op>(n + k_);
    std::uint64_t* maxima = arena.allocate_array<std::uint64_t>(k_ + 1);
    for (std::size_t p = 0; p < k_; ++p) {
      const auto& history = exec.history(p);
      const auto len = static_cast<std::uint32_t>(history.size());
      Op* row = ops;
      histories_[p].ops = row;
      histories_[p].len = len;
      maxima[p] = len;
      for (const Operation& op : history)
        *ops++ = Op{op.reads_memory() ? id_of(op.value_read) : kNone,
                    op.writes_memory() ? id_of(op.value_written) : kNone, 0};
      *ops++ = Op{kUnheld, kNone, 0};  // the sentinel
      for (std::uint32_t i = len; i-- > 0;)
        if (row[i].write == kNone)
          row[i].run = row[i + 1].write == kNone && row[i + 1].read == row[i].read
                           ? row[i + 1].run + 1
                           : 1;
    }
    maxima[k_] = count - 1;
    initial_id_ = id_of(instance.initial_value());
    const auto fin = instance.final_value();
    final_id_ = fin ? id_of(*fin) : kNone;
    return {maxima, k_ + 1};
  }

  std::size_t k_;
  History* histories_;
  std::uint32_t initial_id_ = 0;  ///< set by compile()
  std::uint32_t final_id_ = kNone;
  StateCodec codec_;
  StateCodec::Field value_field_;
  std::uint64_t* initial_;
  std::uint64_t* done_;  ///< the complete key, value field zeroed
  std::uint64_t* keep_;  ///< all ones except the value field
};

}  // namespace vermem::vmc
