#include "vsc/exact.hpp"

#include <algorithm>

#include "support/arena.hpp"
#include "support/state_codec.hpp"
#include "vmc/frontier.hpp"

namespace vermem::vsc {

namespace {

constexpr std::uint32_t kNone = 0xffffffffu;    ///< no address / value / lane
constexpr std::uint32_t kUnheld = 0xfffffffeu;  ///< a value no state holds

// The whole-execution policy of the frontier search (vmc/frontier.hpp):
// the VMC state widened to one current value per address, plus, under
// TSO/PSO, the store buffers. The execution is compiled once into the
// search's arena: addresses get dense ids in AddressIndex order, values
// get dense ids over the initial and written values (a read of any other
// value gets kUnheld and is never enabled), and each op becomes one
// record. The key packs, with a StateCodec, the k history positions,
// one value id per address, then one drained-store count per buffer
// lane (docs/ALGORITHMS.md §15).
//
// Buffers are not stored. A processor's plain writes form lanes that
// drain in program order: one lane per processor (TSO), or one per
// (processor, address) (PSO). Given the positions, the counts determine
// the buffer contents and vice versa. Choices: issue by processor p in
// [0, k), then k + p * slots + i drains processor p's buffered store at
// program index i, in program (= buffer) order.
class MemoryPolicy {
 public:
  MemoryPolicy(const AddressIndex& index, StoreBuffer buffer,
               bool eager_reads, Arena& arena)
      : buffered_(buffer != StoreBuffer::kNone),
        eager_(eager_reads && !buffered_) {
    const Execution& exec = index.execution();
    const std::span<const Addr> addresses = index.addresses();
    k_ = static_cast<std::uint32_t>(exec.num_processes());
    a_ = static_cast<std::uint32_t>(addresses.size());
    const auto addr_id = [&](Addr addr) {
      const auto it = std::lower_bound(addresses.begin(), addresses.end(), addr);
      return it != addresses.end() && *it == addr
                 ? static_cast<std::uint32_t>(it - addresses.begin())
                 : kNone;
    };

    Value* values = arena.allocate_array<Value>(exec.num_operations() + a_);
    std::size_t count = 0;
    for (const Addr addr : addresses) values[count++] = exec.initial_value(addr);
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

    // Field maxima: positions, value ids, then lane sizes (counted below).
    const std::uint32_t per_processor =
        buffer == StoreBuffer::kPerAddress ? a_ : buffered_ ? 1 : 0;
    lanes_ = k_ * per_processor;
    const std::size_t fields = k_ + a_ + lanes_;
    std::uint64_t* maxima = arena.allocate_array<std::uint64_t>(fields);
    std::fill_n(maxima, fields, 0);
    std::fill_n(maxima + k_, a_, count == 0 ? 0 : count - 1);
    std::uint64_t* lane_size = maxima + k_ + a_;
    // Per address: the index of the processor's latest plain write there.
    std::uint32_t* last = arena.allocate_array<std::uint32_t>(a_);

    histories_ = arena.allocate_array<History>(k_);
    Op* ops = arena.allocate_array<Op>(exec.num_operations());
    for (std::uint32_t p = 0; p < k_; ++p) {
      const auto& history = exec.history(p);
      const auto len = static_cast<std::uint32_t>(history.size());
      histories_[p] = {ops, len};
      maxima[p] = len;
      slots_ = std::max(slots_, len);
      std::fill_n(last, a_, kNone);
      for (std::uint32_t i = 0; i < len; ++i) {
        const Operation& op = history[i];
        Op& out = ops[i];
        out = Op{op.kind, op.is_sync() ? kNone : addr_id(op.addr),
                 op.reads_memory() ? id_of(op.value_read) : kNone,
                 op.writes_memory() ? id_of(op.value_written) : kNone,
                 kNone, 0, kNone};
        if (!buffered_) continue;
        if (op.kind == OpKind::kWrite) {
          out.lane = p * per_processor + (per_processor == 1 ? 0 : out.addr);
          out.ordinal = static_cast<std::uint32_t>(lane_size[out.lane]++);
          last[out.addr] = i;
        } else if (op.kind == OpKind::kRead && last[out.addr] != kNone) {
          // The store this read may forward from.
          const Op& source = ops[last[out.addr]];
          out.lane = source.lane;
          out.ordinal = source.ordinal;
          out.forward = source.write;
        }
      }
      ops += len;
    }

    finals_ = arena.allocate_array<Final>(exec.final_values().size());
    for (const auto& [addr, fin] : exec.final_values()) {
      // No schedule changes an address that no operation touches: its
      // final value is the initial one or unwritable.
      const std::uint32_t id = addr_id(addr);
      if (id != kNone)
        finals_[num_finals_++] = Final{id, id_of(fin), addr, fin};
      else if (fin != exec.initial_value(addr) && !unwritable_final_)
        unwritable_final_ = certify::unwritable_final(addr, fin);
    }

    codec_ = StateCodec(arena, {maxima, fields});
    const std::size_t words = codec_.words();
    start_ = arena.allocate_array<std::uint64_t>(3 * words);
    done_ = start_ + words;
    keep_ = done_ + words;
    std::fill_n(start_, 2 * words, 0);
    std::fill_n(keep_, words, ~std::uint64_t{0});
    for (std::size_t i = 0; i < fields; ++i) {
      const StateCodec::Field& f = codec_.field(i);
      if (i >= k_ && i < k_ + a_) {
        StateCodec::set(start_, f, id_of(exec.initial_value(addresses[i - k_])));
        keep_[f.word] &= ~(f.mask << f.shift);  // completion ignores values
      } else {
        StateCodec::set(done_, f, maxima[i]);
      }
    }
  }

  /// A final value on an untouched address that differs from its
  /// initial value refutes the trace before any search.
  [[nodiscard]] const std::optional<certify::Incoherence>& unwritable_final()
      const noexcept {
    return unwritable_final_;
  }

  [[nodiscard]] std::size_t words() const noexcept { return codec_.words(); }

  void start(std::uint64_t* key, Schedule* witness) const {
    std::copy_n(start_, words(), key);
    if (eager_) close_free_ops(key, witness);
  }

  std::uint32_t next(const std::uint64_t* key, std::uint32_t choice,
                     vmc::SearchStats&) const {
    for (; choice < k_; ++choice)
      if (can_issue(key, choice)) return choice;
    if (lanes_ == 0) return vmc::kNoChoice;
    // Drains: per processor, every lane's oldest buffered store, in
    // program order.
    for (std::uint32_t p = (choice - k_) / slots_, i = (choice - k_) % slots_;
         p < k_; ++p, i = 0) {
      for (const std::uint32_t pos = position(key, p); i < pos; ++i) {
        const Op& op = histories_[p].ops[i];
        if (op.kind == OpKind::kWrite && drained(key, op.lane) == op.ordinal)
          return k_ + p * slots_ + i;
      }
    }
    return vmc::kNoChoice;
  }

  void apply(std::uint64_t* key, std::uint32_t choice, Schedule* witness) const {
    if (choice >= k_) {
      const Op& op = histories_[(choice - k_) / slots_].ops[(choice - k_) % slots_];
      set_value(key, op.addr, op.write);
      StateCodec::increment(key, codec_.field(k_ + a_ + op.lane));
      return;
    }
    const std::uint32_t pos = position(key, choice);
    const Op& op = histories_[choice].ops[pos];
    if (witness != nullptr) witness->push_back(OpRef{choice, pos});
    StateCodec::increment(key, codec_.field(choice));
    // A plain write waits in its lane; an RMW (a fence) and every store
    // without buffers write memory at once.
    if (op.write != kNone && (op.kind == OpKind::kRmw || !buffered_))
      set_value(key, op.addr, op.write);
    if (eager_) close_free_ops(key, witness);
  }

  /// SC: every op scheduled. Store buffers: every op issued, every buffer
  /// drained and the finals met; a drained state that misses a final is
  /// remembered like any other and dies with no choice left.
  [[nodiscard]] bool complete(const std::uint64_t* key) const {
    for (std::size_t w = 0; w < words(); ++w)
      if ((key[w] & keep_[w]) != done_[w]) return false;
    return !buffered_ || missed_final(key) == nullptr;
  }
  [[nodiscard]] bool accept(const std::uint64_t* key) const {
    return buffered_ || missed_final(key) == nullptr;
  }

  /// A complete, rejected start state scheduled no write (only pure
  /// reads and sync ops were consumed), so its missed final value is
  /// unwritable.
  [[nodiscard]] certify::Incoherence refute(const std::uint64_t* key,
                                            const vmc::SearchStats& stats) const {
    if (key != nullptr) {
      const Final* f = missed_final(key);
      return certify::unwritable_final(f->raw_addr, f->raw_value);
    }
    return certify::search_exhaustion(0, stats.states_visited,
                                      stats.transitions);
  }

 private:
  struct Op {
    OpKind kind;
    std::uint32_t addr;   ///< dense address id; kNone for sync ops
    std::uint32_t read;   ///< value id the op must observe, or kNone
    std::uint32_t write;  ///< value id the op stores, or kNone
    /// A plain write's lane and its ordinal in it. A read carries those
    /// of the processor's latest earlier plain write to its address (the
    /// store it may forward from, whose value id is `forward`).
    std::uint32_t lane;
    std::uint32_t ordinal;
    std::uint32_t forward;
  };
  struct History {
    const Op* ops;
    std::uint32_t len;
  };
  struct Final {
    std::uint32_t addr;   ///< dense address id
    std::uint32_t value;  ///< value id; kUnheld when never written
    Addr raw_addr;
    Value raw_value;
  };

  [[nodiscard]] std::uint32_t position(const std::uint64_t* key,
                                       std::uint32_t p) const noexcept {
    return static_cast<std::uint32_t>(StateCodec::get(key, codec_.field(p)));
  }
  [[nodiscard]] std::uint32_t value(const std::uint64_t* key,
                                    std::uint32_t a) const noexcept {
    return static_cast<std::uint32_t>(StateCodec::get(key, codec_.field(k_ + a)));
  }
  void set_value(std::uint64_t* key, std::uint32_t a, std::uint32_t id) const {
    StateCodec::set(key, codec_.field(k_ + a), id);
  }
  [[nodiscard]] std::uint32_t drained(const std::uint64_t* key,
                                      std::uint32_t lane) const noexcept {
    return static_cast<std::uint32_t>(
        StateCodec::get(key, codec_.field(k_ + a_ + lane)));
  }
  /// The op's write (for a read: its forwarding source) is issued and
  /// still buffered.
  [[nodiscard]] bool in_buffer(const std::uint64_t* key, const Op& op) const {
    return op.lane != kNone && drained(key, op.lane) <= op.ordinal;
  }
  [[nodiscard]] bool buffer_empty(const std::uint64_t* key, std::uint32_t p,
                                  std::uint32_t pos) const {
    if (!buffered_) return true;
    for (std::uint32_t i = 0; i < pos; ++i) {
      const Op& op = histories_[p].ops[i];
      if (op.kind == OpKind::kWrite && in_buffer(key, op)) return false;
    }
    return true;
  }
  [[nodiscard]] const Final* missed_final(const std::uint64_t* key) const {
    for (const Final* f = finals_; f != finals_ + num_finals_; ++f)
      if (value(key, f->addr) != f->value) return f;
    return nullptr;
  }

  [[nodiscard]] bool can_issue(const std::uint64_t* key, std::uint32_t p) const {
    const std::uint32_t pos = position(key, p);
    if (pos == histories_[p].len) return false;
    const Op& op = histories_[p].ops[pos];
    // With eager reads, pure reads and sync ops are consumed by the
    // closure, so only writing operations branch.
    if (eager_ && op.write == kNone) return false;
    switch (op.kind) {
      case OpKind::kWrite:
        return true;
      case OpKind::kRead:
        // Store->load forwarding from the newest own buffered store to
        // the address, else the memory value.
        return (in_buffer(key, op) ? op.forward : value(key, op.addr)) == op.read;
      case OpKind::kRmw:
        // Atomics flush the buffer and act on memory directly.
        return buffer_empty(key, p, pos) && value(key, op.addr) == op.read;
      case OpKind::kAcquire:
      case OpKind::kRelease:
        return buffer_empty(key, p, pos);  // sync acts as a full fence
    }
    return false;
  }

  /// SC's eager closure: schedules enabled pure reads and sync ops.
  /// Neither changes any location's value, so the reordering argument of
  /// the VMC search applies per address; one pass suffices because the
  /// values stay fixed, so a read that stops a history's run stays
  /// disabled.
  void close_free_ops(std::uint64_t* key, Schedule* witness) const {
    for (std::uint32_t p = 0; p < k_; ++p) {
      const History& h = histories_[p];
      const std::uint32_t from = position(key, p);
      std::uint32_t pos = from;
      for (; pos < h.len && h.ops[pos].write == kNone; ++pos) {
        const Op& op = h.ops[pos];
        if (op.read != kNone && op.read != value(key, op.addr)) break;
        if (witness != nullptr) witness->push_back(OpRef{p, pos});
      }
      if (pos != from) StateCodec::set(key, codec_.field(p), pos);
    }
  }

  bool buffered_;
  bool eager_;
  std::uint32_t k_ = 0;
  std::uint32_t a_ = 0;
  std::uint32_t lanes_ = 0;
  std::uint32_t slots_ = 1;  ///< drain choices per processor
  History* histories_ = nullptr;
  Final* finals_ = nullptr;
  std::size_t num_finals_ = 0;
  std::optional<certify::Incoherence> unwritable_final_;
  StateCodec codec_;
  std::uint64_t* start_ = nullptr;  ///< positions 0, initial values
  std::uint64_t* done_ = nullptr;   ///< the complete key, values zeroed
  std::uint64_t* keep_ = nullptr;   ///< all ones except the value fields
};

}  // namespace

CheckResult check_memory_model(const AddressIndex& index, StoreBuffer buffer,
                               const ScOptions& options) {
  // The arena owns the compiled execution, the key scratch and every
  // visited key of this call.
  Arena arena;
  const MemoryPolicy policy(index, buffer, options.eager_reads, arena);
  if (const auto& why = policy.unwritable_final()) return CheckResult::no(*why);
  const vmc::SearchBudget budget{options.max_states, options.max_transitions,
                                 options.deadline, options.cancel};
  return vmc::FrontierSearch(policy, budget, options.memoize, arena).run();
}

CheckResult check_sc_exact(const Execution& exec, const ScOptions& options) {
  return check_memory_model(AddressIndex(exec), StoreBuffer::kNone, options);
}

CheckResult check_sc_exact(const AddressIndex& index, const ScOptions& options) {
  return check_memory_model(index, StoreBuffer::kNone, options);
}

}  // namespace vermem::vsc
