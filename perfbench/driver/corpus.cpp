#include "corpus.hpp"

#include <algorithm>
#include <array>
#include <iterator>
#include <span>
#include <thread>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "analysis/router.hpp"
#include "certify/certificate.hpp"
#include "certify/check.hpp"
#include "models/litmus.hpp"
#include "sim/machine.hpp"
#include "sim/program.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "trace/address_index.hpp"
#include "trace/binary_io.hpp"
#include "trace/text_io.hpp"
#include "workload/random.hpp"

namespace perfbench {

using namespace vermem;
using service::CheckMode;
using service::SolverChoice;
using vmc::Verdict;

const char* to_string(Workload workload) noexcept {
  switch (workload) {
    case Workload::kFleet: return "fleet";
    case Workload::kHard: return "hard";
    case Workload::kStream: return "stream";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : {Workload::kFleet, Workload::kHard, Workload::kStream})
    if (name == to_string(w)) return w;
  return std::nullopt;
}

namespace {

// Corpus sizes. The timed loop cycles through `timed`, so a corpus only
// has to be large enough that per-seed differences average out.
constexpr std::size_t kFleetTimed = 4096;
constexpr std::size_t kFleetWarmup = 1024;
// Resubmissions sit 16..256 requests after their original: beyond the
// 12-request in-flight window, well inside the service's 1024-entry LRU.
constexpr std::size_t kResubmitMin = 16;
constexpr std::size_t kResubmitMax = 256;
constexpr std::size_t kHardTimed = 640;
constexpr std::size_t kHardWarmup = 48;
constexpr std::size_t kStreamTimed = 64;
constexpr std::size_t kStreamWarmup = 16;

/// A read value no generator ever writes (generated values stay small,
/// fresh-value counters stay far below it).
constexpr Value kPlantedValue = Value{1} << 40;

std::size_t uniform_in(Xoshiro256ss& rng, std::size_t lo, std::size_t hi) {
  return lo + static_cast<std::size_t>(rng.below(hi - lo + 1));
}

/// Rebuilds `exec` with one read (R or RW) returning a value that no
/// write produces and that is not any location's initial value, so the
/// trace is incoherent whatever else it contains.
Execution plant_unwritten_read(const Execution& exec, Xoshiro256ss& rng) {
  std::vector<OpRef> reads;
  for (std::uint32_t p = 0; p < exec.num_processes(); ++p)
    for (std::uint32_t i = 0; i < exec.history(p).size(); ++i)
      if (exec.history(p)[i].reads_memory()) reads.push_back(OpRef{p, i});
  if (reads.empty()) throw std::runtime_error("no read to plant into");
  const OpRef target = reads[rng.below(reads.size())];

  Execution out;
  for (std::uint32_t p = 0; p < exec.num_processes(); ++p) {
    std::vector<Operation> ops = exec.history(p).ops();
    if (p == target.process) ops[target.index].value_read = kPlantedValue;
    out.add_history(ProcessHistory{std::move(ops)});
  }
  for (const auto& [addr, value] : exec.initial_values())
    out.set_initial_value(addr, value);
  for (const auto& [addr, value] : exec.final_values())
    out.set_final_value(addr, value);
  return out;
}

/// The execution made of the first `length` operations of `witness`:
/// per-process prefixes of `exec`, sequentially consistent with the
/// witness prefix as schedule, final values taken from that prefix.
Execution witness_prefix(const Execution& exec, const Schedule& witness,
                         std::size_t length) {
  std::vector<std::size_t> count(exec.num_processes(), 0);
  std::unordered_map<Addr, Value> last_write;
  for (std::size_t s = 0; s < length; ++s) {
    const Operation& op = exec.op(witness[s]);
    ++count[witness[s].process];
    if (op.writes_memory()) last_write[op.addr] = op.value_written;
  }
  Execution out;
  for (std::size_t p = 0; p < exec.num_processes(); ++p) {
    const auto& ops = exec.history(p).ops();
    out.add_history(ProcessHistory{std::vector<Operation>(
        ops.begin(), ops.begin() + static_cast<std::ptrdiff_t>(count[p]))});
  }
  for (const auto& [addr, value] : exec.initial_values())
    out.set_initial_value(addr, value);
  for (const auto& [addr, value] : last_write) out.set_final_value(addr, value);
  return out;
}

Item encode_item(const Execution& exec, const vmc::WriteOrderMap* orders,
                 Format format) {
  Item item;
  item.format = format;
  item.ops = exec.num_operations();
  if (format == Format::kVmtb) {
    item.bytes = encode_binary(exec, orders);
  } else {
    item.bytes = serialize_execution(exec);
    if (orders) item.wo_text = serialize_write_orders(*orders);
  }
  return item;
}

Format coin_format(Xoshiro256ss& rng) {
  return rng.chance(0.5) ? Format::kVmtb : Format::kText;
}

// --- fleet -----------------------------------------------------------

workload::GeneratedMultiTrace fleet_trace(Xoshiro256ss& rng) {
  workload::MultiAddressParams params;
  params.num_processes = uniform_in(rng, 2, 4);
  params.ops_per_process = uniform_in(rng, 32, 80);
  params.num_addresses = uniform_in(rng, 4, 8);
  params.num_values = 6;
  params.rmw_fraction = 0.05;
  return workload::generate_sc(params, rng);
}

/// A MESI run with protocol faults; its verdict is decided here once
/// and accepted only with certificates that all check. Returns nullopt
/// when some address stays undecided (the caller draws another).
std::optional<Item> fleet_sim_item(Xoshiro256ss& rng) {
  sim::RandomProgramParams params;
  params.num_cores = uniform_in(rng, 2, 4);
  params.requests_per_core = uniform_in(rng, 32, 80);
  params.num_addresses = uniform_in(rng, 4, 8);
  const auto programs = sim::random_programs(params, rng);
  sim::SimConfig config;
  config.num_cores = params.num_cores;
  config.cache_lines = 4;
  config.seed = rng();
  config.faults.drop_invalidation = 0.05;
  config.faults.stale_fill = 0.05;
  const sim::SimResult run = sim::run_programs(programs, config);

  const AddressIndex index(run.execution);
  const analysis::RoutedReport routed = analysis::verify_coherence_routed(index);
  if (routed.report.verdict == Verdict::kUnknown) return std::nullopt;
  for (const auto& address : routed.report.addresses) {
    const certify::Certificate cert = certify::from_result(
        certify::Scope::kAddress, address.addr, address.result);
    if (!certify::check(run.execution, cert))
      throw std::runtime_error("simulator trace certificate rejected");
  }
  Item item = encode_item(run.execution, nullptr, coin_format(rng));
  item.expected = routed.report.verdict;
  item.klass = "sim";
  return item;
}

Item fleet_item(Xoshiro256ss& rng) {
  const std::uint64_t pick = rng.below(16);
  if (pick < 2) {  // 1/8 fault-injected simulator traces
    while (true)
      if (auto item = fleet_sim_item(rng)) return std::move(*item);
  }
  const auto trace = fleet_trace(rng);
  const Format format = coin_format(rng);
  if (pick == 2) {  // 1/16 planted never-written reads
    Item item = encode_item(plant_unwritten_read(trace.execution, rng),
                            nullptr, format);
    item.expected = Verdict::kIncoherent;
    item.klass = "planted";
    return item;
  }
  if (pick < 7) {  // 1/4 with write-order logs (Section 5.2 path)
    Item item = encode_item(trace.execution, &trace.write_orders, format);
    item.klass = "write-order";
    return item;
  }
  Item item = encode_item(trace.execution, nullptr, format);
  item.klass = "plain";
  return item;
}

std::vector<Item> fleet_list(Xoshiro256ss& rng, std::size_t count) {
  std::vector<Item> items;
  items.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i >= kResubmitMax && rng.chance(0.1)) {
      const std::size_t back = uniform_in(rng, kResubmitMin, kResubmitMax);
      Item copy = items[i - back];
      copy.klass = "resubmit";
      copy.resubmit_of = static_cast<std::int64_t>(i - back);
      items.push_back(std::move(copy));
      continue;
    }
    items.push_back(fleet_item(rng));
  }
  return items;
}

// --- hard ------------------------------------------------------------

struct HardState {
  std::vector<models::LitmusTest> litmus = models::standard_litmus_suite();
  std::size_t next_litmus = 0;
  /// Full trace whose witness prefix was the last vscc request.
  std::optional<Execution> pending_extension;
};

constexpr std::size_t kHardMinOps = 16;
constexpr std::size_t kHardMaxOps = 24;

/// 6 processes of `ops_per_process` operations (drawn from
/// [kHardMinOps, kHardMaxOps] when 0) on one address with two values.
Execution hard_coherence_trace(Xoshiro256ss& rng, std::size_t ops_per_process = 0) {
  workload::MultiAddressParams params;
  params.num_processes = 6;
  params.ops_per_process = ops_per_process != 0
                               ? ops_per_process
                               : uniform_in(rng, kHardMinOps, kHardMaxOps);
  params.num_addresses = 1;
  params.num_values = 2;
  params.rmw_fraction = 0.2;
  return workload::generate_sc(params, rng).execution;
}

/// The benchmark's own hardness yardstick for the single-address hard
/// traces: how many states a memoized depth-first search for a coherent
/// schedule visits (processes tried in index order, reads of the current
/// value taken eagerly), stopping at `cap`. It lives here rather than in
/// src/ so that the corpus stays a function of the seed alone: selecting
/// traces by the checkers' own effort would undo, in the corpus, any
/// speed-up a change to those checkers makes.
class ReferenceSearch {
 public:
  ReferenceSearch(const Execution& exec, std::uint64_t cap)
      : exec_(exec), cap_(cap), pos_(exec.num_processes(), 0),
        value_(exec.initial_value(0)), final_(exec.final_value(0)),
        slots_(std::size_t{1} << 12, 0) {}

  /// States visited; `cap` or more when the search was cut off.
  std::uint64_t run() {
    (void)visit();
    return size_;
  }

 private:
  bool visit() {
    if (size_ >= cap_) return true;
    const std::vector<std::uint32_t> saved = pos_;
    for (bool moved = true; moved;) {
      moved = false;
      for (std::size_t p = 0; p < pos_.size(); ++p)
        while (pos_[p] < exec_.history(p).size() &&
               exec_.history(p)[pos_[p]].kind == OpKind::kRead &&
               exec_.history(p)[pos_[p]].value_read == value_) {
          ++pos_[p];
          moved = true;
        }
    }
    const bool found = branch();
    pos_ = saved;
    return found;
  }

  bool branch() {
    std::uint64_t key = static_cast<std::uint64_t>(value_) << 48;
    for (std::size_t p = 0; p < pos_.size(); ++p)
      key |= std::uint64_t{pos_[p]} << (8 * p);
    if (!insert(key)) return false;
    bool done = true;
    for (std::size_t p = 0; p < pos_.size(); ++p) {
      if (pos_[p] == exec_.history(p).size()) continue;
      done = false;
      const Operation& op = exec_.history(p)[pos_[p]];
      if (op.reads_memory() && op.value_read != value_) continue;
      const Value before = value_;
      if (op.writes_memory()) value_ = op.value_written;
      ++pos_[p];
      if (visit()) return true;
      --pos_[p];
      value_ = before;
    }
    return done && (!final_ || *final_ == value_);
  }

  /// Open-addressing set of state keys; false when already present.
  bool insert(std::uint64_t key) {
    const std::uint64_t stored = key + 1;  // 0 marks an empty slot
    std::size_t mask = slots_.size() - 1;
    for (std::size_t i = mix64(key) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == stored) return false;
      if (slots_[i] == 0) {
        slots_[i] = stored;
        break;
      }
    }
    if (++size_ * 2 > slots_.size()) {
      std::vector<std::uint64_t> old(slots_.size() * 2, 0);
      old.swap(slots_);
      mask = slots_.size() - 1;
      for (std::uint64_t value : old) {
        if (value == 0) continue;
        std::size_t i = mix64(value - 1) & mask;
        while (slots_[i] != 0) i = (i + 1) & mask;
        slots_[i] = value;
      }
    }
    return true;
  }

  const Execution& exec_;
  std::uint64_t cap_;
  std::vector<std::uint32_t> pos_;
  Value value_;
  std::optional<Value> final_;
  std::vector<std::uint64_t> slots_;
  std::uint64_t size_ = 0;
};

/// Hardness strata for the certified coherence requests, on the
/// ReferenceSearch state count: octaves below 2^14, half-octaves to
/// 2^17, quarter-octaves to the 2^20 cap. `draws` is how many of 3000
/// natural draws of hard_coherence_trace fell in each stratum (2 were
/// over the cap). Drawing every seed's corpus to these proportions keeps
/// the whole hardness profile, and with it the median and the heavy
/// tail that sets p99, the same from seed to seed.
struct Stratum {
  double lo_log2 = 0;
  int draws = 0;
};
constexpr Stratum kStrata[] = {
    {0.0, 280},   {6.0, 633},   {7.0, 561},   {8.0, 437},   {9.0, 279},
    {10.0, 185},  {11.0, 109},  {12.0, 69},   {13.0, 69},   {14.0, 23},
    {14.5, 22},   {15.0, 28},   {15.5, 39},   {16.0, 43},   {16.5, 33},
    {17.0, 24},   {17.25, 18},  {17.5, 19},   {17.75, 25},  {18.0, 20},
    {18.25, 16},  {18.5, 24},   {18.75, 15},  {19.0, 12},   {19.25, 10},
    {19.5, 5},
};
constexpr double kStateCapLog2 = 20.0;

double stratum_top_log2(std::size_t i) {
  return i + 1 < std::size(kStrata) ? kStrata[i + 1].lo_log2 : kStateCapLog2;
}

/// Stratum index of a state count, or -1 at or over the cap.
int stratum_of(std::uint64_t states) {
  const double lg = states == 0 ? 0.0 : std::log2(static_cast<double>(states));
  if (lg >= kStateCapLog2) return -1;
  int stratum = 0;
  for (std::size_t i = 0; i < std::size(kStrata); ++i)
    if (lg >= kStrata[i].lo_log2) stratum = static_cast<int>(i);
  return stratum;
}

/// Splits `count` over the strata in proportion to their draws
/// (largest-remainder rounding, so the quotas sum to `count`).
std::vector<std::size_t> stratum_quotas(std::size_t count) {
  double total = 0;
  for (const Stratum& stratum : kStrata) total += stratum.draws;
  std::vector<std::size_t> quotas(std::size(kStrata), 0);
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t given = 0;
  for (std::size_t i = 0; i < std::size(kStrata); ++i) {
    const double exact = kStrata[i].draws * static_cast<double>(count) / total;
    quotas[i] = static_cast<std::size_t>(exact);
    given += quotas[i];
    remainders.emplace_back(exact - static_cast<double>(quotas[i]), i);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; given < count; ++i, ++given) ++quotas[remainders[i].second];
  return quotas;
}

/// `count` certified-coherence traces drawn to the kStrata profile. Candidates are generated in order from `rng`, measured in
/// parallel (ReferenceSearch is deterministic), and accepted in
/// candidate order while their stratum has room, so the result depends
/// on the seed only. A candidate is searched only up to the top of the
/// highest stratum that still has room.
std::vector<Execution> stratified_coherence_traces(Xoshiro256ss& rng,
                                                   std::size_t count) {
  std::vector<std::size_t> room = stratum_quotas(count);

  constexpr std::size_t kBatch = 48;
  constexpr std::size_t kThreads = 3;
  std::vector<Execution> accepted;
  while (accepted.size() < count) {
    double cap_log2 = 0;
    for (std::size_t i = 0; i < room.size(); ++i)
      if (room[i] != 0) cap_log2 = stratum_top_log2(i);
    const auto cap = static_cast<std::uint64_t>(std::exp2(cap_log2));
    std::vector<Execution> batch;
    for (std::size_t i = 0; i < kBatch; ++i)
      batch.push_back(hard_coherence_trace(rng));
    std::vector<int> strata(batch.size(), -1);
    {
      std::vector<std::thread> threads;
      for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
          for (std::size_t i = t; i < batch.size(); i += kThreads) {
            const std::uint64_t states = ReferenceSearch(batch[i], cap).run();
            strata[i] = states >= cap ? -1 : stratum_of(states);
          }
        });
      for (auto& thread : threads) thread.join();
    }
    for (std::size_t i = 0; i < batch.size() && accepted.size() < count; ++i) {
      if (strata[i] < 0 || room[static_cast<std::size_t>(strata[i])] == 0)
        continue;
      --room[static_cast<std::size_t>(strata[i])];
      accepted.push_back(std::move(batch[i]));
    }
  }
  // Acceptance order front-loads the common light traces; shuffle so the
  // heavy ones spread over the corpus.
  rng.shuffle(std::span<Execution>(accepted));
  return accepted;
}

workload::GeneratedMultiTrace hard_small_trace(Xoshiro256ss& rng) {
  workload::MultiAddressParams params;
  params.num_processes = 4;
  params.ops_per_process = 8;
  params.num_addresses = 2;
  params.num_values = 3;
  return workload::generate_sc(params, rng);
}

Item hard_vscc_item(Xoshiro256ss& rng, HardState& state) {
  Item item;
  if (state.pending_extension) {
    item = encode_item(*state.pending_extension, nullptr, coin_format(rng));
    state.pending_extension.reset();
    item.klass = "vscc-extension";
  } else {
    const auto trace = hard_small_trace(rng);
    const std::size_t prefix = trace.witness.size() * 3 / 4;
    item = encode_item(witness_prefix(trace.execution, trace.witness, prefix),
                       nullptr, coin_format(rng));
    state.pending_extension = trace.execution;
    item.klass = "vscc-fresh";
  }
  item.mode = CheckMode::kVscc;
  return item;
}

Item hard_model_item(Xoshiro256ss& rng, HardState& state, models::Model model) {
  Item item;
  if (rng.below(4) == 0) {
    const models::LitmusTest& test =
        state.litmus[state.next_litmus++ % state.litmus.size()];
    item = encode_item(test.execution, nullptr, coin_format(rng));
    item.expected = test.allowed_under(model) ? Verdict::kCoherent
                                              : Verdict::kIncoherent;
    item.klass = model == models::Model::kTso ? "tso-litmus" : "pso-litmus";
  } else {
    item = encode_item(hard_small_trace(rng).execution, nullptr,
                       coin_format(rng));
    item.klass = model == models::Model::kTso ? "tso" : "pso";
  }
  item.mode = CheckMode::kConsistency;
  item.model = model;
  return item;
}

/// Class pattern of one block of eight hard requests: 5 coherence
/// (4 certified, 1 forced to CDCL, counted per block of five coherence
/// requests), 1 vscc, 1 TSO, 1 PSO, shuffled within the block.
enum class HardClass : std::uint8_t { kCoherence, kVscc, kTso, kPso };

std::vector<Item> hard_list(Xoshiro256ss& rng, std::size_t count) {
  std::vector<HardClass> classes;
  while (classes.size() < count) {
    std::array<HardClass, 8> block{HardClass::kCoherence, HardClass::kCoherence,
                                   HardClass::kCoherence, HardClass::kCoherence,
                                   HardClass::kCoherence, HardClass::kVscc,
                                   HardClass::kTso, HardClass::kPso};
    rng.shuffle(std::span<HardClass>(block));
    classes.insert(classes.end(), block.begin(), block.end());
  }
  classes.resize(count);
  std::vector<bool> cdcl;
  std::size_t coherence = 0;
  for (HardClass c : classes) coherence += c == HardClass::kCoherence;
  while (cdcl.size() < coherence) {
    std::array<bool, 5> block{true, false, false, false, false};
    rng.shuffle(std::span<bool>(block));
    cdcl.insert(cdcl.end(), block.begin(), block.end());
  }
  std::size_t certified = 0;
  for (std::size_t i = 0; i < coherence; ++i) certified += !cdcl[i];
  std::vector<Execution> certified_traces =
      stratified_coherence_traces(rng, certified);
  // CDCL time grows steeply with trace length, so the forced-CDCL
  // requests take every length in turn rather than a random one.
  std::vector<std::size_t> cdcl_lengths;
  while (cdcl_lengths.size() < coherence - certified) {
    std::array<std::size_t, kHardMaxOps - kHardMinOps + 1> lengths{};
    for (std::size_t i = 0; i < lengths.size(); ++i) lengths[i] = kHardMinOps + i;
    rng.shuffle(std::span<std::size_t>(lengths));
    cdcl_lengths.insert(cdcl_lengths.end(), lengths.begin(), lengths.end());
  }

  HardState state;
  std::vector<Item> items;
  items.reserve(count);
  std::size_t next_coherence = 0;
  std::size_t next_certified = 0;
  std::size_t next_cdcl = 0;
  for (HardClass c : classes) {
    switch (c) {
      case HardClass::kCoherence: {
        Item item;
        if (cdcl[next_coherence++]) {
          item = encode_item(hard_coherence_trace(rng, cdcl_lengths[next_cdcl++]),
                             nullptr, coin_format(rng));
          item.solver = SolverChoice::kCdcl;
          item.klass = "coherence-cdcl";
        } else {
          item = encode_item(certified_traces[next_certified++], nullptr,
                             coin_format(rng));
          item.certify = true;
          item.klass = "coherence-certified";
        }
        items.push_back(std::move(item));
        break;
      }
      case HardClass::kVscc: items.push_back(hard_vscc_item(rng, state)); break;
      case HardClass::kTso:
        items.push_back(hard_model_item(rng, state, models::Model::kTso));
        break;
      case HardClass::kPso:
        items.push_back(hard_model_item(rng, state, models::Model::kPso));
        break;
    }
  }
  return items;
}

// --- stream ----------------------------------------------------------

/// A shuffled list of the `count` stratum midpoints (q + 0.5) / count.
std::vector<double> stratified_quantiles(Xoshiro256ss& rng, std::size_t count) {
  std::vector<double> quantiles(count);
  for (std::size_t i = 0; i < count; ++i)
    quantiles[i] = (static_cast<double>(i) + 0.5) / static_cast<double>(count);
  rng.shuffle(std::span<double>(quantiles));
  return quantiles;
}

/// `count` VMTB traces, half encoded ordered from the generating
/// witness (online mode) and half canonical (complete mode). Within
/// each half the operation count (log-uniform over [1e4, 1e5]), the
/// address count (log-uniform over [64, 1024]), the process count
/// (2..8) and the planted reads (one in 16) are stratified rather than
/// drawn independently, so every seed streams the same size profile in
/// both modes and only the content varies.
std::vector<Item> stream_list(Xoshiro256ss& rng, std::size_t count) {
  std::vector<Item> items;
  items.reserve(count);
  for (const bool ordered : {true, false}) {
    const std::size_t half = ordered ? (count + 1) / 2 : count / 2;
    const std::vector<double> size_q = stratified_quantiles(rng, half);
    const std::vector<double> addr_q = stratified_quantiles(rng, half);
    const std::vector<double> procs_q = stratified_quantiles(rng, half);
    const std::vector<double> plant_q = stratified_quantiles(rng, half);
    for (std::size_t i = 0; i < half; ++i) {
      workload::MultiAddressParams params;
      params.num_processes = 2 + static_cast<std::size_t>(procs_q[i] * 7.0);
      params.ops_per_process = static_cast<std::size_t>(
          std::pow(10.0, 4.0 + size_q[i]) /
          static_cast<double>(params.num_processes));
      params.num_addresses =
          static_cast<std::size_t>(std::pow(2.0, 6.0 + 4.0 * addr_q[i]));
      params.num_values = 0;  // fresh values: every address routes poly
      auto trace = workload::generate_sc(params, rng);
      const bool planted = plant_q[i] < 1.0 / 16.0;
      if (planted)
        trace.execution = plant_unwritten_read(trace.execution, rng);
      Item item;
      item.format = Format::kVmtb;
      item.streamed = true;
      item.ops = trace.execution.num_operations();
      item.bytes = ordered ? encode_binary_ordered(trace.execution, trace.witness)
                           : encode_binary(trace.execution);
      item.expected = planted ? Verdict::kIncoherent : Verdict::kCoherent;
      item.klass = ordered ? (planted ? "ordered-planted" : "ordered")
                           : (planted ? "complete-planted" : "complete");
      items.push_back(std::move(item));
    }
  }
  // Interleave the two modes.
  std::vector<Item> mixed;
  mixed.reserve(items.size());
  const std::size_t first_half = (count + 1) / 2;
  for (std::size_t i = 0; i < first_half; ++i) {
    mixed.push_back(std::move(items[i]));
    if (first_half + i < items.size()) mixed.push_back(std::move(items[first_half + i]));
  }
  return mixed;
}

void digest_items(std::uint64_t& digest, const std::vector<Item>& items) {
  for (const Item& item : items) {
    hash_combine(digest, static_cast<std::uint64_t>(item.format));
    hash_combine(digest, static_cast<std::uint64_t>(item.mode));
    hash_combine(digest, static_cast<std::uint64_t>(item.model));
    hash_combine(digest, static_cast<std::uint64_t>(item.solver));
    hash_combine(digest, item.certify ? 1 : 0);
    hash_combine(digest, item.streamed ? 1 : 0);
    hash_combine(digest, static_cast<std::uint64_t>(item.expected));
    for (const std::string* text : {&item.bytes, &item.wo_text}) {
      hash_combine(digest, text->size());
      for (unsigned char c : *text) hash_combine(digest, c);
    }
  }
}

}  // namespace

Corpus build_corpus(Workload workload, std::uint64_t seed) {
  // Independent streams, so the warm-up list never shares a trace with
  // the timed list (a shared trace would turn into a fleet cache hit).
  std::uint64_t mixer = seed;
  Xoshiro256ss warm_rng(splitmix64(mixer));
  Xoshiro256ss timed_rng(splitmix64(mixer));
  Corpus corpus;
  switch (workload) {
    case Workload::kFleet:
      corpus.warmup = fleet_list(warm_rng, kFleetWarmup);
      corpus.timed = fleet_list(timed_rng, kFleetTimed);
      break;
    case Workload::kHard:
      corpus.warmup = hard_list(warm_rng, kHardWarmup);
      corpus.timed = hard_list(timed_rng, kHardTimed);
      break;
    case Workload::kStream:
      corpus.warmup = stream_list(warm_rng, kStreamWarmup);
      corpus.timed = stream_list(timed_rng, kStreamTimed);
      break;
  }
  std::uint64_t digest = 0;
  digest_items(digest, corpus.warmup);
  digest_items(digest, corpus.timed);
  corpus.digest = mix64(digest);
  return corpus;
}

std::vector<Item> fleet_requests(std::uint64_t seed, std::size_t count) {
  Xoshiro256ss rng(mix64(seed ^ 0x6f62732d70726f62ULL));
  return fleet_list(rng, count);
}

bool decode(const Item& item, Decoded& out, std::string& error) {
  if (item.format == Format::kVmtb) {
    BinaryParseResult parsed = decode_binary(item.bytes);
    if (!parsed.ok()) {
      error = parsed.error;
      return false;
    }
    out.execution = std::move(parsed.execution);
    if (!parsed.write_orders.empty())
      out.write_orders = std::move(parsed.write_orders);
    else
      out.write_orders.reset();
    return true;
  }
  ParseResult parsed = parse_execution(item.bytes);
  if (!parsed.ok()) {
    error = parsed.error;
    return false;
  }
  out.execution = std::move(parsed.execution);
  out.write_orders.reset();
  if (!item.wo_text.empty()) {
    WriteOrderParseResult orders = parse_write_orders(item.wo_text);
    if (!orders.ok()) {
      error = orders.error;
      return false;
    }
    out.write_orders = std::move(orders.orders);
  }
  return true;
}

}  // namespace perfbench
