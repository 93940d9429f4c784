#pragma once
// Seeded request corpora for the three benchmark workloads.
//
// Every request is stored as the bytes a client would send (the text
// trace format, optionally with a "wo" write-order log, or VMTB) plus
// the policy it is submitted with and its known answer. Answers come
// from construction: generate_sc traces are coherent and SC (hence TSO
// and PSO admissible); a planted read of a value no write produces is
// incoherent; litmus outcomes come from the suite's hand-written
// allowed[] table; fault-injected simulator traces have no answer by
// construction, so theirs is fixed once here, from certificates that
// certify::check accepts.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "models/model.hpp"
#include "service/request.hpp"
#include "trace/execution.hpp"
#include "vmc/checker.hpp"
#include "vmc/result.hpp"

namespace perfbench {

enum class Workload : std::uint8_t { kFleet, kHard, kStream };

[[nodiscard]] const char* to_string(Workload workload) noexcept;
[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);

enum class Format : std::uint8_t { kText, kVmtb };

struct Item {
  Format format = Format::kText;
  std::string bytes;    ///< text trace or VMTB
  std::string wo_text;  ///< text write-order log ("wo" lines); text only
  vermem::service::CheckMode mode = vermem::service::CheckMode::kCoherence;
  vermem::models::Model model = vermem::models::Model::kSc;
  vermem::service::SolverChoice solver = vermem::service::SolverChoice::kAuto;
  bool certify = false;
  /// Sent through verify_stream rather than submit (stream workload).
  bool streamed = false;
  vermem::vmc::Verdict expected = vermem::vmc::Verdict::kCoherent;
  const char* klass = "";  ///< corpus class, for the per-class tallies
  std::uint64_t ops = 0;
  /// Earlier corpus index this request repeats byte for byte, or -1.
  std::int64_t resubmit_of = -1;
};

struct Corpus {
  std::vector<Item> warmup;  ///< the untimed warm-up pass
  std::vector<Item> timed;   ///< cycled by the timed loop
  /// Digest over every byte and policy field of both lists.
  std::uint64_t digest = 0;
};

/// Builds the corpus of `workload` from `seed`; the same seed always
/// gives the same corpus.
[[nodiscard]] Corpus build_corpus(Workload workload, std::uint64_t seed);

/// `count` fleet-shaped requests from `seed`, independent of the fleet
/// corpus (the traced run's tracing-overhead probe).
[[nodiscard]] std::vector<Item> fleet_requests(std::uint64_t seed,
                                               std::size_t count);

/// A request after decoding, as the service receives it.
struct Decoded {
  vermem::Execution execution;
  std::optional<vermem::vmc::WriteOrderMap> write_orders;
};

/// Decodes an item through the public parsers (parse_execution +
/// parse_write_orders, or decode_binary). Returns false with `error`
/// set on malformed bytes.
[[nodiscard]] bool decode(const Item& item, Decoded& out, std::string& error);

}  // namespace perfbench
