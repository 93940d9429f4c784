#pragma once
// The traced run's replay: every corpus request once, on one thread,
// through each layer's public entry point, with a benchmark-side span
// around each call (bench.decode, bench.index, bench.route, bench.vscc,
// bench.models, bench.cert_build, bench.certify, bench.stream, all under
// one bench.request root). The program's own spans (trace.parse,
// analysis.saturate, poly.*, vmc.exact, sat.cdcl, stream.shard, ...)
// nest inside them. The spans are written once, at the end, with
// obs::write_chrome_trace, and summarize_trace() turns the file into
// per-layer self times.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "corpus.hpp"

namespace perfbench {

struct ReplayResult {
  std::vector<vermem::vmc::Verdict> verdicts;  ///< per corpus index
  /// Per corpus index: time in the calls the service's run_micros also
  /// covers (route / vscc / models / certificate build, or the whole
  /// StreamVerifier::run), in ms.
  std::vector<double> engine_ms;
  std::uint64_t requests = 0;
  std::uint64_t decoded = 0;  ///< requests that went through bench.decode

  // Work counters, summed over the pass.
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  std::uint64_t oracle_prunes = 0;
  std::uint64_t arena_allocations = 0;
  std::uint64_t poly_routed = 0;
  std::uint64_t exact_routed = 0;
  std::uint64_t saturate_ran = 0;
  std::uint64_t saturate_decided = 0;
  std::uint64_t models_states = 0;
  std::uint64_t certificates_checked = 0;
  std::uint64_t certificates_rejected = 0;
  std::uint64_t vscc_requests = 0;
  std::uint64_t vscc_sweep_reused = 0;  ///< extended or reused, one thread

  // Stream pipeline, summed or maxed over the pass.
  std::uint64_t stream_events = 0;
  std::uint64_t stream_shed = 0;
  std::uint64_t stream_queue_peak_blocks = 0;
  std::uint64_t stream_resident_peak_bytes = 0;
  std::uint64_t stream_online_window_peak = 0;

  std::string error;  ///< first wrong verdict / rejected certificate
};

/// Replays `items` once with tracing on. The caller owns the tracing
/// switch; this only opens spans.
[[nodiscard]] ReplayResult replay(const std::vector<Item>& items,
                                  std::size_t stream_shards);

/// Self time per layer, from a Chrome trace written by
/// obs::write_chrome_trace. Only span trees rooted at bench.request (the
/// replay thread) or stream.shard (stream shard threads) are counted.
struct TraceSummary {
  std::map<std::string, double> self_ms;  ///< by layer
  double request_ms = 0;      ///< summed bench.request durations
  double decode_ms = 0;       ///< summed bench.decode durations
  double index_ms = 0;        ///< summed bench.index durations
  double shard_busy_ms = 0;   ///< summed stream.shard durations
  std::uint64_t spans = 0;
  std::string error;
};

[[nodiscard]] TraceSummary summarize_trace(const std::string& path);

}  // namespace perfbench
