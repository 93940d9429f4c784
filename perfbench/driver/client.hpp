#pragma once
// The benchmark's client: one thread that decodes request bytes, submits
// them to a VerificationService (or streams them through
// verify_stream), keeps a fixed number of requests in flight (a closed
// loop), checks every verdict against the known answer and every
// returned certificate with certify::check, and records latencies.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "corpus.hpp"
#include "service/service.hpp"

namespace perfbench {

/// Deliberate faults for the self-test: each must make the run fail.
struct Inject {
  bool corrupt_certificate = false;  ///< damage the first certificate seen
};

struct LoopConfig {
  std::size_t in_flight = 1;
  std::chrono::milliseconds deadline{60'000};
  /// Stop submitting once both hold: at least this much wall time and
  /// at least this many requests; then finish the current pass of the
  /// list, so a run measures whole passes. A single pass sets both
  /// request counts to the list size.
  double min_seconds = 0;
  std::uint64_t min_requests = 0;
  std::uint64_t max_requests = 0;  ///< 0 = no cap
  std::size_t stream_shards = 2;
  Inject inject;
};

/// Cumulative steal and total CPU time from /proc/stat, in ticks (both
/// 0 where the file is unavailable).
struct CpuSample {
  double steal = 0;
  double total = 0;
};
[[nodiscard]] CpuSample cpu_sample();

/// CPU time the hypervisor gave to other guests, as a share of all CPU
/// time between two samples; 0 where unavailable. Time measured while
/// the share is high measures a slower machine, not slower code.
[[nodiscard]] double steal_share(const CpuSample& from, const CpuSample& to);

/// What one completed request produced (service pass bookkeeping).
struct Outcome {
  vermem::vmc::Verdict verdict = vermem::vmc::Verdict::kUnknown;
  bool failed = false;  ///< unknown, timed out or cancelled
  bool cache_hit = false;
  double queue_us = 0;
  double run_us = 0;
};

struct LoopResult {
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t ops = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t certificates_checked = 0;
  double elapsed_s = 0;
  /// Per completed request, in completion order: its latency, the
  /// loop time it completed at, and its trace operations.
  std::vector<double> latency_ms;
  std::vector<double> done_s;
  std::vector<std::uint64_t> done_ops;
  /// CPU samples at the start of the loop and after every full pass of
  /// the list (completions, in completion order).
  std::vector<CpuSample> pass_cpu;
  /// Per corpus index, filled by a single pass (index < list size).
  std::vector<Outcome> outcomes;
  /// First wrong verdict or rejected certificate; empty when correct.
  std::string error;
};

/// Runs `items` (cycling from index 0) through `service` under `config`.
/// Streamed items go through verify_stream one at a time; all others
/// are submitted with config.in_flight outstanding.
[[nodiscard]] LoopResult run_loop(vermem::service::VerificationService& service,
                                  const std::vector<Item>& items,
                                  const LoopConfig& config);

}  // namespace perfbench
