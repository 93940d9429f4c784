// perfbench_driver: runs one workload of the end-to-end benchmark.
//
//   perfbench_driver --workload fleet|hard|stream --seed N --seconds S
//                    --trace 0|1 [--out-dir DIR] [--commit ID]
//                    [--inject wrong-verdict|corrupt-certificate]
//
// --trace 0 measures the end-to-end metrics on the service path with
// tracing off. --trace 1 is the separate traced run that reports the
// per-layer metrics. The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is a
// "detail" object with the stamp (nproc, compiler, build type, seed,
// commit), the corpus digest and the deterministic counters. Exit code 0
// iff every verdict matched its known answer and every certificate
// checked.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "client.hpp"
#include "corpus.hpp"
#include "obs/obs.hpp"
#include "obs/span.hpp"
#include "replay.hpp"
#include "service/service.hpp"
#include "support/json.hpp"
#include "support/stopwatch.hpp"
#include "trace/binary_io.hpp"

namespace perfbench {
namespace {

using namespace vermem;

struct Args {
  Workload workload = Workload::kFleet;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
  bool inject_wrong_verdict = false;
  Inject inject;
};

/// Per-workload service shape: workers (or stream shards) plus the
/// client thread stay within four cores.
struct Shape {
  std::size_t workers = 3;
  std::size_t in_flight = 12;
  std::chrono::milliseconds deadline{10'000};
  /// Result-cache entries. The hard corpus is cycled and smaller than
  /// the default cache, so its repeats would turn into cache hits.
  std::size_t cache_capacity = 1024;
};

Shape shape_of(Workload workload) {
  Shape shape;
  switch (workload) {
    case Workload::kFleet: break;
    case Workload::kHard:
      shape.in_flight = 3;
      shape.deadline = std::chrono::milliseconds(60'000);
      shape.cache_capacity = 0;
      break;
    case Workload::kStream:
      shape.workers = 1;  // idle: streamed requests bypass the pool
      shape.in_flight = 1;
      shape.deadline = std::chrono::milliseconds(60'000);
      break;
  }
  return shape;
}

constexpr std::size_t kStreamShards = 2;
/// Set-ups per untraced run; setup_s is their median.
constexpr std::size_t kSetups = 5;
constexpr std::uint64_t kMinRequests = 1000;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// A work count that must repeat exactly for the same seed. Times,
  /// and counts that depend on thread timing (warm-sweep reuse under
  /// contention, queue and resident peaks of the stream pipeline), are
  /// not.
  bool deterministic = false;
};

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

/// Restarts the kernel's peak-RSS mark (VmHWM) so the peak covers the
/// workload, not corpus generation. Returns false where unsupported.
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

/// Peak RSS in MB since reset_peak_rss(), or since process start.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string stamp_json(const Args& args, std::uint64_t digest) {
  return std::string("{\"workload\": \"") + to_string(args.workload) +
         "\", \"seed\": " + std::to_string(args.seed) +
         ", \"trace\": " + (args.trace ? "1" : "0") +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" + json_escape(PERFBENCH_COMPILER) +
         "\", \"build_type\": \"" + json_escape(PERFBENCH_BUILD_TYPE) +
         "\", \"commit\": \"" + json_escape(args.commit) +
         "\", \"corpus_digest\": \"" + std::to_string(digest) + "\"}";
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(metrics).c_str());
  std::fflush(stdout);
}

service::ServiceOptions service_options(const Shape& shape) {
  service::ServiceOptions options;
  options.workers = shape.workers;
  options.cache_capacity = shape.cache_capacity;
  return options;
}

LoopConfig pass_config(const Shape& shape, std::size_t count) {
  LoopConfig config;
  config.in_flight = shape.in_flight;
  config.deadline = shape.deadline;
  config.min_requests = count;
  config.max_requests = count;
  config.stream_shards = kStreamShards;
  return config;
}

/// Constructs the service and runs the warm-up pass; returns seconds.
double set_up(std::unique_ptr<service::VerificationService>& service,
              const Shape& shape, const Corpus& corpus, std::string& error) {
  Stopwatch clock;
  service.reset();
  service = std::make_unique<service::VerificationService>(service_options(shape));
  const LoopResult warm =
      run_loop(*service, corpus.warmup, pass_config(shape, corpus.warmup.size()));
  if (!warm.error.empty() && error.empty()) error = "warm-up: " + warm.error;
  if (warm.failed != 0 && error.empty())
    error = "warm-up: " + std::to_string(warm.failed) + " requests undecided";
  return clock.seconds();
}

void report_error(const std::string& error) {
  std::fprintf(stderr, "perfbench: %s\n", error.c_str());
}

// --- untraced run: end-to-end metrics ---------------------------------

/// Steal share above which a pass of the corpus counts as disturbed.
constexpr double kStealLimit = 0.02;

/// The end-to-end timing metrics of a timed loop. Each pass of the
/// corpus is one window. Windows during which the hypervisor gave more
/// than kStealLimit of the CPU to other guests are set aside, unless that
/// would keep fewer than half the windows or fewer than kMinRequests
/// requests; then the least-disturbed windows are kept up to both. Rates
/// are medians over the kept windows. For the percentiles the kept
/// windows are grouped, in time order, into chunks of at least
/// kMinRequests requests (so p99 has at least ten samples beyond it);
/// p50 and p99 are medians over the chunks. Kept requests after the last
/// full chunk do not enter the percentiles.
struct TimedMetrics {
  double requests_per_s = 0;
  double ops_per_s = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::size_t windows = 0;
  std::size_t kept = 0;
  double steal = 0;  ///< over the whole loop
};

TimedMetrics timed_metrics(const LoopResult& run, std::size_t corpus_size) {
  struct Window {
    std::size_t begin = 0;
    std::size_t end = 0;
    double seconds = 0;
    double steal = 0;
  };
  std::vector<Window> windows;
  double start = 0;
  for (std::size_t end = corpus_size; end <= run.done_s.size() &&
                                      windows.size() + 1 < run.pass_cpu.size();
       end += corpus_size) {
    const std::size_t k = windows.size();
    windows.push_back({end - corpus_size, end,
                       std::max(run.done_s[end - 1] - start, 1e-9),
                       steal_share(run.pass_cpu[k], run.pass_cpu[k + 1])});
    start = run.done_s[end - 1];
  }
  TimedMetrics out;
  out.windows = windows.size();
  if (run.pass_cpu.size() >= 2)
    out.steal = steal_share(run.pass_cpu.front(), run.pass_cpu.back());
  if (windows.empty()) {  // an aborted run: whatever completed
    const double seconds = std::max(run.elapsed_s, 1e-9);
    out.requests_per_s = static_cast<double>(run.completed) / seconds;
    out.ops_per_s = static_cast<double>(run.ops) / seconds;
    out.p50_ms = quantile(run.latency_ms, 0.50);
    out.p99_ms = quantile(run.latency_ms, 0.99);
    return out;
  }

  std::vector<std::size_t> order(windows.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&windows](std::size_t a, std::size_t b) {
    const bool a_quiet = windows[a].steal <= kStealLimit;
    const bool b_quiet = windows[b].steal <= kStealLimit;
    if (a_quiet != b_quiet) return a_quiet;
    return !a_quiet && windows[a].steal < windows[b].steal;
  });
  std::vector<std::size_t> kept;
  std::size_t kept_requests = 0;
  for (const std::size_t i : order) {
    const bool enough = 2 * kept.size() >= windows.size() &&
                        kept_requests >= kMinRequests;
    if (windows[i].steal > kStealLimit && enough) break;
    kept.push_back(i);
    kept_requests += windows[i].end - windows[i].begin;
  }
  std::sort(kept.begin(), kept.end());

  std::vector<double> rates;
  std::vector<double> op_rates;
  std::vector<double> p50s;
  std::vector<double> p99s;
  std::vector<double> chunk;
  for (std::size_t k = 0; k < kept.size(); ++k) {
    const Window& window = windows[kept[k]];
    std::uint64_t ops = 0;
    for (std::size_t r = window.begin; r < window.end; ++r) {
      ops += run.done_ops[r];
      chunk.push_back(run.latency_ms[r]);
    }
    rates.push_back(static_cast<double>(window.end - window.begin) / window.seconds);
    op_rates.push_back(static_cast<double>(ops) / window.seconds);
    if (chunk.size() >= kMinRequests) {
      p50s.push_back(quantile(chunk, 0.50));
      p99s.push_back(quantile(chunk, 0.99));
      chunk.clear();
    }
  }
  out.kept = kept.size();
  out.requests_per_s = median(rates);
  out.ops_per_s = median(op_rates);
  out.p50_ms = median(p50s);
  out.p99_ms = median(p99s);
  return out;
}

int run_untraced(const Args& args, const Corpus& corpus) {
  const Shape shape = shape_of(args.workload);
  std::string error;
  std::unique_ptr<service::VerificationService> service;
  const bool peak_reset = reset_peak_rss();
  std::vector<double> setups;
  for (std::size_t i = 0; i < kSetups; ++i)
    setups.push_back(set_up(service, shape, corpus, error));

  LoopConfig config = pass_config(shape, 0);
  config.min_seconds = args.seconds;
  config.min_requests = kMinRequests;
  config.inject = args.inject;
  const LoopResult timed = run_loop(*service, corpus.timed, config);
  if (error.empty()) error = timed.error;
  const service::ServiceStats stats = service->stats();
  if (stats.stream_shed != 0 && error.empty())
    error = std::to_string(stats.stream_shed) + " stream events shed";
  service.reset();

  const TimedMetrics measured = timed_metrics(timed, corpus.timed.size());
  const double completed = static_cast<double>(timed.completed);
  const std::vector<Metric> metrics{
      {"requests_per_s", measured.requests_per_s, "1/s"},
      {"ops_per_s", measured.ops_per_s, "1/s"},
      {"latency_p50_ms", measured.p50_ms, "ms"},
      {"latency_p99_ms", measured.p99_ms, "ms"},
      {"definite_frac",
       completed == 0 ? 0 : 1.0 - static_cast<double>(timed.failed) / completed,
       "ratio"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  std::string detail = "{\"stamp\": " + stamp_json(args, corpus.digest) +
                       ", \"elapsed_s\": " + number(timed.elapsed_s) +
                       ", \"windows\": " + std::to_string(measured.windows) +
                       ", \"windows_kept\": " + std::to_string(measured.kept) +
                       ", \"cpu_steal_share\": " + number(measured.steal) +
                       ", \"whole_run\": {\"requests_per_s\": " +
                       number(completed / std::max(timed.elapsed_s, 1e-9)) +
                       ", \"latency_p50_ms\": " + number(quantile(timed.latency_ms, 0.50)) +
                       ", \"latency_p99_ms\": " + number(quantile(timed.latency_ms, 0.99)) +
                       "}" +
                       ", \"cache_hits\": " + std::to_string(timed.cache_hits) +
                       ", \"peak_rss_reset\": " + (peak_reset ? "true" : "false") +
                       ", \"certificates_checked\": " +
                       std::to_string(timed.certificates_checked) +
                       ", \"setup_runs_s\": [";
  for (std::size_t i = 0; i < setups.size(); ++i)
    detail += (i ? ", " : "") + number(setups[i]);
  detail += "]}";
  std::printf("%s\n", detail.c_str());
  if (!error.empty()) report_error(error);
  print_result(error.empty(), std::max<std::uint64_t>(timed.completed, 1),
               timed.failed, metrics);
  return error.empty() ? 0 : 1;
}

// --- traced run: per-layer metrics --------------------------------------

/// Wall time of the fleet service path with tracing on over off, from
/// interleaved passes over a cache-less service (so every pass does the
/// same work).
double trace_overhead_ratio(std::uint64_t seed, std::string& error) {
  const std::vector<Item> items = fleet_requests(seed, 512);
  Shape shape = shape_of(Workload::kFleet);
  service::ServiceOptions options = service_options(shape);
  options.cache_capacity = 0;
  service::VerificationService service(options);
  const LoopConfig config = pass_config(shape, items.size());
  (void)run_loop(service, items, config);  // warm
  std::vector<double> off;
  std::vector<double> on;
  for (int round = 0; round < 5; ++round) {
    for (const bool tracing : {false, true}) {
      obs::set_tracing_enabled(tracing);
      const LoopResult pass = run_loop(service, items, config);
      obs::set_tracing_enabled(false);
      if (!pass.error.empty() && error.empty()) error = "overhead probe: " + pass.error;
      (tracing ? on : off).push_back(pass.elapsed_s);
    }
  }
  return median(on) / median(off);
}

/// Decode-only VMTB pass (BinaryTraceReader, no checking): ns per op,
/// median of three passes over every VMTB item of the corpus.
double vmtb_read_ns_per_op(const std::vector<Item>& items) {
  std::vector<double> rates;
  for (int round = 0; round < 3; ++round) {
    std::uint64_t ops = 0;
    Stopwatch clock;
    for (const Item& item : items) {
      if (item.format != Format::kVmtb) continue;
      BinaryTraceReader reader{std::string_view(item.bytes)};
      if (!reader.read_header()) continue;
      StreamEvent event;
      while (reader.next(event) == BinaryTraceReader::Next::kEvent) ++ops;
    }
    const double ns = static_cast<double>(clock.nanos());
    if (ops != 0) rates.push_back(ns / static_cast<double>(ops));
  }
  return rates.empty() ? 0 : median(rates);
}

int run_traced(const Args& args, const Corpus& corpus) {
  const Shape shape = shape_of(args.workload);
  std::string error;
  std::unique_ptr<service::VerificationService> service;
  (void)set_up(service, shape, corpus, error);

  // One untimed service pass: the verdicts the replay must reproduce,
  // plus queue / run times and cache and sweep behaviour.
  const service::ServiceStats before = service->stats();
  const LoopResult pass =
      run_loop(*service, corpus.timed, pass_config(shape, corpus.timed.size()));
  const service::ServiceStats after = service->stats();
  service.reset();
  if (error.empty()) error = pass.error;

  const double overhead_ratio = trace_overhead_ratio(args.seed, error);
  const double read_ns = vmtb_read_ns_per_op(corpus.timed);

  obs::reset_trace();
  obs::set_tracing_enabled(true);
  const ReplayResult replayed = replay(corpus.timed, kStreamShards);
  obs::set_tracing_enabled(false);
  const std::uint64_t dropped = obs::trace_dropped_count();
  const std::string trace_path = args.out_dir + "/trace-" +
                                 to_string(args.workload) + ".json";
  {
    std::ofstream out(trace_path, std::ios::binary | std::ios::trunc);
    obs::write_chrome_trace(out);
    if (!out && error.empty()) error = "cannot write " + trace_path;
  }
  const TraceSummary spans = summarize_trace(trace_path);
  if (error.empty()) error = replayed.error;
  if (error.empty()) error = spans.error;
  if (dropped != 0 && error.empty())
    error = std::to_string(dropped) + " spans dropped";
  if (replayed.stream_shed != 0 && error.empty())
    error = std::to_string(replayed.stream_shed) + " stream events shed";
  for (std::size_t i = 0; i < corpus.timed.size() && error.empty(); ++i)
    if (replayed.verdicts[i] != pass.outcomes[i].verdict)
      error = "request #" + std::to_string(i) + ": traced verdict " +
              vmc::to_string(replayed.verdicts[i]) + " differs from service " +
              vmc::to_string(pass.outcomes[i].verdict);

  double queue_ms = 0;
  double run_ms = 0;
  double engine_ms = 0;
  for (std::size_t i = 0; i < corpus.timed.size(); ++i) {
    const Outcome& outcome = pass.outcomes[i];
    queue_ms += outcome.queue_us / 1e3;
    run_ms += outcome.run_us / 1e3;
    if (!outcome.cache_hit) engine_ms += replayed.engine_ms[i];
  }
  const auto layer = [&spans](const char* name) {
    const auto it = spans.self_ms.find(name);
    return it == spans.self_ms.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double part, double whole) {
    return whole == 0 ? 0.0 : part / whole;
  };
  const auto per_request_us = [&replayed](double total_ms) {
    return replayed.decoded == 0
               ? 0.0
               : total_ms * 1e3 / static_cast<double>(replayed.decoded);
  };
  const auto count = [](std::uint64_t value) { return static_cast<double>(value); };
  const std::uint64_t vscc_sweeps = after.vscc_sweeps - before.vscc_sweeps;
  const std::uint64_t sweep_reused =
      (after.vscc_sweep_extended - before.vscc_sweep_extended) +
      (after.vscc_sweep_reused - before.vscc_sweep_reused);

  const std::vector<Metric> metrics{
      {"trace.parse_us", per_request_us(spans.decode_ms), "us"},
      {"trace.index_us", per_request_us(spans.index_ms), "us"},
      {"trace.vmtb_read_ns_per_op", read_ns, "ns"},
      {"analysis.route_ms", layer("analysis.route"), "ms"},
      {"analysis.poly_ms", layer("analysis.poly"), "ms"},
      {"analysis.saturate_ms", layer("analysis.saturate"), "ms"},
      {"analysis.saturate_ran", count(replayed.saturate_ran), "count", true},
      {"analysis.saturate_decided", count(replayed.saturate_decided), "count", true},
      {"analysis.saturate_yield",
       ratio(count(replayed.saturate_decided), count(replayed.saturate_ran)), "ratio", true},
      {"analysis.poly_routed", count(replayed.poly_routed), "count", true},
      {"analysis.exact_routed", count(replayed.exact_routed), "count", true},
      {"vmc.exact_ms", layer("vmc.exact"), "ms"},
      {"vmc.states", count(replayed.states), "count", true},
      {"vmc.transitions", count(replayed.transitions), "count", true},
      {"vmc.oracle_prunes", count(replayed.oracle_prunes), "count", true},
      {"vmc.arena_allocations", count(replayed.arena_allocations), "count", true},
      {"vmc.online_window_peak", count(replayed.stream_online_window_peak), "count", true},
      {"sat.cdcl_ms", layer("sat.cdcl"), "ms"},
      {"vsc.vscc_ms", layer("vsc.vscc"), "ms"},
      {"vsc.sweep_reuse_ratio", ratio(count(sweep_reused), count(replayed.vscc_requests)),
       "ratio"},
      {"models.check_ms", layer("models.check"), "ms"},
      {"models.states", count(replayed.models_states), "count", true},
      {"certify.build_ms", layer("certify.build"), "ms"},
      {"certify.check_ms", layer("certify.check"), "ms"},
      {"certify.checked", count(replayed.certificates_checked), "count", true},
      {"certify.rejected", count(replayed.certificates_rejected), "count", true},
      {"service.queue_ms", queue_ms, "ms"},
      {"service.run_ms", run_ms, "ms"},
      {"service.overhead_ms", run_ms - engine_ms, "ms"},
      {"service.cache_hit_ratio",
       ratio(count(pass.cache_hits), count(pass.completed)), "ratio", true},
      {"stream.reader_ms", layer("stream.reader"), "ms"},
      {"stream.shard_busy_ms", spans.shard_busy_ms, "ms"},
      {"stream.queue_peak_blocks", count(replayed.stream_queue_peak_blocks), "count"},
      {"stream.resident_peak_bytes", count(replayed.stream_resident_peak_bytes),
       "bytes"},
      {"stream.shed_events", count(replayed.stream_shed), "count", true},
      {"stream.events", count(replayed.stream_events), "count", true},
      {"obs.trace_overhead_ratio", overhead_ratio, "ratio"},
      {"obs.spans_dropped", count(dropped), "count", true},
      {"unattributed_frac", ratio(layer("unattributed"), spans.request_ms), "ratio"},
  };

  std::string detail = "{\"stamp\": " + stamp_json(args, corpus.digest) +
                       ", \"trace_file\": \"" + json_escape(trace_path) +
                       "\", \"spans\": " + std::to_string(spans.spans) +
                       ", \"traced_request_ms\": " + number(spans.request_ms) +
                       ", \"other_span_ms\": " + number(layer("other")) +
                       ", \"service_vscc_sweeps\": " + std::to_string(vscc_sweeps) +
                       ", \"replay_sweep_reused\": " +
                       std::to_string(replayed.vscc_sweep_reused) +
                       ", \"deterministic\": {";
  bool first = true;
  for (const Metric& metric : metrics) {
    if (!metric.deterministic) continue;
    detail += (first ? "\"" : ", \"") + metric.name + "\": " + number(metric.value);
    first = false;
  }
  detail += "}}";
  std::printf("%s\n", detail.c_str());
  if (!error.empty()) report_error(error);
  print_result(error.empty(), std::max<std::uint64_t>(replayed.requests, 1),
               pass.failed, metrics);
  return error.empty() ? 0 : 1;
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  return !text.empty() &&
         std::from_chars(text.data(), text.data() + text.size(), out).ec ==
             std::errc{};
}

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string_view value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      const auto workload = parse_workload(value);
      if (!workload) return false;
      args.workload = *workload;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, args.seed)) return false;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, n) || n == 0) return false;
      args.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--inject") {
      if (value == "wrong-verdict")
        args.inject_wrong_verdict = true;
      else if (value == "corrupt-certificate")
        args.inject.corrupt_certificate = true;
      else
        return false;
    } else {
      return false;
    }
  }
  return have_workload;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload fleet|hard|stream --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR] [--commit ID] "
                 "[--inject wrong-verdict|corrupt-certificate]\n");
    return 2;
  }
  vermem::obs::set_tracing_enabled(false);
  Corpus corpus;
  try {
    corpus = build_corpus(args.workload, args.seed);
  } catch (const std::exception& error) {
    // A simulator trace whose certificate certify::check rejects.
    std::fprintf(stderr, "perfbench: corpus: %s\n", error.what());
    return 1;
  }
  if (args.inject_wrong_verdict) {
    auto& expected = corpus.timed.front().expected;
    expected = expected == vermem::vmc::Verdict::kCoherent
                   ? vermem::vmc::Verdict::kIncoherent
                   : vermem::vmc::Verdict::kCoherent;
  }
  return args.trace ? run_traced(args, corpus) : run_untraced(args, corpus);
}
