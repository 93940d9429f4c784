#include "replay.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "analysis/router.hpp"
#include "certify/certificate.hpp"
#include "certify/check.hpp"
#include "encode/sweep.hpp"
#include "models/checker.hpp"
#include "obs/span.hpp"
#include "stream/verifier.hpp"
#include "support/stopwatch.hpp"
#include "trace/address_index.hpp"
#include "trace/binary_io.hpp"
#include "vsc/vscc.hpp"

namespace perfbench {

using namespace vermem;

namespace {

void add_effort(ReplayResult& out, const vmc::SearchStats& stats) {
  out.states += stats.states_visited;
  out.transitions += stats.transitions;
  out.oracle_prunes += stats.oracle_prunes;
  out.arena_allocations += stats.arena_allocations;
}

analysis::PortfolioOptions portfolio_for(service::SolverChoice solver) {
  // The same mapping VerificationService::execute applies.
  analysis::PortfolioOptions portfolio;
  switch (solver) {
    case service::SolverChoice::kAuto: break;
    case service::SolverChoice::kPortfolio: portfolio.enabled = true; break;
    case service::SolverChoice::kCdcl:
      portfolio.enabled = true;
      portfolio.only = analysis::Engine::kCdcl;
      break;
    case service::SolverChoice::kDpll:
      portfolio.enabled = true;
      portfolio.only = analysis::Engine::kDpll;
      break;
  }
  return portfolio;
}

vmc::Verdict replay_stream(const Item& item, std::size_t index,
                           stream::StreamVerifier& verifier, ReplayResult& out) {
  stream::StreamResult result;
  Stopwatch engine;
  {
    obs::Span span("bench.stream");
    BinaryTraceReader reader{std::string_view(item.bytes)};
    result = verifier.run(reader);
  }
  out.engine_ms[index] = engine.millis();
  out.stream_events += result.events;
  out.stream_shed += result.shed_events;
  out.stream_queue_peak_blocks =
      std::max(out.stream_queue_peak_blocks, result.queue_peak_blocks);
  out.stream_resident_peak_bytes =
      std::max(out.stream_resident_peak_bytes, result.resident_peak_bytes);
  out.stream_online_window_peak =
      std::max(out.stream_online_window_peak, result.online_window_peak);
  out.poly_routed += result.poly_routed;
  out.exact_routed += result.exact_routed;
  add_effort(out, result.report.effort);
  return result.ok() && !result.cancelled ? result.report.verdict
                                          : vmc::Verdict::kUnknown;
}

vmc::Verdict replay_request(const Item& item, std::size_t index,
                            encode::VscSweep& sweep, ReplayResult& out) {
  Decoded decoded;
  {
    obs::Span span("bench.decode");
    std::string error;
    if (!decode(item, decoded, error)) {
      out.error = "request #" + std::to_string(index) + ": decode failed: " + error;
      return vmc::Verdict::kUnknown;
    }
  }
  ++out.decoded;
  std::optional<AddressIndex> address_index;
  {
    obs::Span span("bench.index");
    address_index.emplace(decoded.execution);
  }
  const vmc::WriteOrderMap* orders =
      decoded.write_orders ? &*decoded.write_orders : nullptr;

  Stopwatch engine;
  vmc::Verdict verdict = vmc::Verdict::kUnknown;
  switch (item.mode) {
    case service::CheckMode::kCoherence: {
      analysis::RoutedReport routed;
      {
        obs::Span span("bench.route");
        routed = analysis::verify_coherence_routed(*address_index, orders, {},
                                                   portfolio_for(item.solver));
      }
      verdict = routed.report.verdict;
      add_effort(out, routed.report.effort);
      out.poly_routed += routed.poly_routed;
      out.exact_routed += routed.exact_routed;
      out.saturate_ran += routed.saturate_ran;
      out.saturate_decided += routed.saturate_decided;
      if (!item.certify) break;
      std::vector<certify::Certificate> certificates;
      {
        obs::Span span("bench.cert_build");
        certificates.reserve(routed.report.addresses.size());
        for (const auto& address : routed.report.addresses)
          certificates.push_back(certify::from_result(
              certify::Scope::kAddress, address.addr, address.result));
      }
      out.engine_ms[index] = engine.millis();
      obs::Span span("bench.certify");
      for (const certify::Certificate& cert : certificates) {
        ++out.certificates_checked;
        const certify::CheckOutcome outcome =
            certify::check(decoded.execution, cert);
        if (!outcome) {
          ++out.certificates_rejected;
          if (out.error.empty())
            out.error = "request #" + std::to_string(index) +
                        ": certificate rejected: " + outcome.violation;
        }
      }
      return verdict;
    }
    case service::CheckMode::kVscc: {
      vsc::VsccOptions options;
      options.write_orders = orders;
      options.use_sat_sweep = true;
      options.sweep = &sweep;
      vsc::VsccReport report;
      {
        obs::Span span("bench.vscc");
        report = vsc::check_vscc(*address_index, options);
      }
      verdict = report.sc.verdict;
      add_effort(out, report.coherence.effort);
      add_effort(out, report.sc.stats);
      ++out.vscc_requests;
      if (report.used_sat_sweep &&
          report.sweep_prepare != encode::VscSweep::Prepare::kFresh)
        ++out.vscc_sweep_reused;
      break;
    }
    case service::CheckMode::kConsistency: {
      vmc::CheckResult result;
      {
        obs::Span span("bench.models");
        result = models::check_model(decoded.execution, item.model);
      }
      verdict = result.verdict;
      out.models_states += result.stats.states_visited;
      break;
    }
  }
  out.engine_ms[index] = engine.millis();
  return verdict;
}

// --- Chrome trace summary ------------------------------------------------

struct SpanRecord {
  std::string_view name;
  double dur_us = 0;
  std::uint64_t parent = 0;
  double child_us = 0;
  int root = -1;  ///< -1 unknown, 0 not counted, 1 counted
};

/// The layer a span's self time belongs to.
std::string_view layer_of(std::string_view name) {
  static const std::unordered_map<std::string_view, std::string_view> layers{
      {"bench.request", "unattributed"},
      {"bench.decode", "trace.parse"},
      {"trace.parse", "trace.parse"},
      {"bench.index", "trace.index"},
      {"trace.index_build", "trace.index"},
      {"bench.route", "analysis.route"},
      {"analysis.verify_routed", "analysis.route"},
      {"analysis.route", "analysis.route"},
      // A forced engine runs on its own thread; the portfolio span is the
      // caller waiting for it, so its self time is that engine's.
      {"analysis.portfolio", "sat.cdcl"},
      {"sat.cdcl", "sat.cdcl"},
      {"sat.dpll", "sat.cdcl"},
      {"analysis.saturate", "analysis.saturate"},
      {"vmc.exact", "vmc.exact"},
      {"bench.vscc", "vsc.vscc"},
      {"bench.models", "models.check"},
      {"bench.cert_build", "certify.build"},
      {"bench.certify", "certify.check"},
      {"bench.stream", "stream.reader"},
      {"stream.verify", "stream.reader"},
      {"stream.shard", "stream.shard"},
  };
  if (name.substr(0, 5) == "poly.") return "analysis.poly";
  const auto it = layers.find(name);
  return it == layers.end() ? std::string_view("other") : it->second;
}

bool number_after(std::string_view line, std::string_view key, double& out) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return false;
  const char* first = line.data() + at + key.size();
  const char* last = line.data() + line.size();
  return std::from_chars(first, last, out).ec == std::errc{};
}

bool integer_after(std::string_view line, std::string_view key,
                   std::uint64_t& out) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return false;
  const char* first = line.data() + at + key.size();
  const char* last = line.data() + line.size();
  return std::from_chars(first, last, out).ec == std::errc{};
}

}  // namespace

ReplayResult replay(const std::vector<Item>& items, std::size_t stream_shards) {
  ReplayResult out;
  out.verdicts.assign(items.size(), vmc::Verdict::kUnknown);
  out.engine_ms.assign(items.size(), 0.0);
  encode::VscSweep sweep;
  stream::StreamOptions stream_options;
  stream_options.shards = stream_shards;
  stream_options.backpressure = stream::BackpressurePolicy::kBlock;
  std::optional<stream::StreamVerifier> verifier;
  for (std::size_t i = 0; i < items.size() && out.error.empty(); ++i) {
    const Item& item = items[i];
    obs::Span span("bench.request");
    vmc::Verdict verdict;
    if (item.streamed) {
      if (!verifier) verifier.emplace(stream_options);
      verdict = replay_stream(item, i, *verifier, out);
    } else {
      verdict = replay_request(item, i, sweep, out);
    }
    out.verdicts[i] = verdict;
    ++out.requests;
    if (out.error.empty() && verdict != item.expected)
      out.error = std::string(item.klass) + " request #" + std::to_string(i) +
                  ": replay verdict " + vmc::to_string(verdict) +
                  ", expected " + vmc::to_string(item.expected);
  }
  return out;
}

TraceSummary summarize_trace(const std::string& path) {
  TraceSummary summary;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    summary.error = "cannot read " + path;
    return summary;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::unordered_map<std::uint64_t, SpanRecord> spans;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    static constexpr std::string_view kName = "{\"name\":\"";
    if (line.substr(0, kName.size()) != kName) continue;
    SpanRecord record;
    const std::size_t name_end = line.find('"', kName.size());
    record.name = line.substr(kName.size(), name_end - kName.size());
    std::uint64_t id = 0;
    if (!number_after(line, "\"dur\":", record.dur_us) ||
        !integer_after(line, "\"id\":", id) ||
        !integer_after(line, "\"parent\":", record.parent)) {
      summary.error = "malformed span line in " + path;
      return summary;
    }
    spans.emplace(id, record);
  }
  summary.spans = spans.size();

  for (auto& [id, record] : spans) {
    if (record.parent == 0) continue;
    const auto parent = spans.find(record.parent);
    if (parent != spans.end()) parent->second.child_us += record.dur_us;
  }
  // A tree counts when its root is a replayed request or a stream shard;
  // other roots (a forced engine's own thread) are covered by the span
  // that waited for them.
  const auto counted = [&spans](SpanRecord& start) {
    std::vector<SpanRecord*> chain;
    SpanRecord* node = &start;
    int verdict = -1;
    while (verdict < 0) {
      if (node->root >= 0) {
        verdict = node->root;
        break;
      }
      chain.push_back(node);
      const auto parent =
          node->parent == 0 ? spans.end() : spans.find(node->parent);
      if (parent == spans.end()) {
        verdict = node->name == "bench.request" || node->name == "stream.shard";
        break;
      }
      node = &parent->second;
    }
    for (SpanRecord* visited : chain) visited->root = verdict;
    return verdict == 1;
  };

  for (auto& [id, record] : spans) {
    if (!counted(record)) continue;
    const double self_ms = (record.dur_us - record.child_us) / 1e3;
    summary.self_ms[std::string(layer_of(record.name))] += self_ms;
    if (record.name == "bench.request") summary.request_ms += record.dur_us / 1e3;
    if (record.name == "bench.decode") summary.decode_ms += record.dur_us / 1e3;
    if (record.name == "bench.index") summary.index_ms += record.dur_us / 1e3;
    if (record.name == "stream.shard") summary.shard_busy_ms += record.dur_us / 1e3;
  }
  return summary;
}

}  // namespace perfbench
