#include "client.hpp"

#include <fstream>
#include <optional>
#include <string_view>
#include <utility>

#include "certify/check.hpp"
#include "support/stopwatch.hpp"
#include "trace/binary_io.hpp"

namespace perfbench {

using namespace vermem;
using Clock = std::chrono::steady_clock;

namespace {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

bool is_failed(const service::VerificationResponse& response) {
  return response.verdict == vmc::Verdict::kUnknown || response.timed_out ||
         response.cancelled;
}

}  // namespace

CpuSample cpu_sample() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  CpuSample sample;
  double field = 0;
  for (int i = 0; i < 10 && stat >> field; ++i) {
    sample.total += field;
    if (i == 7) sample.steal = field;
  }
  return sample;
}

double steal_share(const CpuSample& from, const CpuSample& to) {
  const double total = to.total - from.total;
  return total > 0 ? (to.steal - from.steal) / total : 0;
}

namespace {

/// Shared bookkeeping of both loops: known-answer check and tallies.
class Ledger {
 public:
  Ledger(const std::vector<Item>& items, const LoopConfig& config,
         LoopResult& result)
      : items_(items), config_(config), result_(result) {
    result_.pass_cpu.push_back(cpu_sample());
  }

  /// Records one response for corpus index `index`; `certified` holds
  /// the decoded execution when the request asked for certificates.
  void finish(std::size_t index, Clock::time_point start,
              const service::VerificationResponse& response,
              const Execution* certified) {
    const Item& item = items_[index];
    Outcome outcome;
    outcome.verdict = response.verdict;
    outcome.failed = is_failed(response);
    outcome.cache_hit = response.cache_hit;
    outcome.queue_us = response.queue_micros;
    outcome.run_us = response.run_micros;
    if (!outcome.failed && response.verdict != item.expected)
      fail(index, std::string("wrong verdict ") +
                      vmc::to_string(response.verdict) + ", expected " +
                      vmc::to_string(item.expected));
    if (certified && !outcome.failed) check_certificates(index, response, *certified);
    const Clock::time_point end = Clock::now();

    ++result_.completed;
    if (outcome.failed) ++result_.failed;
    if (outcome.cache_hit) ++result_.cache_hits;
    result_.ops += item.ops;
    result_.latency_ms.push_back(ms_between(start, end));
    result_.done_s.push_back(ms_between(origin_, end) / 1e3);
    result_.done_ops.push_back(item.ops);
    if (result_.completed % items_.size() == 0)
      result_.pass_cpu.push_back(cpu_sample());
    if (index < result_.outcomes.size()) result_.outcomes[index] = outcome;
  }

  void fail(std::size_t index, const std::string& what) {
    if (!result_.error.empty()) return;
    result_.error = std::string(items_[index].klass) + " request #" +
                    std::to_string(index) + ": " + what;
  }

 private:
  void check_certificates(std::size_t index,
                          const service::VerificationResponse& response,
                          const Execution& exec) {
    if (response.certificates.empty()) {
      fail(index, "certified request returned no certificates");
      return;
    }
    for (const certify::Certificate& returned : response.certificates) {
      certify::Certificate cert = returned;
      if (config_.inject.corrupt_certificate && !corrupted_) {
        corrupted_ = true;
        if (!cert.witness.empty())
          cert.witness.front() = OpRef{1u << 30, 0};
        else
          cert.verdict = cert.verdict == vmc::Verdict::kCoherent
                             ? vmc::Verdict::kIncoherent
                             : vmc::Verdict::kCoherent;
      }
      ++result_.certificates_checked;
      const certify::CheckOutcome outcome = certify::check(exec, cert);
      if (!outcome) {
        fail(index, "certificate rejected: " + outcome.violation);
        return;
      }
    }
  }

  const std::vector<Item>& items_;
  const LoopConfig& config_;
  LoopResult& result_;
  const Clock::time_point origin_ = Clock::now();
  bool corrupted_ = false;
};

class Pacer {
 public:
  Pacer(const std::vector<Item>& items, const LoopConfig& config,
           const LoopResult& result)
      : items_(items), config_(config), result_(result) {}

  /// Whether the client should send another request now.
  bool more() const {
    if (!result_.error.empty()) return false;
    if (config_.max_requests != 0 && submitted_ >= config_.max_requests)
      return false;
    return clock_.seconds() < config_.min_seconds ||
           submitted_ < config_.min_requests || submitted_ % items_.size() != 0;
  }
  std::size_t next() { return static_cast<std::size_t>(submitted_++ % items_.size()); }
  double seconds() const { return clock_.seconds(); }

 private:
  const std::vector<Item>& items_;
  const LoopConfig& config_;
  const LoopResult& result_;
  Stopwatch clock_;
  std::uint64_t submitted_ = 0;
};

struct Pending {
  std::size_t index = 0;
  Clock::time_point start;
  service::VerificationService::Ticket ticket;
  std::optional<Execution> certified;  ///< kept for certificate checks
};

void run_service_loop(service::VerificationService& service,
                      const std::vector<Item>& items, const LoopConfig& config,
                      LoopResult& result) {
  Ledger ledger(items, config, result);
  Pacer schedule(items, config, result);
  std::vector<Pending> flight;
  std::vector<bool> busy(items.size(), false);

  const auto complete = [&](std::size_t slot) {
    Pending pending = std::move(flight[slot]);
    flight.erase(flight.begin() + static_cast<std::ptrdiff_t>(slot));
    busy[pending.index] = false;
    const service::VerificationResponse response = pending.ticket.response.get();
    ledger.finish(pending.index, pending.start, response,
                  pending.certified ? &*pending.certified : nullptr);
  };

  while (true) {
    while (flight.size() < config.in_flight && schedule.more()) {
      const std::size_t index = schedule.next();
      const Item& item = items[index];
      // A resubmission goes out only after its original has resolved,
      // so whether it hits the cache does not depend on timing.
      if (item.resubmit_of >= 0 && busy[static_cast<std::size_t>(item.resubmit_of)]) {
        for (std::size_t slot = 0; slot < flight.size(); ++slot)
          if (flight[slot].index == static_cast<std::size_t>(item.resubmit_of)) {
            complete(slot);
            break;
          }
      }
      Pending pending;
      pending.index = index;
      pending.start = Clock::now();
      Decoded decoded;
      std::string error;
      if (!decode(item, decoded, error)) {
        ledger.fail(index, "decode failed: " + error);
        break;
      }
      if (item.certify) pending.certified = decoded.execution;
      service::VerificationRequest request;
      request.execution = std::move(decoded.execution);
      request.write_orders = std::move(decoded.write_orders);
      request.mode = item.mode;
      request.model = item.model;
      request.solver = item.solver;
      request.certify = item.certify;
      request.deadline = config.deadline;
      pending.ticket = service.submit(std::move(request));
      busy[index] = true;
      flight.push_back(std::move(pending));
    }
    if (flight.empty()) break;

    bool harvested = false;
    for (std::size_t slot = 0; slot < flight.size();) {
      if (flight[slot].ticket.response.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        complete(slot);
        harvested = true;
      } else {
        ++slot;
      }
    }
    if (!harvested)
      (void)flight.front().ticket.response.wait_for(std::chrono::microseconds(20));
  }
  result.elapsed_s = schedule.seconds();
}

void run_stream_loop(service::VerificationService& service,
                     const std::vector<Item>& items, const LoopConfig& config,
                     LoopResult& result) {
  Ledger ledger(items, config, result);
  Pacer schedule(items, config, result);
  while (schedule.more()) {
    const std::size_t index = schedule.next();
    const Clock::time_point start = Clock::now();
    BinaryTraceReader reader{std::string_view(items[index].bytes)};
    service::StreamRequest request;
    request.options.shards = config.stream_shards;
    request.options.backpressure = stream::BackpressurePolicy::kBlock;
    request.deadline = config.deadline;
    const service::VerificationResponse response =
        service.verify_stream(reader, std::move(request));
    ledger.finish(index, start, response, nullptr);
  }
  result.elapsed_s = schedule.seconds();
}

}  // namespace

LoopResult run_loop(service::VerificationService& service,
                    const std::vector<Item>& items, const LoopConfig& config) {
  LoopResult result;
  if (config.max_requests != 0 && config.max_requests <= items.size())
    result.outcomes.resize(static_cast<std::size_t>(config.max_requests));
  if (items.empty()) return result;
  if (items.front().streamed)
    run_stream_loop(service, items, config, result);
  else
    run_service_loop(service, items, config, result);
  return result;
}

}  // namespace perfbench
