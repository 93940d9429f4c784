#pragma once
// Cooperative cancellation shared by every budgeted search.
//
// A CancellationToken is a flag one party flips and long-running work
// polls: the exact searches, the SAT solvers and the model checkers all
// take a `const CancellationToken*` next to their deadline, and the
// verification service hands each request its own.

#include <atomic>

namespace vermem {

/// Shared flag a task flips to stop further work. Single-use: construct
/// a fresh token for each cancellable unit of work.
///
/// Tokens can be linked: a token constructed with a parent reports
/// cancelled when either it or the parent is. The analysis portfolio
/// uses this to race engines under one local token (first definite
/// verdict cancels the losers) while still honoring the request-level
/// token of the enclosing service call. The parent is not owned and must
/// outlive the child.
class CancellationToken {
 public:
  CancellationToken() = default;
  explicit CancellationToken(const CancellationToken* parent) noexcept
      : parent_(parent) {}

  void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire) ||
           (parent_ != nullptr && parent_->cancelled());
  }

 private:
  std::atomic<bool> cancelled_{false};
  const CancellationToken* parent_ = nullptr;
};

}  // namespace vermem
