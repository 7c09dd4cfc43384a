// RAII byte-accounting shim over `Budget::ChargeBytes`.
//
// The big allocators (interner chunk arenas, schema configuration stores,
// DP tables, graphdb reachability matrices) account their growth at
// arena/table granularity through a `TrackedBytes` member: `Charge(n)`
// before growing, and the destructor releases everything that was charged,
// so a consumer that dies mid-decision (exhaustion, exception, early
// return) never leaks tracked bytes from the budget.
//
// `Reserve(total)` is the high-water variant for reused scratch buffers
// (matcher tables, per-symbol search scratch): it charges only the delta
// above the largest total seen, matching capacity-retaining containers that
// `clear()` between decisions without returning memory.  `TryCharge` and
// `TryReserve` are their soft twins for speculative allocations.

#ifndef TPC_ENGINE_TRACKED_H_
#define TPC_ENGINE_TRACKED_H_

#include <atomic>
#include <cstdint>

#include "engine/budget.h"

namespace tpc {

class TrackedBytes {
 public:
  TrackedBytes() = default;
  explicit TrackedBytes(Budget* budget) : budget_(budget) {}

  TrackedBytes(const TrackedBytes&) = delete;
  TrackedBytes& operator=(const TrackedBytes&) = delete;

  ~TrackedBytes() { ReleaseAll(); }

  /// Re-points the shim (e.g. a workspace adopted by a new context).  Any
  /// bytes charged to the previous budget are released there first.
  void Attach(Budget* budget) {
    if (budget == budget_) return;
    ReleaseAll();
    budget_ = budget;
  }

  Budget* budget() const { return budget_; }

  /// Accounts `n` more bytes.  False means the budget refused (memory limit
  /// or injected allocation fault): the caller must not allocate.  The
  /// refused bytes stay charged until release, mirroring
  /// `Budget::ChargeBytes` semantics, so the destructor stays balanced.
  bool Charge(int64_t n) {
    if (n <= 0) return true;
    charged_.fetch_add(n, std::memory_order_relaxed);
    if (budget_ == nullptr) return true;
    return budget_->ChargeBytes(n);
  }

  /// Soft charge for speculative allocations: accounts `n` bytes only when
  /// the budget accepts them without tripping (`Budget::TryChargeBytes`).  A
  /// refusal leaves *nothing* charged on this shim and does not exhaust the
  /// budget, so the caller can fall back to a non-allocating path.  Injected
  /// allocation faults still consume their slot on refusal.
  bool TryCharge(int64_t n) {
    if (n <= 0) return true;
    if (budget_ != nullptr && !budget_->TryChargeBytes(n)) return false;
    charged_.fetch_add(n, std::memory_order_relaxed);
    return true;
  }

  /// High-water charge: accounts only the growth of `total` beyond the
  /// largest total ever charged through this shim.  For containers that
  /// retain capacity across reuse.  Not thread-safe against concurrent
  /// `Reserve` on the same shim (reused scratch is per-worker by design).
  bool Reserve(int64_t total) {
    const int64_t peak = peak_.load(std::memory_order_relaxed);
    if (total <= peak) return true;
    peak_.store(total, std::memory_order_relaxed);
    return Charge(total - peak);
  }

  /// Soft high-water charge: `Reserve` through `TryCharge`.  A refusal
  /// charges nothing, leaves the high-water mark and the budget as they
  /// were, and tells the caller to take its non-allocating fallback.
  bool TryReserve(int64_t total) {
    const int64_t peak = peak_.load(std::memory_order_relaxed);
    if (total <= peak) return true;
    if (!TryCharge(total - peak)) return false;
    peak_.store(total, std::memory_order_relaxed);
    return true;
  }

  /// Returns `n` of the charged bytes early (an evicted cache entry, a
  /// shrunk table), clamped to the amount currently charged.  Does not lower
  /// the `Reserve` high-water mark — mixing `Reserve` and `Release` on one
  /// shim double-counts; consumers use either the high-water protocol or the
  /// charge/release protocol, not both.
  void Release(int64_t n) {
    if (n <= 0) return;
    int64_t current = charged_.load(std::memory_order_relaxed);
    int64_t take;
    do {
      take = current < n ? current : n;
    } while (take > 0 && !charged_.compare_exchange_weak(
                             current, current - take,
                             std::memory_order_relaxed));
    if (take > 0 && budget_ != nullptr) budget_->ReleaseBytes(take);
  }

  int64_t charged() const { return charged_.load(std::memory_order_relaxed); }

  /// Returns everything charged so far (idempotent; also run by the
  /// destructor).  Resets the high-water mark.
  void ReleaseAll() {
    const int64_t n = charged_.exchange(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
    if (n > 0 && budget_ != nullptr) budget_->ReleaseBytes(n);
  }

 private:
  Budget* budget_ = nullptr;
  std::atomic<int64_t> charged_{0};
  std::atomic<int64_t> peak_{0};
};

}  // namespace tpc

#endif  // TPC_ENGINE_TRACKED_H_
