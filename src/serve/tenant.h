// Multi-tenant admission control for the containment daemon.
//
// The paper's dichotomy is the whole reason this layer exists: a tenant can
// submit PTIME fragment pairs that decide in microseconds, or coNP sweep
// instances that exhaust any budget you give them (Theorem 3.3).  A shared
// daemon therefore treats tenants, not requests, as the unit of resource
// policy:
//
//   * every tenant has a registered `TenantQuota` — per-request step /
//     deadline / tracked-memory limits that the worker arms onto its
//     `Budget` before deciding, an outstanding-request cap that bounds how
//     much of the queue one tenant can occupy, and a fair-share weight for
//     the deficit scheduler;
//   * admission is O(1) and happens on the IO thread: a request either
//     reserves an outstanding slot or is shed immediately with
//     `kShedOverload` and a retry-after hint — the daemon never queues
//     unboundedly on behalf of a tenant;
//   * per-tenant counters (admitted / shed / completed / deadline_expired /
//     queue_wait_ns / ...) feed the STATS frame so an operator can see who
//     is burning the budget.
//
// Reservation discipline (asserted by serve_protocol_test and
// serve_fault_test): `TryReserve` and `ReleaseSlot` are strictly paired —
// one release per reservation, exactly when the request's single RESPONSE
// frame is generated — so a malformed or faulted request can never leak an
// admission slot.

#ifndef TPC_SERVE_TENANT_H_
#define TPC_SERVE_TENANT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace tpc {
namespace serve {

/// Per-tenant resource policy.  Zero limits mean "unlimited" for the
/// engine-budget triple (matching `Budget::Arm`).
struct TenantQuota {
  /// Per-request step budget (0 = unlimited).
  int64_t step_limit = 0;
  /// Per-request compute deadline in ms, armed at dequeue — queue wait does
  /// not consume it (0 = unlimited).
  int64_t deadline_ms = 0;
  /// Per-request tracked-memory budget in bytes (0 = unlimited).
  int64_t memory_limit = 0;
  /// Cap on admitted-but-unanswered requests (queued + executing).  At the
  /// cap, new requests are shed with a retry-after hint.
  int32_t max_outstanding = 64;
  /// Fair-share weight for the deficit scheduler (>= 1): a tenant with
  /// weight w is served up to w*quantum consecutive requests per round.
  uint32_t weight = 1;
};

/// Atomic per-tenant observability counters, dumped by the STATS frame.
struct TenantCounters {
  std::atomic<int64_t> admitted{0};
  std::atomic<int64_t> shed{0};
  std::atomic<int64_t> completed{0};          // one per RESPONSE generated
  std::atomic<int64_t> decided{0};            // RESPONSEs with status OK
  std::atomic<int64_t> deadline_expired{0};   // reason kDeadline
  std::atomic<int64_t> steps_exhausted{0};    // reason kSteps
  std::atomic<int64_t> memory_exhausted{0};   // reason kMemory
  std::atomic<int64_t> drain_cancelled{0};    // reason kCancelled / drain
  std::atomic<int64_t> bad_requests{0};
  std::atomic<int64_t> queue_wait_ns{0};      // total scheduler wait
  std::atomic<int64_t> decide_ns{0};          // total worker compute time
};

/// One tenant: identity, quota, counters and the outstanding-slot gauge.
/// Created once by the registry and never destroyed while the server lives,
/// so workers hold plain pointers.
class Tenant {
 public:
  Tenant(std::string id, const TenantQuota& quota)
      : id_(std::move(id)), quota_(quota) {}

  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  const std::string& id() const { return id_; }
  const TenantQuota& quota() const { return quota_; }
  TenantCounters& counters() { return counters_; }
  const TenantCounters& counters() const { return counters_; }

  int32_t outstanding() const {
    return outstanding_.load(std::memory_order_relaxed);
  }

 private:
  friend class TenantRegistry;
  const std::string id_;
  const TenantQuota quota_;
  TenantCounters counters_;
  std::atomic<int32_t> outstanding_{0};
};

/// The tenant directory plus the admission gate.  Thread-safe: Resolve and
/// Register take a mutex (cold path — once per connection / config line);
/// TryReserve / ReleaseSlot are lock-free on the tenant's own gauge (hot
/// path — once per request).
class TenantRegistry {
 public:
  /// `default_quota` applies to tenants that HELLO without a prior
  /// `Register` call; with `require_registered` those are rejected with
  /// `kUnknownTenant` instead.  `max_tenants` bounds the directory so a
  /// hostile client cannot intern unbounded tenant ids.
  explicit TenantRegistry(const TenantQuota& default_quota = {},
                          bool require_registered = false,
                          size_t max_tenants = 1024);

  /// Registers (or re-registers) `id` with an explicit quota.  Returns
  /// false for invalid ids or a full directory.
  bool Register(std::string_view id, const TenantQuota& quota);

  /// Looks `id` up, creating it with the default quota unless registration
  /// is required.  Returns null for invalid ids, unknown tenants under
  /// `require_registered`, or a full directory.
  Tenant* Resolve(std::string_view id);

  /// Admission: reserves one outstanding slot.  On refusal returns false
  /// and writes a retry-after hint proportional to the backlog.
  bool TryReserve(Tenant* tenant, uint32_t* retry_after_ms);

  /// Returns the slot taken by `TryReserve`.  Call exactly once, when the
  /// request's RESPONSE is generated.
  void ReleaseSlot(Tenant* tenant);

  /// Snapshot of every tenant (stable iteration order: registration order).
  std::vector<Tenant*> All() const;

  /// `{"tenant_id": {counter: value, ...}, ...}` sorted by tenant id —
  /// the per-tenant half of the STATS frame.
  std::string StatsJson() const;

 private:
  const TenantQuota default_quota_;
  const bool require_registered_;
  const size_t max_tenants_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, size_t> index_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
};

}  // namespace serve
}  // namespace tpc

#endif  // TPC_SERVE_TENANT_H_
