// Fair-share scheduling of tenant requests over the engine thread pool.
//
// The threat model comes straight from the paper's complexity tables: one
// tenant streaming coNP sweep instances (each legitimately burning its full
// per-request budget) must not starve a tenant whose PTIME-fragment
// requests decide in microseconds.  A single FIFO queue fails that test —
// every cheap request waits behind the whole adversarial backlog.
//
// `FairScheduler` is a weighted deficit-round-robin (DRR) over per-tenant
// FIFO queues:
//
//   * each tenant owns a FIFO of its admitted requests, dequeued in
//     arrival order one request at a time;
//   * active tenants sit in a round-robin ring; the head tenant accumulates
//     `quantum * weight` deficit per visit and dequeues one request per
//     unit of deficit before the ring rotates;
//   * bounded starvation (asserted in serve_scheduler_test.cc): once a
//     request is at the head of its tenant's queue, at most
//     sum_{other tenants} quantum * weight_other requests are served before
//     it — a constant independent of any queue's depth.  This is the
//     mechanism behind the bench_serve isolation target: an adversarial
//     tenant degrades only its own latency.  Every dequeue hands one
//     request to one worker, which decides it alone under its tenant's
//     quota, so the bound counts whole decisions and the deficit never
//     goes negative.
//
// Thread-safety: Submit is called by the IO thread, Next by every worker;
// one mutex guards the ring (request handling dwarfs the critical section).
// `CloseSubmit` flips the drain door: Submit starts failing, Next keeps
// draining the backlog and returns false only once it is empty — so every
// admitted request is still handed to exactly one worker.

#ifndef TPC_SERVE_SCHEDULER_H_
#define TPC_SERVE_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>

#include "contain/containment.h"
#include "serve/tenant.h"

namespace tpc {
namespace serve {

/// One admitted request travelling from the IO thread to a worker.  Pattern
/// sources stay unparsed: parsing is real work and must happen on the
/// worker, charged to the tenant, not on the shared IO thread.
struct ServeRequest {
  uint64_t conn_id = 0;
  uint64_t request_id = 0;
  Tenant* tenant = nullptr;
  Mode mode = Mode::kWeak;
  std::string p_src;
  std::string q_src;
  /// steady_clock ns at admission; the scheduler stamps `queue_wait_ns` at
  /// dequeue.
  int64_t enqueue_ns = 0;
  int64_t queue_wait_ns = 0;
};

class FairScheduler {
 public:
  /// `quantum` units of deficit (= requests, all costs are 1) granted per
  /// ring visit per unit of weight.
  explicit FairScheduler(int64_t quantum = 1);

  FairScheduler(const FairScheduler&) = delete;
  FairScheduler& operator=(const FairScheduler&) = delete;

  /// Enqueues one admitted request on its tenant's FIFO.  False after
  /// `CloseSubmit` — the caller still owes the request a response.
  bool Submit(ServeRequest request);

  /// Blocks until a request is available, dequeues it in DRR order and
  /// stamps its `queue_wait_ns`.  Returns false only when the scheduler is
  /// closed AND every queue is empty — the worker-loop exit condition.
  bool Next(ServeRequest* out);

  /// Drain door: no further Submit succeeds; blocked Next callers wake and
  /// drain the backlog.
  void CloseSubmit();

  bool closed() const;

  /// Queued (submitted, not yet dequeued) requests across all tenants.
  int64_t queued() const;

 private:
  struct TenantQueue {
    std::deque<ServeRequest> fifo;
    int64_t deficit = 0;
    bool in_ring = false;
  };

  const int64_t quantum_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
  int64_t queued_ = 0;
  std::unordered_map<Tenant*, TenantQueue> queues_;
  std::deque<Tenant*> ring_;
};

}  // namespace serve
}  // namespace tpc

#endif  // TPC_SERVE_SCHEDULER_H_
