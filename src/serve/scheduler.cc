#include "serve/scheduler.h"

#include <chrono>

namespace tpc {
namespace serve {

namespace {
int64_t NowNs() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
}  // namespace

FairScheduler::FairScheduler(int64_t quantum)
    : quantum_(quantum > 0 ? quantum : 1) {}

bool FairScheduler::Submit(ServeRequest request) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return false;
  TenantQueue& q = queues_[request.tenant];
  q.fifo.push_back(std::move(request));
  ++queued_;
  if (!q.in_ring) {
    // A newly active tenant joins the back of the ring with zero deficit:
    // it cannot jump ahead of tenants already waiting for their turn.
    q.in_ring = true;
    q.deficit = 0;
    ring_.push_back(q.fifo.back().tenant);
  }
  cv_.notify_one();
  return true;
}

bool FairScheduler::Next(ServeRequest* out) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [this] { return queued_ > 0 || closed_; });
    if (queued_ == 0) return false;  // closed_ && empty
    // DRR: serve the ring head while it has deficit and work; otherwise
    // recharge or rotate.  Each loop iteration either returns a request or
    // strictly advances the ring state, so this terminates.
    while (true) {
      Tenant* head = ring_.front();
      TenantQueue& q = queues_[head];
      if (q.fifo.empty()) {
        // Exhausted tenants leave the ring (and forfeit leftover deficit:
        // an idle tenant must not bank priority for a later burst).
        q.in_ring = false;
        q.deficit = 0;
        ring_.pop_front();
        continue;  // ring cannot be empty: queued_ > 0
      }
      if (q.deficit <= 0) {
        // Recharge as the visit begins; the tenant keeps the head slot
        // until the deficit runs out, then rotates.
        const uint32_t w = head->quota().weight;
        q.deficit += quantum_ * static_cast<int64_t>(w == 0 ? 1 : w);
      }
      --q.deficit;
      *out = std::move(q.fifo.front());
      q.fifo.pop_front();
      --queued_;
      if (q.deficit <= 0) {
        // Visit over: rotate (or drop if drained).
        ring_.pop_front();
        if (q.fifo.empty()) {
          q.in_ring = false;
          q.deficit = 0;
        } else {
          ring_.push_back(head);
        }
      } else if (q.fifo.empty()) {
        q.in_ring = false;
        q.deficit = 0;
        ring_.pop_front();
      }
      out->queue_wait_ns = NowNs() - out->enqueue_ns;
      return true;
    }
  }
}

void FairScheduler::CloseSubmit() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  cv_.notify_all();
}

bool FairScheduler::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

int64_t FairScheduler::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

}  // namespace serve
}  // namespace tpc
