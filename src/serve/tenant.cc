#include "serve/tenant.h"

#include <algorithm>

#include "serve/protocol.h"

namespace tpc {
namespace serve {

TenantRegistry::TenantRegistry(const TenantQuota& default_quota,
                               bool require_registered, size_t max_tenants)
    : default_quota_(default_quota),
      require_registered_(require_registered),
      max_tenants_(max_tenants) {}

bool TenantRegistry::Register(std::string_view id, const TenantQuota& quota) {
  if (!ValidTenantId(id) || quota.weight == 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(std::string(id));
  // Quotas are immutable once registered: workers read them lock-free, and
  // the outstanding gauge/counters must survive any tuning anyway.
  if (it != index_.end()) return false;
  if (tenants_.size() >= max_tenants_) return false;
  tenants_.push_back(std::make_unique<Tenant>(std::string(id), quota));
  index_.emplace(std::string(id), tenants_.size() - 1);
  return true;
}

Tenant* TenantRegistry::Resolve(std::string_view id) {
  if (!ValidTenantId(id)) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(std::string(id));
  if (it != index_.end()) return tenants_[it->second].get();
  if (require_registered_) return nullptr;
  if (tenants_.size() >= max_tenants_) return nullptr;
  tenants_.push_back(std::make_unique<Tenant>(std::string(id), default_quota_));
  index_.emplace(std::string(id), tenants_.size() - 1);
  return tenants_.back().get();
}

bool TenantRegistry::TryReserve(Tenant* tenant, uint32_t* retry_after_ms) {
  const int32_t cap = tenant->quota_.max_outstanding;
  int32_t cur = tenant->outstanding_.load(std::memory_order_relaxed);
  while (true) {
    if (cap > 0 && cur >= cap) {
      if (retry_after_ms != nullptr) {
        // Heuristic hint: assume ~10ms per backlogged request, capped at
        // 10s.  A hint, not a promise — clients may retry sooner and simply
        // be shed again.
        const int64_t hint = static_cast<int64_t>(cur) * 10;
        *retry_after_ms = static_cast<uint32_t>(std::min<int64_t>(hint, 10000));
      }
      return false;
    }
    if (tenant->outstanding_.compare_exchange_weak(
            cur, cur + 1, std::memory_order_relaxed)) {
      return true;
    }
  }
}

void TenantRegistry::ReleaseSlot(Tenant* tenant) {
  tenant->outstanding_.fetch_sub(1, std::memory_order_relaxed);
}

std::vector<Tenant*> TenantRegistry::All() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Tenant*> out;
  out.reserve(tenants_.size());
  for (const auto& t : tenants_) out.push_back(t.get());
  return out;
}

std::string TenantRegistry::StatsJson() const {
  std::vector<Tenant*> all = All();
  std::sort(all.begin(), all.end(), [](const Tenant* a, const Tenant* b) {
    return a->id() < b->id();
  });
  auto v = [](const std::atomic<int64_t>& c) {
    return std::to_string(c.load(std::memory_order_relaxed));
  };
  std::string out = "{";
  for (size_t i = 0; i < all.size(); ++i) {
    const Tenant* t = all[i];
    const TenantCounters& c = t->counters();
    if (i > 0) out += ", ";
    out += "\"" + t->id() + "\": {";
    out += "\"admitted\": " + v(c.admitted);
    out += ", \"bad_requests\": " + v(c.bad_requests);
    out += ", \"completed\": " + v(c.completed);
    out += ", \"deadline_expired\": " + v(c.deadline_expired);
    out += ", \"decide_ns\": " + v(c.decide_ns);
    out += ", \"decided\": " + v(c.decided);
    out += ", \"drain_cancelled\": " + v(c.drain_cancelled);
    out += ", \"memory_exhausted\": " + v(c.memory_exhausted);
    out += ", \"outstanding\": " + std::to_string(t->outstanding());
    out += ", \"queue_wait_ns\": " + v(c.queue_wait_ns);
    out += ", \"shed\": " + v(c.shed);
    out += ", \"steps_exhausted\": " + v(c.steps_exhausted);
    out += ", \"weight\": " + std::to_string(t->quota().weight);
    out += "}";
  }
  out += "}";
  return out;
}

}  // namespace serve
}  // namespace tpc
