// Deterministic tests of the fair-share scheduler (serve/scheduler.h).
//
// Everything here is single-consumer and order-based — no wall clocks, no
// sleeps — so the DRR invariants (per-tenant FIFO, weighted service ratios,
// bounded starvation, drain semantics) hold bit-for-bit under asan/tsan on
// a one-core container.  The end-to-end flavour of the same properties runs
// in serve_fault_test.cc; the latency flavour in bench/bench_serve.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "serve/scheduler.h"
#include "serve/tenant.h"

namespace tpc {
namespace serve {
namespace {

ServeRequest Req(Tenant* tenant, uint64_t id) {
  ServeRequest r;
  r.tenant = tenant;
  r.request_id = id;
  return r;
}

TEST(FairSchedulerTest, PerTenantFifoOrder) {
  Tenant a("a", TenantQuota{});
  FairScheduler sched;
  for (uint64_t i = 0; i < 16; ++i) ASSERT_TRUE(sched.Submit(Req(&a, i)));
  ServeRequest out;
  for (uint64_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(sched.Next(&out));
    EXPECT_EQ(out.request_id, i) << "a tenant's own requests must not "
                                    "overtake each other";
  }
  EXPECT_EQ(sched.queued(), 0);
}

TEST(FairSchedulerTest, WeightedServiceRatio) {
  TenantQuota light_quota;
  light_quota.weight = 1;
  TenantQuota heavy_quota;
  heavy_quota.weight = 3;
  Tenant light("light", light_quota);
  Tenant heavy("heavy", heavy_quota);
  FairScheduler sched;
  // Interleave submissions so both tenants are deep before any dequeue.
  for (uint64_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(sched.Submit(Req(&light, 100 + i)));
    ASSERT_TRUE(sched.Submit(Req(&heavy, 200 + i)));
  }
  // Per full round, light serves 1 and heavy serves 3.  Count heavy
  // dequeues between consecutive light dequeues.
  ServeRequest out;
  int heavy_between = 0;
  int light_seen = 0;
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(sched.Next(&out));
    if (out.tenant == &heavy) {
      ++heavy_between;
    } else {
      if (light_seen > 0) {
        EXPECT_EQ(heavy_between, 3)
            << "weight-3 tenant should get exactly 3 slots per round";
      }
      ++light_seen;
      heavy_between = 0;
    }
  }
  EXPECT_GE(light_seen, 3);
}

TEST(FairSchedulerTest, BoundedStarvationBehindDeepBacklog) {
  TenantQuota aggressor_quota;
  aggressor_quota.weight = 4;
  Tenant aggressor("aggressor", aggressor_quota);
  Tenant victim("victim", TenantQuota{});
  FairScheduler sched;
  // The adversarial shape from the paper's coNP side: a deep backlog
  // already queued when the victim's single request arrives.
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(sched.Submit(Req(&aggressor, i)));
  }
  ASSERT_TRUE(sched.Submit(Req(&victim, 999)));
  ServeRequest out;
  int before_victim = 0;
  while (true) {
    ASSERT_TRUE(sched.Next(&out));
    if (out.tenant == &victim) break;
    ++before_victim;
  }
  // Bounded starvation: at most sum_{other} quantum * weight_other requests
  // ahead — here 1 * 4 — independent of the 200-deep backlog.
  EXPECT_LE(before_victim, 4);
}

TEST(FairSchedulerTest, IdleTenantForfeitsDeficit) {
  TenantQuota heavy_quota;
  heavy_quota.weight = 8;
  Tenant bursty("bursty", heavy_quota);
  Tenant steady("steady", TenantQuota{});
  FairScheduler sched;
  // bursty submits one request, far below its 8-unit allowance, and goes
  // idle; the unused allowance must not bank.
  ASSERT_TRUE(sched.Submit(Req(&bursty, 1)));
  ServeRequest out;
  ASSERT_TRUE(sched.Next(&out));
  EXPECT_EQ(out.tenant, &bursty);
  // Now both submit; bursty's fresh visit grants at most 8 before steady,
  // not 8 + banked leftovers.
  for (uint64_t i = 0; i < 20; ++i) ASSERT_TRUE(sched.Submit(Req(&bursty, i)));
  ASSERT_TRUE(sched.Submit(Req(&steady, 999)));
  int before_steady = 0;
  while (true) {
    ASSERT_TRUE(sched.Next(&out));
    if (out.tenant == &steady) break;
    ++before_steady;
  }
  EXPECT_LE(before_steady, 8);
}

TEST(FairSchedulerTest, CloseSubmitDrainsBacklogThenStops) {
  Tenant a("a", TenantQuota{});
  FairScheduler sched;
  for (uint64_t i = 0; i < 5; ++i) ASSERT_TRUE(sched.Submit(Req(&a, i)));
  sched.CloseSubmit();
  EXPECT_TRUE(sched.closed());
  EXPECT_FALSE(sched.Submit(Req(&a, 100))) << "the drain door must be shut";
  ServeRequest out;
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(sched.Next(&out)) << "the admitted backlog still drains";
    EXPECT_EQ(out.request_id, i);
  }
  EXPECT_FALSE(sched.Next(&out)) << "closed + empty terminates workers";
}

TEST(FairSchedulerTest, QueueWaitIsStamped) {
  Tenant a("a", TenantQuota{});
  FairScheduler sched;
  ServeRequest in = Req(&a, 1);
  in.enqueue_ns = 1;  // ancient: any dequeue gives a positive wait
  ASSERT_TRUE(sched.Submit(std::move(in)));
  ServeRequest out;
  ASSERT_TRUE(sched.Next(&out));
  EXPECT_GT(out.queue_wait_ns, 0);
}

TEST(FairSchedulerTest, ConcurrentProducersAndConsumers) {
  Tenant a("a", TenantQuota{});
  TenantQuota b_quota;
  b_quota.weight = 2;
  Tenant b("b", b_quota);
  FairScheduler sched;
  constexpr int kPerProducer = 500;
  std::thread producer_a([&] {
    for (uint64_t i = 0; i < kPerProducer; ++i) {
      EXPECT_TRUE(sched.Submit(Req(&a, i)));
    }
  });
  std::thread producer_b([&] {
    for (uint64_t i = 0; i < kPerProducer; ++i) {
      EXPECT_TRUE(sched.Submit(Req(&b, i)));
    }
  });
  std::atomic<int> consumed{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      ServeRequest out;
      while (sched.Next(&out)) consumed.fetch_add(1);
    });
  }
  producer_a.join();
  producer_b.join();
  // Close only after every submit landed; consumers then drain and exit.
  sched.CloseSubmit();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(consumed.load(), 2 * kPerProducer);
  EXPECT_EQ(sched.queued(), 0);
}

}  // namespace
}  // namespace serve
}  // namespace tpc
