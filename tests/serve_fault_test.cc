// End-to-end robustness matrix for the containment daemon (serve/server.h).
//
// A live server on a Unix socket (one test covers the TCP path) is driven
// through the real client while faults land mid-batch: injected budget
// exhaustion / cancellation / allocation failure on the workers, graceful
// drain with a hard deadline, and mid-stream client disconnects.  The
// invariants under every fault:
//
//   * exactly one RESPONSE per accepted request (DrainReport.accepted ==
//     DrainReport.responded), each attributed with a stable WireStatus;
//   * no admission slot leaks (tenant outstanding returns to zero);
//   * decided verdicts match the library ground truth;
//   * the post-drain snapshot loads into a fresh service cold-equivalent.
//
// The slow instances are coNP-cell pairs decided on the default route (the
// type set) with prefilters off, because the whole multi-tenant design
// exists for the paper's coNP regime: requests that legitimately burn their
// entire budget.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/label.h"
#include "contain/containment.h"
#include "engine/engine.h"
#include "pattern/tpq_parser.h"
#include "serve/client.h"
#include "serve/server.h"
#include "service/query_service.h"

namespace tpc {
namespace serve {
namespace {

/// The contained "Where it loses" pair of DESIGN.md:
/// p = r[y][z[l1]…[ln]]/x[//l1]…[//ln] against q = *[*/l1]…[*/ln].  The
/// type set keeps about 2^n states of x's union layers and scans them
/// quadratically, so `n` tunes the cost: about 1, 4 and 45 ms at n = 9, 10
/// and 12 (RelWithDebInfo).  `salt` renames p's root so requests do not
/// fold in the verdict cache.
struct SlowPair {
  std::string p;
  std::string q;
};

SlowPair SlowInstance(int n, int salt) {
  SlowPair pair{"r" + std::to_string(salt) + "[y][z", "*"};
  std::string x = "]/x";
  for (int i = 1; i <= n; ++i) {
    const std::string l = "l" + std::to_string(i);
    pair.p += "[" + l + "]";
    x += "[//" + l + "]";
    pair.q += "[*/" + l + "]";
  }
  pair.p += x;
  return pair;
}

/// The everyday slow request; `DeepInstance` costs about four times more.
SlowPair SlowPattern(int salt) { return SlowInstance(9, salt); }
SlowPair DeepInstance(int salt) { return SlowInstance(10, salt); }

struct ServerFixture {
  LabelPool pool;
  std::unique_ptr<EngineContext> ctx;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<Server> server;
  std::string sock_path;

  ServerFixture(ServerOptions options, ServiceOptions service_options,
                const char* tag) {
    ctx = std::make_unique<EngineContext>();
    service = std::make_unique<QueryService>(&pool, ctx.get(),
                                             service_options);
    sock_path = ::testing::TempDir() + "tpc_serve_" + tag + "_" +
                std::to_string(getpid()) + ".sock";
    options.unix_path = sock_path;
    server = std::make_unique<Server>(service.get(), &pool, options);
    std::string error;
    EXPECT_TRUE(server->Start(&error)) << error;
  }
};

/// Sends every decision to the dispatcher: no prefilter accepts or refutes.
ServiceOptions SlowOptions(bool use_cache) {
  ServiceOptions o;
  o.use_cache = use_cache;
  o.use_prefilters = false;
  return o;
}

TEST(ServeFaultTest, VerdictsMatchGroundTruthOverTcp) {
  // The one TCP-path test: an ephemeral loopback port instead of a socket
  // file.  Everything else in this file exercises the Unix-domain path.
  ServiceOptions service_options;
  LabelPool pool;
  EngineContext ctx;
  QueryService service(&pool, &ctx, service_options);
  ServerOptions tcp;
  tcp.tcp_port = 0;  // ephemeral
  tcp.workers = 2;
  Server server(&service, &pool, tcp);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_GT(server.port(), 0);

  Client client;
  ASSERT_TRUE(client.ConnectTcp(server.port(), "truth", &error)) << error;
  struct Case {
    const char* p;
    const char* q;
    Mode mode;
    bool contained;
  };
  const Case cases[] = {
      {"a/b", "a//b", Mode::kWeak, true},
      {"a//b", "a/b", Mode::kWeak, false},
      {"a/b/c", "a//c", Mode::kWeak, true},
      {"a[b][c]", "a[b]", Mode::kWeak, true},
      {"a[b]", "a[b][c]", Mode::kWeak, false},
      {"a/*", "a//b", Mode::kWeak, false},
  };
  uint64_t id = 1;
  for (const Case& c : cases) {
    ASSERT_TRUE(client.SendQuery(id++, c.mode, c.p, c.q, &error)) << error;
  }
  std::map<uint64_t, ResponseFrame> responses;
  for (size_t i = 0; i < std::size(cases); ++i) {
    ResponseFrame resp;
    ASSERT_TRUE(client.ReadResponse(&resp, &error)) << error;
    EXPECT_TRUE(responses.emplace(resp.request_id, resp).second)
        << "duplicate response for id " << resp.request_id;
  }
  for (size_t i = 0; i < std::size(cases); ++i) {
    const auto it = responses.find(i + 1);
    ASSERT_NE(it, responses.end()) << "no response for id " << i + 1;
    EXPECT_EQ(it->second.status, WireStatus::kOk);
    EXPECT_EQ(it->second.contained, cases[i].contained)
        << cases[i].p << " vs " << cases[i].q;
  }
  client.Close();
  server.RequestDrain();
  const DrainReport report = server.Wait();
  EXPECT_EQ(report.accepted, static_cast<int64_t>(std::size(cases)));
  EXPECT_EQ(report.accepted, report.responded);
}

TEST(ServeFaultTest, InjectedFaultsMidBatchStillAnswerEveryRequest) {
  struct FaultCase {
    const char* name;
    void (*arm)(FaultPlan*);
    WireStatus expected;
  };
  const FaultCase fault_cases[] = {
      {"exhaust",
       [](FaultPlan* plan) { plan->exhaust_at_charge = 2000; },
       WireStatus::kExhaustedSteps},
      {"cancel",
       [](FaultPlan* plan) { plan->cancel_at_charge = 2000; },
       WireStatus::kCancelledDrain},
      {"alloc",
       [](FaultPlan* plan) { plan->fail_alloc_at = 5; },
       WireStatus::kExhaustedMemory},
  };
  for (const FaultCase& fc : fault_cases) {
    SCOPED_TRACE(fc.name);
    ServerOptions options;
    options.workers = 2;
    fc.arm(&options.worker_config.fault_plan);
    ServerFixture fx(options, SlowOptions(/*use_cache=*/false),
                     fc.name);

    Client client;
    std::string error;
    ASSERT_TRUE(client.ConnectUnix(fx.sock_path, "faulty", &error)) << error;
    constexpr int kRequests = 8;
    for (uint64_t id = 1; id <= kRequests; ++id) {
      const SlowPair slow = SlowPattern(static_cast<int>(id));
      ASSERT_TRUE(client.SendQuery(id, Mode::kWeak, slow.p, slow.q, &error))
          << error;
    }
    std::map<uint64_t, WireStatus> statuses;
    for (int i = 0; i < kRequests; ++i) {
      ResponseFrame resp;
      ASSERT_TRUE(client.ReadResponse(&resp, &error)) << error;
      EXPECT_TRUE(statuses.emplace(resp.request_id, resp.status).second);
    }
    int faulted = 0;
    for (uint64_t id = 1; id <= kRequests; ++id) {
      ASSERT_TRUE(statuses.count(id)) << "no response for id " << id;
      const WireStatus s = statuses[id];
      EXPECT_TRUE(s == WireStatus::kOk || s == fc.expected)
          << "id " << id << " got " << WireStatusName(s);
      if (s == fc.expected) ++faulted;
    }
    // The plans are one-shot per worker context: at least one request hits
    // the fault, at most one per worker, and every other request recovers.
    EXPECT_GE(faulted, 1);
    EXPECT_LE(faulted, options.workers);

    client.Close();
    fx.server->RequestDrain();
    const DrainReport report = fx.server->Wait();
    EXPECT_EQ(report.accepted, kRequests);
    EXPECT_EQ(report.accepted, report.responded);
    Tenant* tenant = fx.server->tenants().Resolve("faulty");
    ASSERT_NE(tenant, nullptr);
    EXPECT_EQ(tenant->outstanding(), 0) << "a faulted request leaked a slot";
  }
}

TEST(ServeFaultTest, DrainMidBatchAnswersEverythingAndFlushesSnapshot) {
  const std::string snapshot =
      ::testing::TempDir() + "tpc_serve_drain_" + std::to_string(getpid()) +
      ".snap";
  ServerOptions options;
  options.workers = 2;
  options.drain_ms = 100;
  options.snapshot_path = snapshot;
  // Cache ON (the snapshot needs the warm tier) but distinct patterns per
  // request, so no decision is a cache hit.
  ServerFixture fx(options, SlowOptions(/*use_cache=*/true), "drain");

  Client client;
  std::string error;
  ASSERT_TRUE(client.ConnectUnix(fx.sock_path, "drained", &error)) << error;
  constexpr int kRequests = 30;
  for (uint64_t id = 1; id <= kRequests; ++id) {
    const SlowPair slow = SlowPattern(static_cast<int>(id));
    ASSERT_TRUE(client.SendQuery(id, Mode::kWeak, slow.p, slow.q, &error))
        << error;
  }
  // Let a few decide, then pull the plug mid-batch.
  std::map<uint64_t, WireStatus> statuses;
  for (int i = 0; i < 3; ++i) {
    ResponseFrame resp;
    ASSERT_TRUE(client.ReadResponse(&resp, &error)) << error;
    statuses.emplace(resp.request_id, resp.status);
  }
  fx.server->RequestDrain();
  for (int i = 3; i < kRequests; ++i) {
    ResponseFrame resp;
    ASSERT_TRUE(client.ReadResponse(&resp, &error))
        << error << " (after " << i << " responses)";
    EXPECT_TRUE(statuses.emplace(resp.request_id, resp.status).second);
  }
  // Every request answered exactly once, each with a decided or drain code.
  int decided = 0;
  for (uint64_t id = 1; id <= kRequests; ++id) {
    ASSERT_TRUE(statuses.count(id)) << "request " << id << " was dropped";
    const WireStatus s = statuses[id];
    EXPECT_TRUE(s == WireStatus::kOk || s == WireStatus::kCancelledDrain)
        << WireStatusName(s);
    if (s == WireStatus::kOk) ++decided;
  }
  EXPECT_GE(decided, 3) << "the pre-drain responses were decided";

  const DrainReport report = fx.server->Wait();
  EXPECT_EQ(report.accepted, report.responded)
      << "an accepted request was dropped or answered twice";
  EXPECT_TRUE(report.snapshot_saved) << report.snapshot_error;

  // The flushed snapshot warm-starts a fresh service cold-equivalently: a
  // decided verdict replays with the same answer.
  QueryService warm(&fx.pool, fx.ctx.get(),
                    SlowOptions(/*use_cache=*/true));
  ASSERT_TRUE(warm.LoadSnapshot(snapshot, &error)) << error;
  ParseDiagnostic diag;
  const SlowPair slow = SlowPattern(1);
  std::optional<Tpq> p = ParseTpqChecked(slow.p, &fx.pool, &diag);
  std::optional<Tpq> q = ParseTpqChecked(slow.q, &fx.pool, &diag);
  ASSERT_TRUE(p.has_value() && q.has_value());
  const ContainmentResult r = warm.Contains(*p, *q, Mode::kWeak);
  ASSERT_EQ(r.outcome, Outcome::kDecided);
  EXPECT_TRUE(r.contained);
  unlink(snapshot.c_str());
}

TEST(ServeFaultTest, MidStreamDisconnectNeverLeaksSlotsOrResponses) {
  ServerOptions options;
  options.workers = 2;
  ServerFixture fx(options, SlowOptions(/*use_cache=*/false), "disco");

  {
    Client client;
    std::string error;
    ASSERT_TRUE(client.ConnectUnix(fx.sock_path, "ghost", &error)) << error;
    for (uint64_t id = 1; id <= 10; ++id) {
      const SlowPair slow = SlowPattern(static_cast<int>(id));
      ASSERT_TRUE(client.SendQuery(id, Mode::kWeak, slow.p, slow.q, &error))
          << error;
    }
    client.Abort();  // vanish without reading a single response
  }
  // A second client still gets service while the ghost's backlog drains.
  {
    Client client;
    std::string error;
    ASSERT_TRUE(client.ConnectUnix(fx.sock_path, "alive", &error)) << error;
    ASSERT_TRUE(client.SendQuery(1, Mode::kWeak, "a/b", "a//b", &error));
    ResponseFrame resp;
    ASSERT_TRUE(client.ReadResponse(&resp, &error)) << error;
    EXPECT_EQ(resp.status, WireStatus::kOk);
    EXPECT_TRUE(resp.contained);
    client.Close();
  }
  fx.server->RequestDrain();
  const DrainReport report = fx.server->Wait();
  // The ghost's admitted requests still completed and were counted; their
  // bytes were simply discarded at routing time.
  EXPECT_EQ(report.accepted, report.responded);
  Tenant* ghost = fx.server->tenants().Resolve("ghost");
  ASSERT_NE(ghost, nullptr);
  EXPECT_EQ(ghost->outstanding(), 0);
  EXPECT_EQ(ghost->counters().completed.load(),
            ghost->counters().admitted.load());
}

TEST(ServeFaultTest, AdmissionCapShedsWithRetryHint) {
  ServerOptions options;
  options.workers = 1;
  options.default_quota.max_outstanding = 2;
  ServerFixture fx(options, SlowOptions(/*use_cache=*/false), "shed");

  Client client;
  std::string error;
  ASSERT_TRUE(client.ConnectUnix(fx.sock_path, "capped", &error)) << error;
  // 6 slow queries against an outstanding cap of 2: the tail is shed.  The
  // shed count below assumes all 6 sends land before the single worker's
  // first decision frees a slot, so this test uses an instance of n = 12:
  // the client's 6 write syscalls (and the server's reads of them) must win
  // a race against a decision of tens of milliseconds.  At n = 10 (4 ms) a
  // descheduled IO thread lost that race about once in fifteen runs.  Only
  // the two admitted requests are decided.
  for (uint64_t id = 1; id <= 6; ++id) {
    const SlowPair slow = SlowInstance(12, static_cast<int>(id));
    ASSERT_TRUE(client.SendQuery(id, Mode::kWeak, slow.p, slow.q, &error))
        << error;
  }
  int ok = 0, shed = 0;
  for (int i = 0; i < 6; ++i) {
    ResponseFrame resp;
    ASSERT_TRUE(client.ReadResponse(&resp, &error)) << error;
    if (resp.status == WireStatus::kOk) ++ok;
    if (resp.status == WireStatus::kShedOverload) {
      ++shed;
      EXPECT_TRUE(resp.retryable);
      EXPECT_GT(resp.retry_after_ms, 0u);
    }
  }
  EXPECT_EQ(ok + shed, 6);
  // All 6 queries land before the first decision on the single worker, so
  // at most 2 can hold slots; the rest shed.
  EXPECT_GE(shed, 4);
  client.Close();
  fx.server->RequestDrain();
  const DrainReport report = fx.server->Wait();
  EXPECT_EQ(report.accepted, report.responded);
}

TEST(ServeFaultTest, FairShareIsolatesLightTenantFromAggressor) {
  // Two aggressor shapes: 10 distinct slow instances, and 10 copies
  // of one instance sharing p (nothing folds them: the cache is off).  A
  // scheduler that dequeued same-p requests together would serve the
  // second flood several per ring visit against the light tenant's 1.
  for (const bool shared_p : {false, true}) {
    SCOPED_TRACE(shared_p ? "aggressor requests share p"
                          : "aggressor requests are distinct");
    ServerOptions options;
    options.workers = 1;  // deterministic DRR interleaving on one worker
    ServerFixture fx(options, SlowOptions(/*use_cache=*/false),
                     shared_p ? "fair_shared" : "fair");

    Client aggressor;
    Client light;
    std::string error;
    ASSERT_TRUE(aggressor.ConnectUnix(fx.sock_path, "aggr", &error)) << error;
    ASSERT_TRUE(light.ConnectUnix(fx.sock_path, "light", &error)) << error;
    // The aggressor floods 10 slow instances; once the server has
    // admitted all of them, the light tenant sends 5 trivial ones (distinct,
    // so no two of them share p either).  Under FIFO the light tenant would
    // wait behind the whole backlog; under DRR its requests interleave 1:1
    // and finish well before the flood.  The instances are `DeepInstance`s,
    // so the backlog outlasts the admission wait below by a wide margin.
    constexpr int kAggressor = 10;
    for (uint64_t id = 1; id <= kAggressor; ++id) {
      const SlowPair slow =
          DeepInstance(shared_p ? 0 : static_cast<int>(id));
      ASSERT_TRUE(
          aggressor.SendQuery(id, Mode::kWeak, slow.p, slow.q, &error))
          << error;
    }
    const Tenant* aggr_tenant = fx.server->tenants().Resolve("aggr");
    ASSERT_NE(aggr_tenant, nullptr);
    for (int wait_ms = 0;
         aggr_tenant->counters().admitted.load() < kAggressor; ++wait_ms) {
      ASSERT_LT(wait_ms, 5000) << "aggressor flood was never admitted";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    constexpr int kLight = 5;
    for (uint64_t id = 1; id <= kLight; ++id) {
      const std::string leaf = "b" + std::to_string(id);
      ASSERT_TRUE(light.SendQuery(id, Mode::kWeak, "a/" + leaf, "a//" + leaf,
                                  &error));
    }
    for (int i = 0; i < kLight; ++i) {
      ResponseFrame resp;
      ASSERT_TRUE(light.ReadResponse(&resp, &error)) << error;
      EXPECT_EQ(resp.status, WireStatus::kOk);
    }
    // The instant the light tenant's last response arrived, the aggressor's
    // flood must not be finished — that would mean the light tenant waited
    // behind it (the single-FIFO failure mode this layer exists to prevent).
    std::string stats;
    ASSERT_TRUE(light.Stats(&stats, &error)) << error;
    const size_t aggr_pos = stats.find("\"aggr\"");
    ASSERT_NE(aggr_pos, std::string::npos) << stats;
    const size_t completed_pos = stats.find("\"completed\": ", aggr_pos);
    ASSERT_NE(completed_pos, std::string::npos) << stats;
    const int aggr_completed =
        std::stoi(stats.substr(completed_pos + strlen("\"completed\": ")));
    EXPECT_LT(aggr_completed, kAggressor)
        << "light tenant waited behind the aggressor's entire backlog";

    for (int i = 0; i < kAggressor; ++i) {
      ResponseFrame resp;
      ASSERT_TRUE(aggressor.ReadResponse(&resp, &error)) << error;
      EXPECT_EQ(resp.status, WireStatus::kOk);
    }
    light.Close();
    aggressor.Close();
    fx.server->RequestDrain();
    const DrainReport report = fx.server->Wait();
    EXPECT_EQ(report.accepted, report.responded);
  }
}

}  // namespace
}  // namespace serve
}  // namespace tpc
