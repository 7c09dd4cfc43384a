// Fault isolation for grouped decisions — the default route, whose
// general-cell members each run the type set on their own context, and the
// grouped canonical sweep (`force_canonical`): a member whose budget
// exhausts, cancels, or fails a tracked allocation mid-decision retires
// ALONE.
// Its groupmates must still decide with the reference verdicts, the
// faulted member must either decide correctly anyway (e.g. an allocation
// failure mid-compile falls back to the generic DP) or report the injected
// reason, and a reset context must re-decide the same instance cleanly —
// at the contain level, under the chunked-parallel grouped sweep, and
// through the query service (whose cache must never absorb a faulted
// verdict).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "base/label.h"
#include "contain/containment.h"
#include "engine/engine.h"
#include "engine/fault_injection.h"
#include "reductions/hardness_families.h"
#include "service/query_service.h"

namespace tpc {
namespace {

enum class FaultKind { kExhaust, kCancel, kAlloc };

/// The same four equal-bound members as group_agreement_test: A, B, C
/// contained (full sweep each), D refuted at the first model.
struct GroupInstance {
  Tpq p;
  std::vector<Tpq> qs;
  std::vector<bool> reference;
};

GroupInstance MakeGroupInstance(LabelPool* pool) {
  GroupInstance out;
  ConpFamilyInstance inst = BuildConpFamily(3, pool);
  out.p = std::move(inst.p);
  const LabelId c = pool->Intern("c");
  const LabelId u = pool->Intern("u");

  Tpq a(kWildcard);
  NodeId v = 0;
  for (int i = 0; i < 3; ++i) v = a.AddChild(v, kWildcard, EdgeKind::kChild);
  a.AddChild(v, c, EdgeKind::kChild);

  Tpq b(kWildcard);
  v = b.AddChild(0, kWildcard, EdgeKind::kChild);
  v = b.AddChild(v, kWildcard, EdgeKind::kChild);
  b.AddChild(v, c, EdgeKind::kChild);
  b.AddChild(v, kWildcard, EdgeKind::kChild);

  Tpq cq(kWildcard);
  v = cq.AddChild(0, kWildcard, EdgeKind::kChild);
  cq.AddChild(v, kWildcard, EdgeKind::kChild);
  v = cq.AddChild(v, kWildcard, EdgeKind::kChild);
  cq.AddChild(v, c, EdgeKind::kChild);

  Tpq d(kWildcard);
  v = 0;
  for (int i = 0; i < 3; ++i) v = d.AddChild(v, kWildcard, EdgeKind::kChild);
  d.AddChild(v, u, EdgeKind::kChild);

  out.qs.push_back(std::move(a));
  out.qs.push_back(std::move(b));
  out.qs.push_back(std::move(cq));
  out.qs.push_back(std::move(d));
  for (const Tpq& q : out.qs) {
    ContainmentResult r = Contains(out.p, q, Mode::kWeak, pool);
    EXPECT_EQ(r.outcome, Outcome::kDecided);
    out.reference.push_back(r.contained);
  }
  return out;
}

/// Runs the group with a never-firing plan on `victim`'s context and
/// returns how many budget charges / tracked allocations that member saw —
/// the fault-point space for the matrices below.
struct ChargeSpace {
  int64_t charges = 0;
  int64_t allocs = 0;
};

ChargeSpace ProbeVictim(const GroupInstance& inst, size_t victim,
                        LabelPool* pool, const EngineConfig& group_config,
                        const ContainmentOptions& options) {
  EngineConfig probe_config;
  probe_config.fault_plan.exhaust_at_charge = INT64_MAX;
  std::vector<std::unique_ptr<EngineContext>> ctxs;
  std::vector<GroupMember> members;
  for (size_t i = 0; i < inst.qs.size(); ++i) {
    ctxs.push_back(i == victim ? std::make_unique<EngineContext>(probe_config)
                               : std::make_unique<EngineContext>());
    members.push_back({&inst.qs[i], ctxs.back().get()});
  }
  EngineContext group_ctx(group_config);
  std::vector<ContainmentResult> results =
      ContainsGroup(inst.p, members, Mode::kWeak, pool, &group_ctx, options);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].outcome, Outcome::kDecided);
    EXPECT_EQ(results[i].contained, inst.reference[i]);
  }
  ChargeSpace space;
  space.charges = ctxs[victim]->fault_injector()->charges_seen();
  space.allocs = ctxs[victim]->fault_injector()->allocs_seen();
  return space;
}

/// Every point up to `cap`, then `samples` pseudo-random points across the
/// rest of the space (service_fault_test's matrix shape).
std::vector<int64_t> FaultPoints(int64_t space, int64_t cap, int samples,
                                 uint64_t seed) {
  std::vector<int64_t> points;
  for (int64_t p = 1; p <= space && p <= cap; ++p) points.push_back(p);
  if (space > cap) {
    for (int i = 0; i < samples; ++i) {
      points.push_back(DeriveFaultPoint(seed, i, space));
    }
  }
  return points;
}

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kExhaust:
      return "exhaust";
    case FaultKind::kCancel:
      return "cancel";
    case FaultKind::kAlloc:
      return "alloc";
  }
  return "?";
}

ExhaustionReason ExpectedReason(FaultKind kind) {
  switch (kind) {
    case FaultKind::kExhaust:
      return ExhaustionReason::kSteps;
    case FaultKind::kCancel:
      return ExhaustionReason::kCancelled;
    case FaultKind::kAlloc:
      return ExhaustionReason::kMemory;
  }
  return ExhaustionReason::kNone;
}

EngineConfig VictimConfig(FaultKind kind, int64_t point) {
  EngineConfig config;
  switch (kind) {
    case FaultKind::kExhaust:
      config.fault_plan.exhaust_at_charge = point;
      break;
    case FaultKind::kCancel:
      config.fault_plan.cancel_at_charge = point;
      break;
    case FaultKind::kAlloc:
      config.fault_plan.fail_alloc_at = point;
      break;
  }
  return config;
}

/// The isolation contract, checked for one (kind, point) cell: groupmates
/// always decide with reference verdicts; the victim decides correctly or
/// carries the injected reason; the victim's reset context recovers.
void CheckFaultedGroup(const GroupInstance& inst, size_t victim,
                       FaultKind kind, int64_t point, LabelPool* pool,
                       const EngineConfig& group_config,
                       const ContainmentOptions& options) {
  std::vector<std::unique_ptr<EngineContext>> ctxs;
  std::vector<GroupMember> members;
  for (size_t i = 0; i < inst.qs.size(); ++i) {
    ctxs.push_back(i == victim
                       ? std::make_unique<EngineContext>(
                             VictimConfig(kind, point))
                       : std::make_unique<EngineContext>());
    members.push_back({&inst.qs[i], ctxs.back().get()});
  }
  EngineContext group_ctx(group_config);
  std::vector<ContainmentResult> results =
      ContainsGroup(inst.p, members, Mode::kWeak, pool, &group_ctx, options);

  for (size_t i = 0; i < results.size(); ++i) {
    if (i == victim) continue;
    ASSERT_EQ(results[i].outcome, Outcome::kDecided)
        << "groupmate " << i << " poisoned by victim fault at " << FaultKindName(kind) << " point " << point;
    EXPECT_EQ(results[i].contained, inst.reference[i])
        << "groupmate " << i << ", " << FaultKindName(kind) << " point " << point;
  }
  const ContainmentResult& vr = results[victim];
  if (vr.outcome == Outcome::kDecided) {
    // Legitimate: the fault landed after the verdict was certain, or an
    // alloc failure mid-compile fell back to the generic DP.
    EXPECT_EQ(vr.contained, inst.reference[victim]) << FaultKindName(kind) << " point " << point;
  } else {
    EXPECT_EQ(vr.reason, ExpectedReason(kind)) << FaultKindName(kind) << " point " << point;
  }

  // Recovery: once the one-shot fault has fired, clearing the budget must
  // let the same context re-decide the instance it faulted on.  (If the
  // victim decided before its fault point, the plan is still pending and
  // would legitimately fire during a rerun — skip those cells.)
  if (vr.outcome == Outcome::kDecided) return;
  ctxs[victim]->ResetBudget();
  ContainmentResult again = Contains(inst.p, inst.qs[victim], Mode::kWeak,
                                     pool, ctxs[victim].get(), options);
  ASSERT_EQ(again.outcome, Outcome::kDecided) << FaultKindName(kind) << " point " << point;
  EXPECT_EQ(again.contained, inst.reference[victim]) << FaultKindName(kind) << " point " << point;
}

TEST(GroupFaultTest, SequentialGroupIsolatesMemberFaults) {
  LabelPool pool;
  GroupInstance inst = MakeGroupInstance(&pool);
  const EngineConfig group_config;  // sequential grouped sweep
  for (bool force_canonical : {false, true}) {
    ContainmentOptions options;
    options.force_canonical = force_canonical;
    // Victim 1 (pattern B): a contained member, so every fault kind can
    // land mid-decision (mid-enumeration on the sweep) while groupmates
    // are still live.
    const size_t victim = 1;
    ChargeSpace space =
        ProbeVictim(inst, victim, &pool, group_config, options);
    ASSERT_GT(space.charges, 0);
    ASSERT_GT(space.allocs, 0);

    for (int64_t point : FaultPoints(space.charges, 10, 8, 0xA11CE)) {
      CheckFaultedGroup(inst, victim, FaultKind::kExhaust, point, &pool,
                        group_config, options);
      CheckFaultedGroup(inst, victim, FaultKind::kCancel, point, &pool,
                        group_config, options);
    }
    for (int64_t point : FaultPoints(space.allocs, 6, 6, 0xB0B)) {
      CheckFaultedGroup(inst, victim, FaultKind::kAlloc, point, &pool,
                        group_config, options);
    }
    // The refuted member as victim: it is refuted by the first model, so
    // faults race its own retirement — groupmates must not notice either
    // way.
    for (int64_t point : {int64_t{1}, int64_t{2}, int64_t{3}}) {
      CheckFaultedGroup(inst, 3, FaultKind::kExhaust, point, &pool,
                        group_config, options);
    }
  }
}

TEST(GroupFaultTest, ParallelGroupIsolatesMemberFaults) {
  LabelPool pool;
  GroupInstance inst = MakeGroupInstance(&pool);
  EngineConfig group_config;
  group_config.threads = 2;
  group_config.parallel_threshold = 2;  // engage chunking on small spaces
  group_config.parallel_chunk = 4;
  ContainmentOptions sweep;  // only the shared sweep runs chunks
  sweep.force_canonical = true;
  const size_t victim = 1;
  ChargeSpace space = ProbeVictim(inst, victim, &pool, group_config, sweep);
  ASSERT_GT(space.charges, 0);

  for (int64_t point : FaultPoints(space.charges, 4, 6, 0xCAFE)) {
    CheckFaultedGroup(inst, victim, FaultKind::kExhaust, point, &pool,
                      group_config, sweep);
    CheckFaultedGroup(inst, victim, FaultKind::kCancel, point, &pool,
                      group_config, sweep);
  }
  for (int64_t point : FaultPoints(space.allocs, 3, 4, 0xD00D)) {
    CheckFaultedGroup(inst, victim, FaultKind::kAlloc, point, &pool,
                      group_config, sweep);
  }
}

// Service-level isolation: a faulted member of a ContainsGroupFor call
// neither disturbs its groupmates nor leaves anything behind — the same
// pair re-decided on a healthy context gets the right verdict, proving the
// cache never absorbed the faulted attempt.
TEST(GroupFaultTest, ServiceGroupNeverCachesFaultedMembers) {
  LabelPool pool;
  GroupInstance inst = MakeGroupInstance(&pool);
  const size_t victim = 1;

  for (int64_t point : {int64_t{1}, int64_t{5}, int64_t{50}, int64_t{5000}}) {
    EngineContext service_ctx;
    QueryService service(&pool, &service_ctx);
    std::vector<std::unique_ptr<EngineContext>> ctxs;
    std::vector<QueryService::GroupQuery> queries;
    for (size_t i = 0; i < inst.qs.size(); ++i) {
      ctxs.push_back(i == victim
                         ? std::make_unique<EngineContext>(
                               VictimConfig(FaultKind::kExhaust, point))
                         : std::make_unique<EngineContext>());
      queries.push_back({&inst.p, &inst.qs[i], Mode::kWeak, ctxs.back().get()});
    }
    std::vector<ContainmentResult> results = service.ContainsGroupFor(queries);
    for (size_t i = 0; i < results.size(); ++i) {
      if (i == victim) continue;
      ASSERT_EQ(results[i].outcome, Outcome::kDecided)
          << "member " << i << ", point " << point;
      EXPECT_EQ(results[i].contained, inst.reference[i])
          << "member " << i << ", point " << point;
    }
    if (results[victim].outcome == Outcome::kDecided) {
      EXPECT_EQ(results[victim].contained, inst.reference[victim])
          << "exhaust point " << point;
    } else {
      EXPECT_EQ(results[victim].reason, ExhaustionReason::kSteps)
          << "exhaust point " << point;
    }

    // Re-decide the victim's pair on the SAME service with a healthy
    // context: a cached faulted verdict would surface here.
    EngineContext healthy;
    ContainmentResult again = service.ContainsFor(
        inst.p, inst.qs[victim], Mode::kWeak, &healthy);
    ASSERT_EQ(again.outcome, Outcome::kDecided) << "exhaust point " << point;
    EXPECT_EQ(again.contained, inst.reference[victim])
        << "exhaust point " << point;
  }
}

}  // namespace
}  // namespace tpc
