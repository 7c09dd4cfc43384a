// The grouped canonical sweep (src/contain ContainsGroup under
// `force_canonical`): how much model-enumeration work does batching
// same-pattern queries actually save?
//
// The acceptance criteria this suite pins:
//
//   * BM_Group_Sweep/N vs BM_Group_Independent/N — N coalesced members over
//     the coNP family's enumeration-side pattern, one `ContainsGroup` call
//     vs one independent `Contains` call per member.  The exported
//     `rebuilds_per_decision` counter (trees_rebuilt_from_spine / member
//     decisions) falls with N grouped and stays flat independent.
//   * BM_Group_AmortizationFloor — both modes inside one benchmark at group
//     size 8: `rebuild_reduction` (independent / grouped rebuilds per
//     decision) must be >= 5x, and the two modes must agree on every
//     member's verdict every iteration, else SkipWithError.
//   * BM_Group_MixedEarlyRetire — half the members are refuted by the first
//     canonical model: the undecided-mask sweep retires them immediately
//     (`retired_early_rate` ~ 0.5) while the survivors still share one
//     enumeration.
//
// Every decision loop replays expected verdicts; a flipped answer aborts
// via SkipWithError (a faster sweep that changes verdicts is a bug).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "base/label.h"
#include "contain/containment.h"
#include "engine/engine.h"
#include "reductions/hardness_families.h"
#include "service/query_service.h"

namespace tpc {
namespace {

/// Eight structurally distinct size-5 evaluation patterns over the coNP
/// family's p.  Same size => same safe chain-length bound; every one
/// carries wildcards, a letter and child edges, so all take the general
/// canonical route and `ContainsGroup` sweeps them as ONE partition.  All
/// eight are contained, so every member needs the full enumeration — the
/// worst case the grouping exists for.
std::vector<Tpq> MakeContainedMembers(LabelPool* pool) {
  const LabelId c = pool->Intern("c");
  std::vector<Tpq> qs;
  auto chain_then = [&](int side_at, int side_count) {
    // A 4-wildcard chain with `side_count` extra wildcard leaves hung on
    // chain node `side_at`, and c as the final leaf.  Total size is kept at
    // 5 by shortening the chain as leaves are added.
    Tpq q(kWildcard);
    NodeId v = 0;
    const int chain = 3 - side_count;
    for (int i = 0; i < chain; ++i) {
      if (i == side_at) {
        for (int s = 0; s < side_count; ++s) {
          q.AddChild(v, kWildcard, EdgeKind::kChild);
        }
      }
      v = q.AddChild(v, kWildcard, EdgeKind::kChild);
    }
    if (side_at >= chain) {
      for (int s = 0; s < side_count; ++s) {
        q.AddChild(v, kWildcard, EdgeKind::kChild);
      }
    }
    q.AddChild(v, c, EdgeKind::kChild);
    return q;
  };
  qs.push_back(chain_then(3, 0));  // */*/*/*/c
  qs.push_back(chain_then(2, 1));  // side leaf on the last chain node
  qs.push_back(chain_then(1, 1));  // side leaf one level up
  qs.push_back(chain_then(0, 1));  // side leaf at the root
  qs.push_back(chain_then(1, 2));  // two side leaves, mid chain
  qs.push_back(chain_then(0, 2));  // two side leaves at the root
  {
    // *[*]/*[*]/c: one side leaf at the root, one on c's parent.
    Tpq q(kWildcard);
    q.AddChild(0, kWildcard, EdgeKind::kChild);
    NodeId v = q.AddChild(0, kWildcard, EdgeKind::kChild);
    q.AddChild(v, kWildcard, EdgeKind::kChild);
    q.AddChild(v, c, EdgeKind::kChild);
    qs.push_back(std::move(q));
  }
  {
    // *[*/*]/*/c: a depth-2 wildcard side branch beside the c chain.
    Tpq q(kWildcard);
    NodeId side = q.AddChild(0, kWildcard, EdgeKind::kChild);
    q.AddChild(side, kWildcard, EdgeKind::kChild);
    NodeId v = q.AddChild(0, kWildcard, EdgeKind::kChild);
    q.AddChild(v, c, EdgeKind::kChild);
    qs.push_back(std::move(q));
  }
  return qs;
}

/// Size-5 variants whose leaf letter is `u` — a label the models only ever
/// show at depth 1, too shallow for any of these shapes — so each is
/// refuted by the very first canonical model.  Same size as the contained
/// members keeps the whole group on one chain-length bound.
std::vector<Tpq> MakeRefutedMembers(LabelPool* pool, int count) {
  const LabelId u = pool->Intern("u");
  std::vector<Tpq> qs;
  for (int k = 0; k < count; ++k) {
    Tpq q(kWildcard);
    NodeId v = 0;
    if (k == 0) {
      for (int i = 0; i < 3; ++i) v = q.AddChild(v, kWildcard, EdgeKind::kChild);
    } else {
      // A 2-wildcard chain plus one side leaf at depth (k - 1) % 2.
      for (int i = 0; i < 2; ++i) {
        if (i == (k - 1) % 2) q.AddChild(v, kWildcard, EdgeKind::kChild);
        v = q.AddChild(v, kWildcard, EdgeKind::kChild);
      }
    }
    q.AddChild(v, u, EdgeKind::kChild);
    qs.push_back(std::move(q));
  }
  return qs;
}

struct GroupWorkload {
  LabelPool pool;
  Tpq p;
  std::vector<Tpq> qs;
  std::vector<bool> reference;
  bool ok = true;

  explicit GroupWorkload(int refuted = 0) {
    ConpFamilyInstance inst = BuildConpFamily(3, &pool);
    p = std::move(inst.p);
    qs = MakeContainedMembers(&pool);
    if (refuted > 0) {
      std::vector<Tpq> bad = MakeRefutedMembers(&pool, refuted);
      qs.resize(qs.size() - static_cast<size_t>(refuted));
      for (Tpq& q : bad) qs.push_back(std::move(q));
    }
    for (const Tpq& q : qs) {
      ContainmentResult r = Contains(p, q, Mode::kWeak, &pool);
      if (r.outcome != Outcome::kDecided) ok = false;
      reference.push_back(r.contained);
    }
  }
};

int64_t Stat(const EngineContext& ctx,
             const std::atomic<int64_t> EngineStats::*member) {
  return (ctx.stats().*member).load(std::memory_order_relaxed);
}

/// Sums a counter over the group context and every member context, so the
/// total is comparable across modes (grouped work lands on the group
/// context, independent work on the members').
int64_t TotalStat(const EngineContext& group_ctx,
                  const std::vector<std::unique_ptr<EngineContext>>& members,
                  const std::atomic<int64_t> EngineStats::*member) {
  int64_t total = Stat(group_ctx, member);
  for (const auto& ctx : members) total += Stat(*ctx, member);
  return total;
}

/// Decides the first `ctxs.size()` members of `w` by the canonical sweep
/// (`force_canonical`; the dispatcher's default type set shares only p):
/// one `ContainsGroup` call, or (`grouped` false) a plain loop of
/// independent `Contains` calls, each on the member's own context.
std::vector<ContainmentResult> DecideMembers(
    GroupWorkload& w, bool grouped, EngineContext* group_ctx,
    const std::vector<std::unique_ptr<EngineContext>>& ctxs) {
  ContainmentOptions sweep;
  sweep.force_canonical = true;
  std::vector<ContainmentResult> results;
  if (!grouped) {
    for (size_t i = 0; i < ctxs.size(); ++i) {
      results.push_back(
          Contains(w.p, w.qs[i], Mode::kWeak, &w.pool, ctxs[i].get(), sweep));
    }
    return results;
  }
  std::vector<GroupMember> members;
  for (size_t i = 0; i < ctxs.size(); ++i) {
    members.push_back({&w.qs[i], ctxs[i].get()});
  }
  return ContainsGroup(w.p, members, Mode::kWeak, &w.pool, group_ctx, sweep);
}

void RunGroupSweep(benchmark::State& state, bool grouped, int refuted) {
  const int size = static_cast<int>(state.range(0));
  GroupWorkload w(refuted);
  if (!w.ok || size > static_cast<int>(w.qs.size())) {
    state.SkipWithError("workload setup failed");
    return;
  }
  EngineContext group_ctx;
  std::vector<std::unique_ptr<EngineContext>> member_ctxs;
  for (int i = 0; i < size; ++i) {
    member_ctxs.push_back(std::make_unique<EngineContext>());
  }
  int64_t decisions = 0;
  for (auto _ : state) {
    std::vector<ContainmentResult> results =
        DecideMembers(w, grouped, &group_ctx, member_ctxs);
    for (int i = 0; i < size; ++i) {
      const ContainmentResult& r = results[static_cast<size_t>(i)];
      if (r.outcome != Outcome::kDecided ||
          r.contained != w.reference[static_cast<size_t>(i)]) {
        state.SkipWithError("grouped sweep changed a verdict");
        return;
      }
    }
    decisions += size;
    benchmark::DoNotOptimize(results.data());
  }
  if (decisions > 0) {
    const int64_t rebuilds =
        TotalStat(group_ctx, member_ctxs,
                  &EngineStats::trees_rebuilt_from_spine);
    state.counters["rebuilds_per_decision"] =
        static_cast<double>(rebuilds) / static_cast<double>(decisions);
    state.counters["shared_per_decision"] = static_cast<double>(
        Stat(group_ctx, &EngineStats::trees_shared_per_decision)) /
        static_cast<double>(decisions);
    const int64_t grouped_members =
        Stat(group_ctx, &EngineStats::sweep_group_members);
    state.counters["retired_early_rate"] =
        grouped_members > 0
            ? static_cast<double>(Stat(
                  group_ctx, &EngineStats::group_members_retired_early)) /
                  static_cast<double>(grouped_members)
            : 0.0;
  }
  state.SetItemsProcessed(decisions);
}

void BM_Group_Sweep(benchmark::State& state) {
  RunGroupSweep(state, /*grouped=*/true, /*refuted=*/0);
}
BENCHMARK(BM_Group_Sweep)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);

void BM_Group_Independent(benchmark::State& state) {
  RunGroupSweep(state, /*grouped=*/false, /*refuted=*/0);
}
BENCHMARK(BM_Group_Independent)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);

void BM_Group_MixedEarlyRetire(benchmark::State& state) {
  RunGroupSweep(state, /*grouped=*/true, /*refuted=*/4);
}
BENCHMARK(BM_Group_MixedEarlyRetire)
    ->Unit(benchmark::kMillisecond)
    ->Arg(8);

// Both modes inside one benchmark, so the >= 5x reduction is asserted on
// the same machine state that produced the numbers.  Per iteration: one
// grouped pass and one independent pass over the same 8 members, verdicts
// cross-checked member by member.
void BM_Group_AmortizationFloor(benchmark::State& state) {
  constexpr int kSize = 8;
  GroupWorkload w;
  if (!w.ok || static_cast<int>(w.qs.size()) < kSize) {
    state.SkipWithError("workload setup failed");
    return;
  }
  EngineContext grouped_group_ctx, twin_group_ctx;
  std::vector<std::unique_ptr<EngineContext>> grouped_ctxs, twin_ctxs;
  for (int i = 0; i < kSize; ++i) {
    grouped_ctxs.push_back(std::make_unique<EngineContext>());
    twin_ctxs.push_back(std::make_unique<EngineContext>());
  }
  int64_t decisions = 0;
  for (auto _ : state) {
    std::vector<ContainmentResult> grouped = DecideMembers(
        w, /*grouped=*/true, &grouped_group_ctx, grouped_ctxs);
    std::vector<ContainmentResult> twin =
        DecideMembers(w, /*grouped=*/false, &twin_group_ctx, twin_ctxs);
    for (int i = 0; i < kSize; ++i) {
      const ContainmentResult& g = grouped[static_cast<size_t>(i)];
      const ContainmentResult& t = twin[static_cast<size_t>(i)];
      if (g.outcome != Outcome::kDecided || t.outcome != Outcome::kDecided ||
          g.contained != t.contained ||
          g.contained != w.reference[static_cast<size_t>(i)]) {
        state.SkipWithError("grouped and independent verdicts diverged");
        return;
      }
    }
    decisions += kSize;
    benchmark::DoNotOptimize(grouped.data());
    benchmark::DoNotOptimize(twin.data());
  }
  if (decisions > 0) {
    const double grouped_rebuilds = static_cast<double>(
        TotalStat(grouped_group_ctx, grouped_ctxs,
                  &EngineStats::trees_rebuilt_from_spine));
    const double twin_rebuilds = static_cast<double>(TotalStat(
        twin_group_ctx, twin_ctxs, &EngineStats::trees_rebuilt_from_spine));
    state.counters["grouped_rebuilds_per_decision"] =
        grouped_rebuilds / static_cast<double>(decisions);
    state.counters["independent_rebuilds_per_decision"] =
        twin_rebuilds / static_cast<double>(decisions);
    const double reduction =
        grouped_rebuilds > 0 ? twin_rebuilds / grouped_rebuilds : 0.0;
    state.counters["rebuild_reduction"] = reduction;
    // The PR's acceptance floor: one shared enumeration for 8 members must
    // rebuild >= 5x fewer trees per decision than 8 independent sweeps.
    if (reduction < 5.0) {
      state.SkipWithError("rebuild reduction below the 5x floor");
      return;
    }
  }
  state.SetItemsProcessed(decisions);
}
BENCHMARK(BM_Group_AmortizationFloor)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tpc

BENCHMARK_MAIN();
