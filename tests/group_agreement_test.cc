// A/B agreement: grouped decisions (`ContainsGroup`, the query service's
// batch and the daemon-style `ContainsGroupFor` entry) against
// independent solo decisions.  Grouping is a pure execution-plan change, so
// EVERYTHING observable must survive it: verdicts, outcomes, exhaustion
// reasons and per-member step attribution (bit-identical budget charges),
// counterexample length vectors on deterministic configurations, and
// witness validity on parallel ones.  500 random instances across group
// sizes 1/4/16 and both modes, on the dispatcher's default route (whose
// general cell is the type set; members share only p) and under
// `force_canonical` (members share one canonical sweep).  Every general-cell
// member is also checked against a naive reference sweep that shares none
// of the engine's machinery.  Further tests cover the shared sweep's
// parallel chunks at 1/2/4 threads and the service batch, which decides
// each unique pair on its own.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "base/label.h"
#include "contain/containment.h"
#include "engine/engine.h"
#include "gen/random_instances.h"
#include "match/embedding.h"
#include "pattern/canonical.h"
#include "reductions/hardness_families.h"
#include "reference_sweep.h"
#include "service/query_service.h"

namespace tpc {
namespace {

/// Four structurally distinct size-5 evaluation patterns against the coNP
/// family's p.  All four are the same size (equal safe chain-length
/// bound), carry both wildcards and a letter plus child edges (so every
/// one takes the general canonical route), and `ContainsGroup` sweeps
/// them over ONE model enumeration.  A, B and C are contained — each
/// needs the full sweep to certify — while D asks for a `u` at depth
/// >= 4, which no canonical model has: it is refuted by the very first
/// model and retires early.
struct ConpGroupPatterns {
  Tpq a;  // */*/*/*/c     contained (some c at depth >= 4)
  Tpq b;  // */*/*[c][*]   contained (b_i has child c; * rides along)
  Tpq c;  // */*[*]/*/c    contained (as b, with the * one level up)
  Tpq d;  // */*/*/*/u     NOT contained (u only ever sits at depth 1)
};

ConpGroupPatterns MakeConpGroupPatterns(LabelPool* pool) {
  const LabelId c = pool->Intern("c");
  const LabelId u = pool->Intern("u");
  ConpGroupPatterns out;
  out.a = Tpq(kWildcard);
  NodeId v = 0;
  for (int i = 0; i < 3; ++i) v = out.a.AddChild(v, kWildcard, EdgeKind::kChild);
  out.a.AddChild(v, c, EdgeKind::kChild);

  out.b = Tpq(kWildcard);
  v = out.b.AddChild(0, kWildcard, EdgeKind::kChild);
  v = out.b.AddChild(v, kWildcard, EdgeKind::kChild);
  out.b.AddChild(v, c, EdgeKind::kChild);
  out.b.AddChild(v, kWildcard, EdgeKind::kChild);

  out.c = Tpq(kWildcard);
  v = out.c.AddChild(0, kWildcard, EdgeKind::kChild);
  out.c.AddChild(v, kWildcard, EdgeKind::kChild);
  v = out.c.AddChild(v, kWildcard, EdgeKind::kChild);
  out.c.AddChild(v, c, EdgeKind::kChild);

  out.d = Tpq(kWildcard);
  v = 0;
  for (int i = 0; i < 3; ++i) v = out.d.AddChild(v, kWildcard, EdgeKind::kChild);
  out.d.AddChild(v, u, EdgeKind::kChild);
  return out;
}

// The 500-instance core, on both routes a group can take: the
// dispatcher's default (the type set, whose members share only p) and
// `force_canonical` (one shared canonical sweep, `SweepBank` enumerating
// for every member).  Sequential grouped decisions must be
// indistinguishable from solo ones — verdict, outcome, reason, selected
// algorithm, counterexample lengths AND the member's own step charges —
// and every witness must certify its refutation in the member's mode.
// Every decided general-cell member is also checked against the naive
// reference: a swept member on its first counterexample, a type-set member
// on its verdict (its witness is some counterexample, not the reference's
// first, so the witness check stands in for length equality).
TEST(GroupAgreementTest, GroupedAgreesWithIndependentOver500Instances) {
  for (bool force_canonical : {false, true}) {
    SCOPED_TRACE(force_canonical ? "force_canonical" : "default route");
    ContainmentOptions options;
    options.force_canonical = force_canonical;
    LabelPool pool;
    std::mt19937 rng(47);
    std::vector<LabelId> labels = MakeLabels(2, &pool);
    RandomTpqOptions popts;
    popts.labels = labels;
    popts.fragment = fragments::kTpqFull;
    RandomTpqOptions qopts = popts;

    const int sizes[] = {1, 4, 16};
    int members_checked = 0;
    int not_contained = 0;
    int oracle_checked = 0;
    for (int trial = 0; members_checked < 500; ++trial) {
      const int group_size = sizes[trial % 3];
      popts.size = 3 + trial % 5;
      Tpq p = RandomTpq(popts, &rng);
      const Mode mode = trial % 3 == 0 ? Mode::kStrong : Mode::kWeak;

      std::vector<Tpq> qs;
      for (int j = 0; j < group_size; ++j) {
        qopts.size = 2 + (trial + j) % 5;
        qs.push_back(RandomTpq(qopts, &rng));
      }
      std::vector<std::unique_ptr<EngineContext>> member_ctxs;
      std::vector<GroupMember> members;
      for (int j = 0; j < group_size; ++j) {
        member_ctxs.push_back(std::make_unique<EngineContext>());
        members.push_back(
            {&qs[static_cast<size_t>(j)], member_ctxs.back().get()});
      }
      EngineContext group_ctx;  // one thread: sequential grouped sweep
      std::vector<ContainmentResult> grouped =
          ContainsGroup(p, members, mode, &pool, &group_ctx, options);
      ASSERT_EQ(grouped.size(), static_cast<size_t>(group_size));

      for (int j = 0; j < group_size; ++j) {
        EngineContext solo_ctx;
        ContainmentResult solo =
            Contains(p, qs[static_cast<size_t>(j)], mode, &pool, &solo_ctx,
                     options);
        const ContainmentResult& g = grouped[static_cast<size_t>(j)];
        ASSERT_EQ(g.outcome, solo.outcome)
            << "trial " << trial << " member " << j;
        ASSERT_EQ(g.contained, solo.contained)
            << "trial " << trial << " member " << j << ": "
            << p.ToString(pool) << " in "
            << qs[static_cast<size_t>(j)].ToString(pool);
        ASSERT_EQ(g.reason, solo.reason);
        ASSERT_EQ(g.algorithm, solo.algorithm)
            << "trial " << trial << " member " << j;
        ASSERT_EQ(g.counterexample_lengths.has_value(),
                  solo.counterexample_lengths.has_value());
        if (g.counterexample_lengths.has_value()) {
          EXPECT_EQ(*g.counterexample_lengths, *solo.counterexample_lengths)
              << "trial " << trial << " member " << j;
          ++not_contained;
        }
        if (g.counterexample.has_value()) {
          // The witness certifies the refutation in the member's own mode:
          // a tree of L(p) that q does not match (in strong mode, with p's
          // root label restored after the Observation 2.3 relabelling).
          const bool strong = mode == Mode::kStrong;
          Matcher on_p(p, *g.counterexample, nullptr);
          Matcher on_q(qs[static_cast<size_t>(j)], *g.counterexample,
                       nullptr);
          EXPECT_TRUE(strong ? on_p.MatchesStrong() : on_p.MatchesWeak())
              << "witness not in L(p), trial " << trial << " member " << j;
          EXPECT_FALSE(strong ? on_q.MatchesStrong() : on_q.MatchesWeak())
              << "witness matched by q, trial " << trial << " member " << j;
        }
        // Attribution identity: the member's grouped charges equal its solo
        // charges — shared tree builds are free for members by construction.
        EXPECT_EQ(member_ctxs[static_cast<size_t>(j)]->budget().steps_used(),
                  solo_ctx.budget().steps_used())
            << "trial " << trial << " member " << j;
        if (g.algorithm == ContainmentAlgorithm::kCanonicalEnumeration ||
            g.algorithm == ContainmentAlgorithm::kTypeSet) {
          const std::optional<std::vector<int32_t>> naive =
              NaiveFirstCounterexample(p, qs[static_cast<size_t>(j)], mode,
                                       &pool);
          ASSERT_EQ(g.contained, !naive.has_value())
              << "trial " << trial << " member " << j;
          if (g.algorithm == ContainmentAlgorithm::kCanonicalEnumeration) {
            EXPECT_EQ(g.counterexample_lengths, naive)
                << "trial " << trial << " member " << j;
          } else {
            ASSERT_EQ(g.counterexample.has_value(), naive.has_value())
                << "trial " << trial << " member " << j;
          }
          ++oracle_checked;
        }
        ++members_checked;
      }
    }
    EXPECT_GT(not_contained, 40);  // the sample must exercise both verdicts
    EXPECT_GT(oracle_checked, 100);  // and the general route, many times
  }
}

// Parallel grouped sweeps (`force_canonical`): verdicts must match the
// solo reference — the dispatcher's default route — at every thread count,
// and every weak-mode witness must be VALID (in L(p), not matched by q)
// even though the winning chunk — and with it the specific counterexample
// — is schedule-dependent.
TEST(GroupAgreementTest, ParallelGroupsAgreeAcrossThreadCounts) {
  LabelPool pool;
  std::mt19937 rng(5150);
  std::vector<LabelId> labels = MakeLabels(2, &pool);
  RandomTpqOptions popts;
  popts.labels = labels;
  popts.fragment = fragments::kTpqFull;
  RandomTpqOptions qopts = popts;
  for (int trial = 0; trial < 30; ++trial) {
    popts.size = 4 + trial % 4;
    Tpq p = RandomTpq(popts, &rng);
    const Mode mode = trial % 4 == 0 ? Mode::kStrong : Mode::kWeak;
    std::vector<Tpq> qs;
    for (int j = 0; j < 4; ++j) {
      qopts.size = 3 + (trial + j) % 4;
      qs.push_back(RandomTpq(qopts, &rng));
    }
    std::vector<bool> reference;
    for (const Tpq& q : qs) {
      ContainmentResult r = Contains(p, q, mode, &pool);
      ASSERT_EQ(r.outcome, Outcome::kDecided);
      reference.push_back(r.contained);
    }
    for (int threads : {1, 2, 4}) {
      EngineConfig config;
      config.threads = threads;
      // Engage the chunked-parallel grouped sweep even on small spaces.
      config.parallel_threshold = 2;
      config.parallel_chunk = 4;
      EngineContext group_ctx(config);
      std::vector<std::unique_ptr<EngineContext>> member_ctxs;
      std::vector<GroupMember> members;
      for (size_t j = 0; j < qs.size(); ++j) {
        member_ctxs.push_back(std::make_unique<EngineContext>());
        members.push_back({&qs[j], member_ctxs.back().get()});
      }
      ContainmentOptions sweep;
      sweep.force_canonical = true;
      std::vector<ContainmentResult> grouped =
          ContainsGroup(p, members, mode, &pool, &group_ctx, sweep);
      for (size_t j = 0; j < qs.size(); ++j) {
        const ContainmentResult& g = grouped[j];
        ASSERT_EQ(g.outcome, Outcome::kDecided);
        ASSERT_EQ(g.contained, reference[j])
            << "trial " << trial << " member " << j << " threads " << threads;
        if (mode == Mode::kWeak && !g.contained &&
            g.counterexample.has_value()) {
          // The witness certifies the refutation: a tree of L(p) that q
          // does not match.
          Matcher on_p(p, *g.counterexample, nullptr);
          Matcher on_q(qs[j], *g.counterexample, nullptr);
          EXPECT_TRUE(on_p.MatchesWeak())
              << "witness not in L(p), trial " << trial << " member " << j;
          EXPECT_FALSE(on_q.MatchesWeak())
              << "witness matched by q, trial " << trial << " member " << j;
        }
      }
    }
  }
}

// Exhaustion attribution on the coNP family: a member armed with a small
// step budget must exhaust at exactly the same step count — and with the
// same reason — whether it is decided alone or inside a group, on the type
// set and on the shared sweep alike, while its unlimited groupmates stay
// unaffected.
TEST(GroupAgreementTest, ExhaustionAttributionSurvivesGrouping) {
  LabelPool pool;
  ConpFamilyInstance inst = BuildConpFamily(3, &pool);
  ConpGroupPatterns pats = MakeConpGroupPatterns(&pool);
  for (bool force_canonical : {false, true}) {
    ContainmentOptions options;
    options.force_canonical = force_canonical;
    for (int64_t step_limit : {1, 25, 50, 400, 3000}) {
      EngineConfig limited;
      limited.step_limit = step_limit;
      EngineContext solo_ctx(limited);
      ContainmentResult solo =
          Contains(inst.p, pats.a, Mode::kWeak, &pool, &solo_ctx, options);

      EngineContext limited_ctx(limited);
      EngineContext ctx_b, ctx_c;
      std::vector<GroupMember> members = {
          {&pats.a, &limited_ctx}, {&pats.b, &ctx_b}, {&pats.c, &ctx_c}};
      EngineContext group_ctx;
      std::vector<ContainmentResult> grouped = ContainsGroup(
          inst.p, members, Mode::kWeak, &pool, &group_ctx, options);

      ASSERT_EQ(grouped[0].outcome, solo.outcome) << "limit " << step_limit;
      ASSERT_EQ(grouped[0].reason, solo.reason) << "limit " << step_limit;
      if (solo.outcome == Outcome::kDecided) {
        EXPECT_EQ(grouped[0].contained, solo.contained);
      }
      EXPECT_EQ(limited_ctx.budget().steps_used(),
                solo_ctx.budget().steps_used())
          << "limit " << step_limit;
      // The starved member never drags its groupmates down.
      for (size_t j = 1; j < grouped.size(); ++j) {
        ASSERT_EQ(grouped[j].outcome, Outcome::kDecided) << "member " << j;
        EXPECT_TRUE(grouped[j].contained) << "member " << j;
      }
    }
  }
}

// The shared sweep's shape: under `force_canonical`, four equal-bound
// members over one coNP enumeration-side pattern share ONE sweep — group
// counters fire, the refuted member retires early, and the group's
// incremental rebuilds stay well under four independent sweeps' worth.
TEST(GroupAgreementTest, ConpGroupSharesOneEnumeration) {
  LabelPool pool;
  ConpFamilyInstance inst = BuildConpFamily(3, &pool);
  ConpGroupPatterns pats = MakeConpGroupPatterns(&pool);
  ContainmentOptions sweep;
  sweep.force_canonical = true;

  int64_t solo_rebuilds = 0;
  std::vector<bool> reference;
  for (const Tpq* q : {&pats.a, &pats.b, &pats.c, &pats.d}) {
    EngineContext ctx;
    ContainmentResult r =
        Contains(inst.p, *q, Mode::kWeak, &pool, &ctx, sweep);
    ASSERT_EQ(r.outcome, Outcome::kDecided);
    reference.push_back(r.contained);
    solo_rebuilds += ctx.stats().trees_rebuilt_from_spine.load(
        std::memory_order_relaxed);
  }
  EXPECT_TRUE(reference[0] && reference[1] && reference[2]);
  EXPECT_FALSE(reference[3]);

  EngineContext ca, cb, cc, cd;
  std::vector<GroupMember> members = {
      {&pats.a, &ca}, {&pats.b, &cb}, {&pats.c, &cc}, {&pats.d, &cd}};
  EngineContext group_ctx;
  std::vector<ContainmentResult> grouped =
      ContainsGroup(inst.p, members, Mode::kWeak, &pool, &group_ctx, sweep);
  for (size_t j = 0; j < members.size(); ++j) {
    ASSERT_EQ(grouped[j].outcome, Outcome::kDecided);
    EXPECT_EQ(grouped[j].contained, reference[j]) << "member " << j;
  }

  const EngineStats& gs = group_ctx.stats();
  EXPECT_EQ(gs.sweep_groups_formed.load(std::memory_order_relaxed), 1);
  EXPECT_EQ(gs.sweep_group_members.load(std::memory_order_relaxed), 4);
  EXPECT_GE(gs.group_members_retired_early.load(std::memory_order_relaxed), 1)
      << "the refuted member must retire while groupmates keep sweeping";
  EXPECT_GT(gs.trees_shared_per_decision.load(std::memory_order_relaxed), 0);
  const int64_t group_rebuilds =
      gs.trees_rebuilt_from_spine.load(std::memory_order_relaxed);
  EXPECT_GT(group_rebuilds, 0);
  // 3 members run the full sweep: sharing must save well over half of the
  // four solo sweeps' rebuild work (the bench asserts the >= 5x target at
  // group size 8; this is the deterministic unit-level floor).
  EXPECT_LT(2 * group_rebuilds, solo_rebuilds)
      << "grouping failed to amortize tree rebuilds";
}

// Service level: ContainsBatch (dedup plus fan-out, each unique pair decided
// on its own) must produce the verdicts of per-item `QueryService::Contains`
// calls on a fresh service, under `force_canonical` as well.
TEST(GroupAgreementTest, BatchGroupingIsVerdictInvisible) {
  LabelPool pool;
  ConpFamilyInstance inst = BuildConpFamily(3, &pool);
  ConpGroupPatterns pats = MakeConpGroupPatterns(&pool);
  const LabelId a = pool.Intern("a");
  const LabelId b = pool.Intern("b");
  Tpq chain(a);
  chain.AddChild(0, a, EdgeKind::kChild);
  Tpq deep(a);
  deep.AddChild(0, b, EdgeKind::kDescendant);

  std::vector<QueryService::BatchItem> items;
  for (const Tpq* q : {&pats.a, &pats.b, &pats.c, &pats.d}) {
    items.push_back({inst.p, *q, Mode::kWeak});
  }
  items.push_back({inst.p, inst.q_no, Mode::kWeak});
  items.push_back({chain, deep, Mode::kWeak});
  items.push_back({inst.p, pats.a, Mode::kStrong});
  items.push_back({inst.p, pats.b, Mode::kStrong});
  items.push_back({inst.p, pats.a, Mode::kWeak});  // duplicate, folded

  ServiceOptions sweep;
  sweep.containment.force_canonical = true;
  EngineContext grouped_ctx;
  QueryService grouped_service(&pool, &grouped_ctx, sweep);
  std::vector<ContainmentResult> grouped =
      grouped_service.ContainsBatch(items);

  EngineContext twin_ctx;
  QueryService twin_service(&pool, &twin_ctx, sweep);
  std::vector<ContainmentResult> twin;
  for (const QueryService::BatchItem& item : items) {
    twin.push_back(twin_service.Contains(item.p, item.q, item.mode));
  }

  ASSERT_EQ(grouped.size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    ASSERT_EQ(grouped[i].outcome, Outcome::kDecided) << "item " << i;
    ASSERT_EQ(twin[i].outcome, Outcome::kDecided) << "item " << i;
    EXPECT_EQ(grouped[i].contained, twin[i].contained) << "item " << i;
  }
  EXPECT_EQ(
      twin_ctx.stats().sweep_groups_formed.load(std::memory_order_relaxed), 0);
}

// Daemon-style entry: per-request contexts through ContainsGroupFor must
// agree with per-request ContainsFor on a fresh service, and attribution
// (each member's own charges) must land on the member's context.
TEST(GroupAgreementTest, ContainsGroupForAgreesWithContainsFor) {
  LabelPool pool;
  ConpFamilyInstance inst = BuildConpFamily(3, &pool);
  ConpGroupPatterns pats = MakeConpGroupPatterns(&pool);

  EngineContext ref_service_ctx;
  QueryService ref_service(&pool, &ref_service_ctx);
  std::vector<bool> reference;
  for (const Tpq* q : {&pats.a, &pats.b, &pats.c, &pats.d}) {
    EngineContext rctx;
    ContainmentResult r = ref_service.ContainsFor(inst.p, *q, Mode::kWeak,
                                                  &rctx);
    ASSERT_EQ(r.outcome, Outcome::kDecided);
    reference.push_back(r.contained);
  }

  EngineContext service_ctx;
  QueryService service(&pool, &service_ctx);
  EngineContext c0, c1, c2, c3;
  std::vector<QueryService::GroupQuery> queries = {
      {&inst.p, &pats.a, Mode::kWeak, &c0},
      {&inst.p, &pats.b, Mode::kWeak, &c1},
      {&inst.p, &pats.c, Mode::kWeak, &c2},
      {&inst.p, &pats.d, Mode::kWeak, &c3},
  };
  std::vector<ContainmentResult> results = service.ContainsGroupFor(queries);
  ASSERT_EQ(results.size(), queries.size());
  int64_t member_steps = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i].outcome, Outcome::kDecided) << "member " << i;
    EXPECT_EQ(results[i].contained, reference[i]) << "member " << i;
    member_steps += queries[i].ctx->budget().steps_used();
  }
  EXPECT_GT(member_steps, 0) << "member charges must land on member contexts";

  // Decided group verdicts are cached like solo ones: a rerun on fresh
  // contexts answers warm with identical verdicts.  Cache hits are
  // attributed to the requesting member's context, not the service's.
  EngineContext d0, d1, d2, d3;
  std::vector<QueryService::GroupQuery> rerun = {
      {&inst.p, &pats.a, Mode::kWeak, &d0},
      {&inst.p, &pats.b, Mode::kWeak, &d1},
      {&inst.p, &pats.c, Mode::kWeak, &d2},
      {&inst.p, &pats.d, Mode::kWeak, &d3},
  };
  std::vector<ContainmentResult> warm = service.ContainsGroupFor(rerun);
  for (size_t i = 0; i < warm.size(); ++i) {
    ASSERT_EQ(warm[i].outcome, Outcome::kDecided);
    EXPECT_EQ(warm[i].contained, reference[i]) << "member " << i;
  }
  int64_t rerun_hits = 0;
  for (const QueryService::GroupQuery& gq : rerun) {
    rerun_hits +=
        gq.ctx->stats().cache_hits.load(std::memory_order_relaxed);
  }
  EXPECT_GT(rerun_hits, 0) << "group verdicts must land in the cache";
}

}  // namespace
}  // namespace tpc
