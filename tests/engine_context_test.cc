// The engine layer: budgets (steps + deadline), instrumentation counters,
// the thread pool, and resource-exhaustion outcomes end to end.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "base/label.h"
#include "contain/containment.h"
#include "engine/budget.h"
#include "engine/engine.h"
#include "engine/thread_pool.h"
#include "graphdb/graph.h"
#include "graphdb/graph_match.h"
#include "pattern/tpq_parser.h"
#include "reductions/hardness_families.h"
#include "schema/schema_engine.h"

namespace tpc {
namespace {

// -------------------------------------------------------------- Budget

TEST(BudgetTest, UnlimitedByDefault) {
  Budget b;
  EXPECT_FALSE(b.limited());
  EXPECT_TRUE(b.Charge(1'000'000));
  EXPECT_FALSE(b.Exhausted());
}

TEST(BudgetTest, StepLimitTripsAndSticks) {
  Budget b;
  b.Arm(/*step_limit=*/100, /*deadline_ms=*/0);
  EXPECT_TRUE(b.limited());
  EXPECT_TRUE(b.Charge(50));
  EXPECT_FALSE(b.Charge(100));  // 150 > 100
  EXPECT_TRUE(b.Exhausted());
  EXPECT_FALSE(b.Charge(1));  // sticky
}

TEST(BudgetTest, DeadlineTrips) {
  Budget b;
  b.Arm(/*step_limit=*/0, /*deadline_ms=*/1);
  // Spin until the deadline check (every 256 steps) fires.
  bool tripped = false;
  for (int i = 0; i < 1'000'000 && !tripped; ++i) {
    tripped = !b.Charge(256);
  }
  EXPECT_TRUE(tripped);
  EXPECT_TRUE(b.Exhausted());
}

// ---------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](int64_t i) {
    hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(100, [&](int64_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 100 * 99 / 2);
  }
}

TEST(ThreadPoolTest, BackToBackTinyJobsNeverLoseOrDuplicateIndices) {
  // Regression test for the stale-generation race: with tiny jobs the caller
  // often drains every index before any worker wakes, returns, and
  // immediately publishes the next job — a late worker must neither invoke
  // the previous (destroyed) function nor steal indices from the new job.
  ThreadPool pool(4);
  for (int round = 0; round < 2000; ++round) {
    const int64_t n = 1 + round % 4;
    std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
    pool.ParallelFor(n, [&](int64_t i) {
      hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    });
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1)
          << "round " << round << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.ParallelFor(10, [&](int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

// ------------------------------------------------------- EngineContext

TEST(EngineContextTest, StatsJsonHasCounterKeys) {
  EngineContext ctx;
  ctx.stats().canonical_trees_enumerated.store(7);
  std::string json = ctx.StatsJson();
  EXPECT_NE(json.find("\"canonical_trees_enumerated\": 7"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"embeddings_attempted\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_configurations\""), std::string::npos);
  EXPECT_NE(json.find("\"dispatch\""), std::string::npos);
  EXPECT_NE(json.find("\"canonical_enumeration\""), std::string::npos);
}

TEST(EngineContextTest, DeadlineStopsAdversarialSweep) {
  // BuildConpFamily(12) has 12 descendant edges: the aggressive sweep must
  // visit 5^12 canonical models to certify containment — far beyond a 50ms
  // budget.  The engine must return kResourceExhausted instead of hanging,
  // with the stats showing the partial sweep.  (The dispatcher's type set
  // decides this family in linear time, so the sweep is forced.)
  LabelPool pool;
  ConpFamilyInstance inst = BuildConpFamily(12, &pool);
  EngineConfig config;
  config.deadline_ms = 50;
  EngineContext ctx(config);
  ContainmentOptions aggressive;
  aggressive.bound = ContainmentOptions::Bound::kAggressive;
  aggressive.force_canonical = true;
  ContainmentResult r =
      Contains(inst.p, inst.q_yes, Mode::kWeak, &pool, &ctx, aggressive);
  EXPECT_EQ(r.outcome, Outcome::kResourceExhausted);
  EXPECT_GT(ctx.stats().canonical_trees_enumerated.load(), 0);
  std::string json = ctx.StatsJson();
  EXPECT_NE(json.find("\"canonical_trees_enumerated\""), std::string::npos);
}

TEST(EngineContextTest, StepLimitStopsSweep) {
  LabelPool pool;
  ConpFamilyInstance inst = BuildConpFamily(10, &pool);
  EngineConfig config;
  config.step_limit = 10'000;
  EngineContext ctx(config);
  ContainmentOptions aggressive;
  aggressive.bound = ContainmentOptions::Bound::kAggressive;
  aggressive.force_canonical = true;
  ContainmentResult r =
      Contains(inst.p, inst.q_yes, Mode::kWeak, &pool, &ctx, aggressive);
  EXPECT_EQ(r.outcome, Outcome::kResourceExhausted);
  EXPECT_LE(ctx.budget().steps_used(), 10'000 + 10'000);  // small overshoot
}

TEST(EngineContextTest, ResetBudgetAllowsReuse) {
  LabelPool pool;
  ConpFamilyInstance inst = BuildConpFamily(10, &pool);
  Tpq p = MustParseTpq("a/b", &pool);
  Tpq q = MustParseTpq("a//b", &pool);
  EngineConfig config;
  config.step_limit = 10'000;
  EngineContext ctx(config);
  ContainmentOptions aggressive;
  aggressive.bound = ContainmentOptions::Bound::kAggressive;
  aggressive.force_canonical = true;
  // Exhaust the allowance on the adversarial instance...
  ContainmentResult r1 =
      Contains(inst.p, inst.q_yes, Mode::kWeak, &pool, &ctx, aggressive);
  EXPECT_EQ(r1.outcome, Outcome::kResourceExhausted);
  // ...then a re-armed context decides a small instance within the same
  // per-decision limit.
  ctx.ResetBudget();
  ContainmentResult r2 = Contains(p, q, Mode::kWeak, &pool, &ctx);
  EXPECT_EQ(r2.outcome, Outcome::kDecided);
  EXPECT_TRUE(r2.contained);
}

TEST(EngineContextTest, WrappersMatchExplicitDefaultContext) {
  LabelPool pool;
  Tpq p = MustParseTpq("a[b][//c]", &pool);
  Tpq q = MustParseTpq("a[*][//c]", &pool);
  ContainmentResult legacy = Contains(p, q, Mode::kWeak, &pool);
  ContainmentResult with_ctx =
      Contains(p, q, Mode::kWeak, &pool, &EngineContext::Default());
  EXPECT_EQ(legacy.contained, with_ctx.contained);
  EXPECT_EQ(legacy.algorithm, with_ctx.algorithm);
}

// ------------------------------------------- exhaustion across the layers

TEST(EngineContextTest, SchemaEngineReportsExhaustion) {
  LabelPool pool;
  Tpq q = MustParseTpq("r//a/*/*/*/b", &pool);
  Dtd dtd = MustParseDtd(
      "root: r; r -> a z; z -> z z | w | a; w -> w | b; b -> eps;"
      "a -> y1; y1 -> y2; y2 -> y3; y3 -> b;",
      &pool);
  EngineConfig config;
  config.step_limit = 50;
  EngineContext ctx(config);
  SchemaDecision r = ValidWithDtd(q, Mode::kWeak, dtd, &ctx);
  EXPECT_FALSE(r.decided);
  EXPECT_EQ(r.outcome, Outcome::kResourceExhausted);
}

TEST(EngineContextTest, GraphMatchReportsExhaustion) {
  LabelPool pool;
  LabelId a = pool.Intern("a");
  Graph g;
  for (int i = 0; i < 40; ++i) g.AddNode(a);
  for (NodeId u = 0; u + 1 < g.size(); ++u) g.AddEdge(u, u + 1);
  g.SetRoot(0);
  Tpq q = MustParseTpq("a//a//a", &pool);
  EngineConfig config;
  config.step_limit = 10;  // far below |q| * |g|
  EngineContext ctx(config);
  GraphMatchResult r = MatchesWeakGraph(q, g, &ctx);
  EXPECT_EQ(r.outcome, Outcome::kResourceExhausted);
}

TEST(EngineContextTest, CountersFlowFromSchemaEngine) {
  LabelPool pool;
  Tpq p = MustParseTpq("a/b", &pool);
  Dtd dtd = MustParseDtd("root: a; a -> b*; b -> eps;", &pool);
  EngineContext ctx;
  SchemaDecision r = SatisfiableWithDtd(p, Mode::kWeak, dtd, &ctx);
  EXPECT_TRUE(r.decided);
  EXPECT_TRUE(r.yes);
  EXPECT_GT(ctx.stats().schema_configurations.load(), 0);
  EXPECT_GT(ctx.stats().horizontal_nodes.load(), 0);
}

}  // namespace
}  // namespace tpc
