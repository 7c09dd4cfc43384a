// The exhaustion-masking audit (satellite of the failure-model work): a
// budget that stops a procedure early must never *mask* as a decision.  For
// every decision route we compute the ground truth with an unlimited
// context, then sweep tight step and memory limits and assert each run
// either reports kResourceExhausted or decides with the correct boolean —
// never kDecided with a flipped answer.
//
// The sweep covers step_limit = 1..64 on fixed adversarial-ish instances
// plus a randomized pass over generated instances, and a memory sweep over
// limits from 1 byte up past the routes' real peaks.

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <utility>
#include <vector>

#include "base/label.h"
#include "contain/containment.h"
#include "dtd/dtd.h"
#include "engine/engine.h"
#include "gen/random_instances.h"
#include "graphdb/graph.h"
#include "graphdb/graph_dtd.h"
#include "graphdb/graph_match.h"
#include "pattern/tpq_parser.h"
#include "schema/nta_satisfiability.h"
#include "schema/schema_engine.h"

namespace tpc {
namespace {

/// One instance bound to a route, re-runnable under any context.
struct AuditCase {
  const char* name;
  std::function<std::pair<bool, bool>(EngineContext*)> run;  // decided, answer
};

std::vector<AuditCase> FixedCases() {
  std::vector<AuditCase> cases;
  // Schema-free containment: one case per dispatcher algorithm, driven by
  // the fragment shape of the operands (see ContainmentAlgorithm).
  struct ContainCase {
    const char* name;
    const char* p;
    const char* q;
    bool force_canonical;
  };
  const ContainCase contain_cases[] = {
      {"homomorphism", "a//b//c", "a//c//b", false},
      {"minimal-canonical", "a/b[c]/d", "a//*//d", false},
      {"single-canonical", "a/b/c[d]", "a/*/c", false},
      {"path-in-tpq", "a//b//c", "a//*[b]//c", false},
      {"child-free-in-tpq", "a[//b]//d", "a//*[b]//d", false},
      {"canonical-enumeration", "a//b[c]//d", "a//*[c]//d", true},
  };
  for (const ContainCase& c : contain_cases) {
    cases.push_back({c.name, [c](EngineContext* ctx) {
                       LabelPool pool;
                       Tpq p = MustParseTpq(c.p, &pool);
                       Tpq q = MustParseTpq(c.q, &pool);
                       ContainmentOptions options;
                       options.force_canonical = c.force_canonical;
                       ContainmentResult r =
                           Contains(p, q, Mode::kWeak, &pool, ctx, options);
                       return std::make_pair(r.outcome == Outcome::kDecided,
                                             r.contained);
                     }});
  }
  for (bool antichain : {true, false}) {
    cases.push_back(
        {antichain ? "schema-antichain" : "schema-full",
         [antichain](EngineContext* ctx) {
           LabelPool pool;
           Dtd d = MustParseDtd(
               "root: r; r -> a z; z -> z z | w | a; w -> w | b; "
               "b -> eps; a -> y1; y1 -> y2; y2 -> b;",
               &pool);
           Tpq q = MustParseTpq("r//a/*/*/b", &pool);
           SchemaEngineOptions options;
           options.antichain = antichain;
           SchemaDecision r =
               ValidWithDtd(q, Mode::kWeak, d, ctx, EngineLimits{}, options);
           return std::make_pair(r.decided, r.yes);
         }});
  }
  cases.push_back({"schema-contain", [](EngineContext* ctx) {
                     LabelPool pool;
                     Dtd d = MustParseDtd(
                         "root: a; a -> b c?; b -> eps; c -> eps;", &pool);
                     Tpq p = MustParseTpq("a//c", &pool);
                     Tpq q = MustParseTpq("a/b", &pool);
                     SchemaDecision r =
                         ContainedWithDtd(p, q, Mode::kWeak, d, ctx);
                     return std::make_pair(r.decided, r.yes);
                   }});
  cases.push_back({"conp-route", [](EngineContext* ctx) {
                     LabelPool pool;
                     Dtd d = MustParseDtd(
                         "root: a; a -> b c?; b -> eps; c -> eps;", &pool);
                     Tpq p = MustParseTpq("a//c", &pool);
                     Tpq q = MustParseTpq("a/b", &pool);
                     SchemaDecision r = ContainedViaConpRoute(
                         p, q, Mode::kWeak, d, &pool, ctx);
                     return std::make_pair(r.decided, r.yes);
                   }});
  cases.push_back({"graph-match", [](EngineContext* ctx) {
                     LabelPool pool;
                     Graph g;
                     NodeId n0 = g.AddNode(pool.Intern("a"));
                     NodeId n1 = g.AddNode(pool.Intern("b"));
                     NodeId n2 = g.AddNode(pool.Intern("c"));
                     g.AddEdge(n0, n1);
                     g.AddEdge(n1, n2);
                     g.AddEdge(n2, n1);
                     g.SetRoot(n0);
                     Tpq q = MustParseTpq("a//c//b//c", &pool);
                     GraphMatchResult r = MatchesWeakGraph(q, g, ctx);
                     return std::make_pair(r.outcome == Outcome::kDecided,
                                           r.matched);
                   }});
  cases.push_back({"graph-dtd", [](EngineContext* ctx) {
                     LabelPool pool;
                     Graph g;
                     NodeId n0 = g.AddNode(pool.Intern("a"));
                     NodeId n1 = g.AddNode(pool.Intern("b"));
                     NodeId n2 = g.AddNode(pool.Intern("c"));
                     g.AddEdge(n0, n1);
                     g.AddEdge(n1, n2);
                     g.AddEdge(n2, n1);
                     g.SetRoot(n0);
                     Dtd d = MustParseDtd("root: a; a -> b; b -> c; c -> b;",
                                          &pool);
                     GraphMatchResult r = GraphSatisfiesDtdNodesOnly(g, d, ctx);
                     return std::make_pair(r.outcome == Outcome::kDecided,
                                           r.matched);
                   }});
  return cases;
}

TEST(ExhaustionAuditTest, TightStepLimitsNeverFlipAnswers) {
  for (const AuditCase& c : FixedCases()) {
    EngineContext unlimited;
    auto [decided, truth] = c.run(&unlimited);
    ASSERT_TRUE(decided) << c.name << " did not decide unlimited";
    int undecided_runs = 0;
    for (int64_t steps = 1; steps <= 64; ++steps) {
      EngineConfig config;
      config.step_limit = steps;
      EngineContext ctx(config);
      auto [limited_decided, answer] = c.run(&ctx);
      if (limited_decided) {
        EXPECT_EQ(answer, truth)
            << c.name << " masked exhaustion at step_limit=" << steps;
      } else {
        ++undecided_runs;
      }
    }
    // The tightest limits must actually bite (a route that "decides"
    // everything at step_limit=1 is not charging its budget).
    EXPECT_GT(undecided_runs, 0) << c.name << " never reported exhaustion";
  }
}

TEST(ExhaustionAuditTest, TightMemoryLimitsNeverFlipAnswers) {
  for (const AuditCase& c : FixedCases()) {
    EngineContext unlimited;
    auto [decided, truth] = c.run(&unlimited);
    ASSERT_TRUE(decided) << c.name;
    for (int64_t limit : {int64_t{1}, int64_t{64}, int64_t{512},
                          int64_t{4096}, int64_t{1} << 16, int64_t{1} << 24}) {
      EngineConfig config;
      config.memory_limit = limit;
      EngineContext ctx(config);
      auto [limited_decided, answer] = c.run(&ctx);
      if (limited_decided) {
        EXPECT_EQ(answer, truth)
            << c.name << " masked exhaustion at memory_limit=" << limit;
      }
    }
  }
}

TEST(ExhaustionAuditTest, RandomizedInstancesNeverFlipUnderStepLimits) {
  LabelPool pool;
  std::mt19937 rng(1234);
  std::vector<LabelId> labels = MakeLabels(3, &pool);
  int undecided_runs = 0;
  for (int trial = 0; trial < 20; ++trial) {
    RandomTpqOptions opts;
    opts.labels = labels;
    opts.fragment = fragments::kTpqFull;
    opts.size = 3 + trial % 4;
    Tpq p = RandomTpq(opts, &rng);
    Tpq q = RandomTpq(opts, &rng);
    EngineContext unlimited;
    ContainmentResult truth = Contains(p, q, Mode::kWeak, &pool, &unlimited);
    ASSERT_EQ(truth.outcome, Outcome::kDecided);
    for (int64_t steps : {1, 2, 3, 5, 8, 13, 21, 34, 55}) {
      EngineConfig config;
      config.step_limit = steps;
      EngineContext ctx(config);
      ContainmentResult r = Contains(p, q, Mode::kWeak, &pool, &ctx);
      if (r.outcome == Outcome::kDecided) {
        EXPECT_EQ(r.contained, truth.contained)
            << p.ToString(pool) << " vs " << q.ToString(pool)
            << " at step_limit=" << steps;
      } else {
        ++undecided_runs;
        EXPECT_NE(r.reason, ExhaustionReason::kNone);
      }
    }
  }
  EXPECT_GT(undecided_runs, 0);
}

// The minimal- and single-canonical routes decide one canonical tree of p
// with the embedding DP, whose tables (2·|t|·⌈|q|/64⌉ words plus the tree's
// columns, a few hundred bytes here) must be charged like every other
// route's: under a memory limit below them, a bare `Contains` reports
// memory exhaustion instead of deciding.
TEST(ExhaustionAuditTest, SingleTreeRoutesChargeTheirMatcherTables) {
  struct RouteCase {
    const char* p;
    const char* q;
    ContainmentAlgorithm algorithm;
  };
  const RouteCase cases[] = {
      {"a/b[c]/d", "a//*//d", ContainmentAlgorithm::kMinimalCanonical},
      {"a/b/c[d]", "a/*/c", ContainmentAlgorithm::kSingleCanonical},
  };
  for (const RouteCase& c : cases) {
    LabelPool pool;
    Tpq p = MustParseTpq(c.p, &pool);
    Tpq q = MustParseTpq(c.q, &pool);
    EngineContext unlimited;
    ContainmentResult truth = Contains(p, q, Mode::kWeak, &pool, &unlimited);
    ASSERT_EQ(truth.outcome, Outcome::kDecided) << c.p;
    ASSERT_EQ(truth.algorithm, c.algorithm) << c.p;
    EXPECT_GT(unlimited.budget().bytes_peak(), 64) << c.p;

    EngineConfig config;
    config.memory_limit = 64;
    EngineContext ctx(config);
    ContainmentResult r = Contains(p, q, Mode::kWeak, &pool, &ctx);
    EXPECT_EQ(r.algorithm, c.algorithm) << c.p;
    EXPECT_EQ(r.outcome, Outcome::kResourceExhausted) << c.p;
    EXPECT_EQ(r.reason, ExhaustionReason::kMemory) << c.p;
  }
}

TEST(ExhaustionAuditTest, UndecidedRunsCarryAReason) {
  // Exhausted results must name the tripped resource.
  for (const AuditCase& c : FixedCases()) {
    EngineConfig config;
    config.step_limit = 1;
    EngineContext ctx(config);
    auto [decided, answer] = c.run(&ctx);
    (void)answer;
    if (!decided) {
      EXPECT_NE(ctx.budget().reason(), ExhaustionReason::kNone) << c.name;
    }
  }
}

}  // namespace
}  // namespace tpc
