// Unit tests of the query-service fast path: cache keying through
// minimization + canonical hashing, sound replay of cached refutations,
// prefilter accepts/refutes, batch dedup/fan-out, the byte bounds, and the
// reserved bottom/root labels (no per-decision minting, no aliasing).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <string>
#include <vector>

#include "base/label.h"
#include "contain/containment.h"
#include "engine/engine.h"
#include "gen/random_instances.h"
#include "match/embedding.h"
#include "pattern/tpq.h"
#include "pattern/tpq_parser.h"
#include "reductions/hardness_families.h"
#include "service/query_service.h"

namespace tpc {
namespace {

int64_t Stat(EngineContext* ctx, std::atomic<int64_t> EngineStats::*field) {
  return (ctx->stats().*field).load(std::memory_order_relaxed);
}

TEST(QueryServiceTest, RepeatedPairHitsTheCache) {
  LabelPool pool;
  EngineContext ctx;
  QueryService service(&pool, &ctx);
  ConpFamilyInstance inst = BuildConpFamily(3, &pool);

  ContainmentResult cold = service.Contains(inst.p, inst.q_yes, Mode::kWeak);
  ASSERT_EQ(cold.outcome, Outcome::kDecided);
  EXPECT_TRUE(cold.contained);
  EXPECT_EQ(Stat(&ctx, &EngineStats::cache_hits), 0);

  const int64_t trees_cold = Stat(&ctx, &EngineStats::canonical_trees_enumerated);
  ContainmentResult warm = service.Contains(inst.p, inst.q_yes, Mode::kWeak);
  ASSERT_EQ(warm.outcome, Outcome::kDecided);
  EXPECT_TRUE(warm.contained);
  EXPECT_EQ(Stat(&ctx, &EngineStats::cache_hits), 1);
  // The warm hit must not have re-run the sweep.
  EXPECT_EQ(Stat(&ctx, &EngineStats::canonical_trees_enumerated), trees_cold);
}

TEST(QueryServiceTest, ChildOrderVariantsShareOneEntry) {
  LabelPool pool;
  EngineContext ctx;
  QueryService service(&pool, &ctx);
  const LabelId a = pool.Intern("a");
  const LabelId b = pool.Intern("b");
  const LabelId c = pool.Intern("c");

  Tpq q(a);  // a[b][//c]
  q.AddChild(0, b, EdgeKind::kChild);
  q.AddChild(0, c, EdgeKind::kDescendant);

  Tpq p1(a);  // a[b/b][//c]
  NodeId p1b = p1.AddChild(0, b, EdgeKind::kChild);
  p1.AddChild(p1b, b, EdgeKind::kChild);
  p1.AddChild(0, c, EdgeKind::kDescendant);

  Tpq p2(a);  // a[//c][b/b]: p1 with siblings swapped
  p2.AddChild(0, c, EdgeKind::kDescendant);
  NodeId p2b = p2.AddChild(0, b, EdgeKind::kChild);
  p2.AddChild(p2b, b, EdgeKind::kChild);

  ContainmentResult r1 = service.Contains(p1, q, Mode::kWeak);
  ContainmentResult r2 = service.Contains(p2, q, Mode::kWeak);
  ASSERT_EQ(r1.outcome, Outcome::kDecided);
  ASSERT_EQ(r2.outcome, Outcome::kDecided);
  EXPECT_EQ(r1.contained, r2.contained);
  EXPECT_EQ(Stat(&ctx, &EngineStats::cache_hits), 1);
}

TEST(QueryServiceTest, MinimizationEquivalentVariantsShareOneEntry) {
  LabelPool pool;
  EngineContext ctx;
  QueryService service(&pool, &ctx);
  const LabelId a = pool.Intern("a");
  const LabelId b = pool.Intern("b");

  Tpq q(a);
  q.AddChild(0, b, EdgeKind::kDescendant);

  Tpq p1(a);  // a[b]
  p1.AddChild(0, b, EdgeKind::kChild);
  Tpq p2(a);  // a[b][b]: minimizes to a[b]
  p2.AddChild(0, b, EdgeKind::kChild);
  p2.AddChild(0, b, EdgeKind::kChild);

  ContainmentResult r1 = service.Contains(p1, q, Mode::kWeak);
  ContainmentResult r2 = service.Contains(p2, q, Mode::kWeak);
  ASSERT_EQ(r1.contained, r2.contained);
  EXPECT_EQ(Stat(&ctx, &EngineStats::cache_hits), 1);
}

TEST(QueryServiceTest, CachedRefutationReplaysAValidWitness) {
  LabelPool pool;
  EngineContext ctx;
  QueryService service(&pool, &ctx);
  ConpFamilyInstance inst = BuildConpFamily(3, &pool);

  ContainmentResult cold = service.Contains(inst.p, inst.q_no, Mode::kWeak);
  ASSERT_EQ(cold.outcome, Outcome::kDecided);
  ASSERT_FALSE(cold.contained);

  ContainmentResult warm = service.Contains(inst.p, inst.q_no, Mode::kWeak);
  ASSERT_EQ(warm.outcome, Outcome::kDecided);
  ASSERT_FALSE(warm.contained);
  EXPECT_GE(Stat(&ctx, &EngineStats::cache_hits), 1);
  // The served witness must be a genuine member of L_w(p) \ L_w(q).
  ASSERT_TRUE(warm.counterexample.has_value());
  EXPECT_TRUE(MatchesWeak(inst.p, *warm.counterexample));
  EXPECT_FALSE(MatchesWeak(inst.q_no, *warm.counterexample));
}

TEST(QueryServiceTest, HomomorphismPrefilterAcceptsWithoutSweeping) {
  LabelPool pool;
  EngineContext ctx;
  ServiceOptions options;
  options.use_cache = false;  // isolate the prefilter layer
  QueryService service(&pool, &ctx, options);
  ConpFamilyInstance inst = BuildConpFamily(3, &pool);

  // p ⊆ p accepts via the identity homomorphism; without the prefilter this
  // pair routes to the exponential canonical sweep (q = p has wildcards).
  ContainmentResult r = service.Contains(inst.p, inst.p, Mode::kWeak);
  ASSERT_EQ(r.outcome, Outcome::kDecided);
  EXPECT_TRUE(r.contained);
  EXPECT_EQ(r.algorithm, ContainmentAlgorithm::kHomomorphism);
  EXPECT_EQ(Stat(&ctx, &EngineStats::prefilter_accepts), 1);
  EXPECT_EQ(Stat(&ctx, &EngineStats::canonical_trees_enumerated), 0);
}

TEST(QueryServiceTest, ProbePrefilterRefutesWithoutSweeping) {
  LabelPool pool;
  EngineContext ctx;
  ServiceOptions options;
  options.use_cache = false;
  QueryService service(&pool, &ctx, options);
  ConpFamilyInstance inst = BuildConpFamily(3, &pool);

  // q_no's unique counterexample shape is the all-zero canonical model —
  // exactly the first probe — so the refutation must cost O(1) trees.
  ContainmentResult r = service.Contains(inst.p, inst.q_no, Mode::kWeak);
  ASSERT_EQ(r.outcome, Outcome::kDecided);
  EXPECT_FALSE(r.contained);
  EXPECT_EQ(Stat(&ctx, &EngineStats::prefilter_refutes), 1);
  EXPECT_LE(Stat(&ctx, &EngineStats::canonical_trees_enumerated), 2);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_TRUE(MatchesWeak(inst.p, *r.counterexample));
  EXPECT_FALSE(MatchesWeak(inst.q_no, *r.counterexample));
}

TEST(QueryServiceTest, VerdictsAgreeAcrossAllLayerCombinations) {
  LabelPool pool;
  ConpFamilyInstance inst = BuildConpFamily(3, &pool);
  const Tpq* qs[] = {&inst.q_yes, &inst.q_no};
  for (bool use_cache : {true, false}) {
    for (bool use_prefilters : {true, false}) {
      EngineContext ctx;
      ServiceOptions options;
      options.use_cache = use_cache;
      options.use_prefilters = use_prefilters;
      QueryService service(&pool, &ctx, options);
      for (const Tpq* q : qs) {
        ContainmentResult fast = service.Contains(inst.p, *q, Mode::kWeak);
        ContainmentResult reference = Contains(inst.p, *q, Mode::kWeak, &pool);
        ASSERT_EQ(fast.outcome, Outcome::kDecided);
        EXPECT_EQ(fast.contained, reference.contained)
            << "cache=" << use_cache << " prefilters=" << use_prefilters;
      }
    }
  }
}

TEST(QueryServiceTest, BatchFoldsDuplicatesAndKeepsOrder) {
  LabelPool pool;
  EngineContext ctx;
  QueryService service(&pool, &ctx);
  const LabelId a = pool.Intern("a");
  const LabelId b = pool.Intern("b");

  Tpq chain(a);  // a/b
  chain.AddChild(0, b, EdgeKind::kChild);
  Tpq deep(a);  // a//b
  deep.AddChild(0, b, EdgeKind::kDescendant);

  std::vector<QueryService::BatchItem> items;
  items.push_back({chain, deep, Mode::kWeak});   // contained
  items.push_back({deep, chain, Mode::kWeak});   // NOT contained
  items.push_back({chain, deep, Mode::kWeak});   // duplicate of 0
  items.push_back({chain, deep, Mode::kStrong});  // distinct: mode differs
  items.push_back({deep, chain, Mode::kWeak});   // duplicate of 1

  std::vector<ContainmentResult> results = service.ContainsBatch(items);
  ASSERT_EQ(results.size(), items.size());
  EXPECT_TRUE(results[0].contained);
  EXPECT_FALSE(results[1].contained);
  EXPECT_TRUE(results[2].contained);
  EXPECT_TRUE(results[3].contained);
  EXPECT_FALSE(results[4].contained);
  EXPECT_EQ(Stat(&ctx, &EngineStats::batch_deduped), 2);
}

TEST(QueryServiceTest, ParallelBatchMatchesSequential) {
  LabelPool pool;
  ConpFamilyInstance inst = BuildConpFamily(3, &pool);
  std::vector<QueryService::BatchItem> items;
  for (int i = 0; i < 12; ++i) {
    items.push_back({inst.p, i % 2 == 0 ? inst.q_yes : inst.q_no,
                     i % 3 == 0 ? Mode::kStrong : Mode::kWeak});
  }
  EngineContext seq_ctx;
  QueryService seq(&pool, &seq_ctx);
  std::vector<ContainmentResult> sequential = seq.ContainsBatch(items);

  EngineConfig config;
  config.threads = 4;
  EngineContext par_ctx(config);
  QueryService par(&pool, &par_ctx);
  std::vector<ContainmentResult> parallel = par.ContainsBatch(items);

  ASSERT_EQ(sequential.size(), parallel.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    ASSERT_EQ(sequential[i].outcome, Outcome::kDecided);
    ASSERT_EQ(parallel[i].outcome, Outcome::kDecided);
    EXPECT_EQ(sequential[i].contained, parallel[i].contained) << "item " << i;
  }
}

TEST(QueryServiceTest, TinyByteBoundForcesEvictions) {
  LabelPool pool;
  EngineContext ctx;
  ServiceOptions options;
  options.cache_shards = 1;
  // The verdict cache's half (256 bytes) holds one entry, not two.
  options.cache_bytes = 512;
  options.use_prefilters = false;
  QueryService service(&pool, &ctx, options);
  const LabelId a = pool.Intern("a");

  Tpq q(a);
  q.AddChild(0, pool.Intern("zzz"), EdgeKind::kDescendant);
  for (int i = 0; i < 8; ++i) {
    Tpq p(a);
    NodeId v = p.AddChild(0, pool.Intern("x" + std::to_string(i)),
                          EdgeKind::kChild);
    p.AddChild(v, pool.Intern("y" + std::to_string(i)),
               EdgeKind::kDescendant);
    ContainmentResult r = service.Contains(p, q, Mode::kWeak);
    ASSERT_EQ(r.outcome, Outcome::kDecided);
  }
  EXPECT_GT(Stat(&ctx, &EngineStats::cache_evictions), 0);
  // The bound keeps tracked bytes in check, visible through the budget.
  EXPECT_GT(ctx.budget().bytes_peak(), 0);
}

/// A random TPQ(/,//,*) pattern over `labels`, sized 4..7.
Tpq RandomPattern(const std::vector<LabelId>& labels, int i,
                  std::mt19937* rng) {
  RandomTpqOptions opts;
  opts.labels = labels;
  opts.fragment = fragments::kTpqFull;
  opts.size = 4 + i % 4;
  return RandomTpq(opts, rng);
}

TEST(QueryServiceTest, MemoAndProbeBookStayUnderTheCacheBound) {
  LabelPool pool;
  EngineContext ctx;
  ServiceOptions options;
  options.cache_bytes = 4096;
  options.lattice_bytes = 4096;
  options.program_cache_bytes = 4096;
  QueryService service(&pool, &ctx, options);
  std::mt19937 rng(2468);
  const std::vector<LabelId> labels = MakeLabels(12, &pool);
  ContainmentOptions reference;
  reference.force_canonical = true;
  // Decision scratch lands on the request context, so the service context
  // holds only the shared layers: verdict cache, lattice, program pool,
  // minimize memo and probe book.
  EngineContext request_ctx;
  EngineContext reference_ctx;
  int64_t peak = 0;
  int refuted = 0;
  for (int i = 0; i < 400; ++i) {
    const Tpq p = RandomPattern(labels, i, &rng);
    const Tpq q = RandomPattern(labels, i / 4, &rng);
    const Mode mode = i % 3 == 0 ? Mode::kStrong : Mode::kWeak;
    ContainmentResult got = service.ContainsFor(p, q, mode, &request_ctx);
    ContainmentResult want =
        Contains(p, q, mode, &pool, &reference_ctx, reference);
    ASSERT_EQ(got.outcome, Outcome::kDecided);
    ASSERT_EQ(want.outcome, Outcome::kDecided);
    ASSERT_EQ(got.contained, want.contained)
        << p.ToString(pool) << " in " << q.ToString(pool);
    refuted += got.contained ? 0 : 1;
    peak = std::max(peak, ctx.budget().bytes_used());
  }
  EXPECT_GT(refuted, 100);
  // Unbounded, the memo alone would hold 800 distinct raw patterns at
  // 96 + 32 bytes per node; the verdict cache, memo and probe book share
  // one bound instead.
  EXPECT_LE(peak, options.cache_bytes + options.lattice_bytes +
                      options.program_cache_bytes);
}

TEST(QueryServiceTest, ConpMixDecisionsMintNoLabels) {
  LabelPool pool;
  EngineContext ctx;
  QueryService service(&pool, &ctx);
  std::mt19937 rng(97);
  const std::vector<LabelId> labels = MakeLabels(8, &pool);
  const ConpFamilyInstance family = BuildConpFamily(3, &pool);
  // Runs of four pairs sharing p, as the heavy tenant sends them: coNP
  // family runs and random TPQ(/,//,*) runs, weak and strong.
  std::vector<std::vector<QueryService::BatchItem>> runs;
  for (int run = 0; run < 50; ++run) {
    const Mode mode = run % 2 == 0 ? Mode::kWeak : Mode::kStrong;
    const Tpq p = run % 5 == 0 ? family.p : RandomPattern(labels, run, &rng);
    std::vector<QueryService::BatchItem> items;
    for (int k = 0; k < 4; ++k) {
      Tpq q = run % 5 == 0 ? (k % 2 == 0 ? family.q_yes : family.q_no)
                           : RandomPattern(labels, k, &rng);
      items.push_back({p, std::move(q), mode});
    }
    runs.push_back(std::move(items));
  }
  // Warm-up: one weak and one strong sweep mint the reserved labels.
  for (Mode mode : {Mode::kWeak, Mode::kStrong}) {
    ASSERT_EQ(service.Contains(family.p, family.q_yes, mode).outcome,
              Outcome::kDecided);
  }
  const size_t warm_size = pool.size();
  int decided = 0;
  for (const auto& items : runs) {
    for (const ContainmentResult& r : service.ContainsBatch(items)) {
      ASSERT_EQ(r.outcome, Outcome::kDecided);
      ++decided;
    }
  }
  EXPECT_EQ(decided, 200);
  EXPECT_EQ(pool.size(), warm_size);
}

/// Patterns spelling the pool's current reserved names intern to the
/// reserved ids themselves; the pool must retire them so the decisions use
/// labels outside both patterns.  Each pair is not contained, but would be
/// decided "contained" if ⊥ (or the root mark) aliased a pattern label.
TEST(QueryServiceTest, PatternsSpellingReservedNamesDecideSoundly) {
  LabelPool pool;
  EngineContext ctx;
  QueryService service(&pool, &ctx);
  const ConpFamilyInstance family = BuildConpFamily(2, &pool);
  service.Contains(family.p, family.q_no, Mode::kWeak);
  service.Contains(family.p, family.q_no, Mode::kStrong);
  const LabelId bottom = pool.Bottom();
  const LabelId root_mark = pool.RootMark();
  const std::string bot = pool.Name(bottom);
  const std::string root = pool.Name(root_mark);
  struct Pair {
    std::string p, q;
    Mode mode;
  };
  const std::vector<Pair> pairs = {
      // Single canonical tree a(⊥(c)).
      {"a/*/c", "a/" + bot + "/c", Mode::kWeak},
      // Every canonical tree has ⊥ above c: the full sweep.
      {"a[b]//*/c", "*[b]//" + bot + "/c", Mode::kWeak},
      // Observation 2.3: q's root may land on p's inner root-mark node.
      {"a/" + root + "/b", "*/b", Mode::kStrong},
  };
  ContainmentOptions reference;
  reference.force_canonical = true;
  for (const Pair& pair : pairs) {
    const Tpq p = MustParseTpq(pair.p, &pool);
    const Tpq q = MustParseTpq(pair.q, &pool);
    const ContainmentResult got = service.Contains(p, q, pair.mode);
    LabelPool fresh_pool;
    const ContainmentResult want =
        Contains(MustParseTpq(pair.p, &fresh_pool),
                 MustParseTpq(pair.q, &fresh_pool), pair.mode, &fresh_pool,
                 reference);
    ASSERT_EQ(got.outcome, Outcome::kDecided) << pair.p << " in " << pair.q;
    ASSERT_EQ(want.outcome, Outcome::kDecided);
    EXPECT_FALSE(want.contained) << pair.p << " in " << pair.q;
    EXPECT_EQ(got.contained, want.contained) << pair.p << " in " << pair.q;
  }
  // Interning the spellings retired both reserved labels.
  EXPECT_NE(pool.Bottom(), bottom);
  EXPECT_NE(pool.RootMark(), root_mark);
}

}  // namespace
}  // namespace tpc
