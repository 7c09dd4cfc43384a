// The compiled-program pool (src/compile/program_cache.h): hotness
// threshold gating, LRU eviction under the byte bound, the
// fault-mid-compile "never cache a partial program" guarantee, and the
// label-pool generation fencing that keys the program pool, the verdict
// cache and the minimize memo (a moved-in fresh pool must miss everywhere
// instead of being served entries built against the old pool's ids).

#include <gtest/gtest.h>

#include <utility>

#include "base/label.h"
#include "compile/matcher_program.h"
#include "compile/program_cache.h"
#include "contain/containment.h"
#include "engine/engine.h"
#include "pattern/tpq_parser.h"
#include "service/query_service.h"

namespace tpc {
namespace {

TEST(ProgramCacheTest, HotnessThresholdGatesCompilation) {
  ProgramCache cache(2, 1 << 20, /*hot_threshold=*/3, nullptr);
  ProgramKey key{0xabcdef, 1, 0};
  bool should_compile = true;
  EXPECT_EQ(cache.Get(key, &should_compile), nullptr);
  EXPECT_FALSE(should_compile);  // hit 1
  EXPECT_EQ(cache.Get(key, &should_compile), nullptr);
  EXPECT_FALSE(should_compile);  // hit 2
  EXPECT_EQ(cache.Get(key, &should_compile), nullptr);
  EXPECT_TRUE(should_compile);  // hit 3 == threshold

  LabelPool pool;
  Tpq q = MustParseTpq("a//b[c]", &pool);
  auto program = MatcherProgram::Compile(q, nullptr);
  ASSERT_NE(program, nullptr);
  EXPECT_EQ(cache.Put(key, program), 0);
  EXPECT_EQ(cache.Get(key, &should_compile), program);
  EXPECT_EQ(cache.resident_programs(), 1u);
  // A different generation is a different key.
  ProgramKey other{0xabcdef, 2, 0};
  EXPECT_EQ(cache.Get(other, &should_compile), nullptr);
}

TEST(ProgramCacheTest, EvictsUnderByteBound) {
  LabelPool pool;
  Tpq q = MustParseTpq("a//b[c]//d", &pool);
  auto program = MatcherProgram::Compile(q, nullptr);
  ASSERT_NE(program, nullptr);
  // One shard whose bound fits roughly two resident programs.
  ProgramCache cache(1, 2 * (program->byte_size() + 128),
                     /*hot_threshold=*/1, nullptr);
  int64_t evictions = 0;
  for (uint64_t i = 0; i < 8; ++i) {
    evictions += cache.Put(ProgramKey{i, 1, 0}, program);
  }
  EXPECT_GT(evictions, 0);
  EXPECT_LT(cache.resident_programs(), 8u);
  // The most recently inserted key survived.
  bool should_compile = false;
  EXPECT_EQ(cache.Get(ProgramKey{7, 1, 0}, &should_compile), program);
}

TEST(ProgramCacheTest, FaultedCompileIsNeverCached) {
  LabelPool pool;
  Tpq p = MustParseTpq("a//b[c]//d", &pool);
  Tpq q = MustParseTpq("a//b//d", &pool);
  EngineConfig config;
  // Allocation #1 is the pool's tracker stub; #2 is the compile's first
  // speculative table charge — the mid-compile landing spot.
  config.fault_plan.fail_alloc_at = 2;
  EngineContext ctx(config);
  ProgramCache cache(1, 1 << 20, /*hot_threshold=*/1, &ctx.budget());
  ContainmentOptions options;
  options.force_canonical = true;
  options.bound = ContainmentOptions::Bound::kAggressive;
  options.program_cache = &cache;
  ContainmentResult r = Contains(p, q, Mode::kWeak, &pool, &ctx, options);
  ASSERT_EQ(r.outcome, Outcome::kDecided);
  EXPECT_EQ(cache.resident_programs(), 0u);
  EXPECT_EQ(ctx.stats().programs_compiled.load(std::memory_order_relaxed), 0);
  // The fault was one-shot: the next sweep compiles, caches and agrees.
  ContainmentResult again = Contains(p, q, Mode::kWeak, &pool, &ctx, options);
  ASSERT_EQ(again.outcome, Outcome::kDecided);
  EXPECT_EQ(again.contained, r.contained);
  EXPECT_EQ(cache.resident_programs(), 1u);
  EXPECT_EQ(ctx.stats().programs_compiled.load(std::memory_order_relaxed), 1);
  // And a third call is served from the pool without recompiling.
  Contains(p, q, Mode::kWeak, &pool, &ctx, options);
  EXPECT_EQ(ctx.stats().programs_compiled.load(std::memory_order_relaxed), 1);
}

TEST(ProgramCacheTest, LabelPoolGenerationMovesWithTheMapping) {
  LabelPool a;
  LabelPool b;
  const uint64_t ga = a.generation();
  EXPECT_NE(ga, b.generation());
  LabelPool c = std::move(a);
  EXPECT_EQ(c.generation(), ga);
  EXPECT_NE(a.generation(), ga);  // moved-from pool re-identifies
  b = std::move(c);
  EXPECT_EQ(b.generation(), ga);
  EXPECT_NE(c.generation(), ga);
}

// Regression for the pool-replacement hazard: the service's minimize memo,
// verdict cache and program pool are all keyed on hashes of interned label
// ids.  After a workload move-assigns a fresh pool, numerically identical
// patterns must MISS everywhere (fresh generation) rather than be served
// entries built against the old pool.
TEST(ProgramCacheTest, ServiceCachesMissAfterPoolReplacement) {
  LabelPool pool;
  EngineContext ctx;
  // Without the lattice's witness borrowing, every pair below that misses
  // the verdict cache reaches the probe cascade.
  ServiceOptions sopts;
  sopts.use_lattice = false;
  QueryService service(&pool, &ctx, sopts);
  // Pairs (p_i, q) whose p_i lack q's letter c: each fails the homomorphism
  // accept-filter and reaches the probe cascade, which fetches q from the
  // program pool — so past the service's hotness threshold q is compiled.
  static constexpr const char* kRefuted[] = {"a//b//d", "a/b//d", "a//b/d",
                                            "a/b/d", "a//d"};
  static_assert(sizeof(kRefuted) / sizeof(kRefuted[0]) >
                QueryService::kProgramHotThreshold);
  auto warm_q = [&service, &pool](const char* q_text) {
    Tpq q = MustParseTpq(q_text, &pool);
    for (const char* p_text : kRefuted) {
      ContainmentResult r =
          service.Contains(MustParseTpq(p_text, &pool), q, Mode::kWeak);
      ASSERT_EQ(r.outcome, Outcome::kDecided);
      EXPECT_FALSE(r.contained);
    }
  };

  Tpq p = MustParseTpq("a//b//d", &pool);
  Tpq q = MustParseTpq("a//b[c]//d", &pool);
  ContainmentResult first = service.Contains(p, q, Mode::kWeak);
  ASSERT_EQ(first.outcome, Outcome::kDecided);
  EXPECT_FALSE(first.contained);
  warm_q("a//b[c]//d");
  const int64_t compiled_before =
      ctx.stats().programs_compiled.load(std::memory_order_relaxed);
  EXPECT_GT(compiled_before, 0);

  // Same pool, same ids: the verdict cache serves the repeat and nothing
  // recompiles beyond the warm pool.
  ContainmentResult repeat = service.Contains(p, q, Mode::kWeak);
  EXPECT_EQ(repeat.contained, first.contained);
  const int64_t hits_before =
      ctx.stats().cache_hits.load(std::memory_order_relaxed);
  EXPECT_GT(hits_before, 0);

  // Replace the pool in place (the service keeps its pointer).  The same
  // spellings intern to the same numeric ids — indistinguishable from the
  // old pool by hash alone; only the generation tells them apart.
  pool = LabelPool();
  Tpq p2 = MustParseTpq("a//b//d", &pool);
  Tpq q2 = MustParseTpq("a//b[c]//d", &pool);
  ContainmentResult fresh = service.Contains(p2, q2, Mode::kWeak);
  ASSERT_EQ(fresh.outcome, Outcome::kDecided);
  EXPECT_EQ(fresh.contained, first.contained);
  // No stale verdict-cache hit...
  EXPECT_EQ(ctx.stats().cache_hits.load(std::memory_order_relaxed),
            hits_before);
  warm_q("a//b[c]//d");
  // ...and the program pool re-compiled under the new generation instead of
  // serving the old pool's program.
  EXPECT_GT(ctx.stats().programs_compiled.load(std::memory_order_relaxed),
            compiled_before);
}

}  // namespace
}  // namespace tpc
