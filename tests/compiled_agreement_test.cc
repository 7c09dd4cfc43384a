// Agreement of the compiled matcher path (src/compile/ — flat programs over
// postorder columns) with the definitional oracle of reference_sweep.h and
// with the generic DP: every cell and verdict of `ProgramSweep` over 500
// random instances, a compiled and a generic `SweepBank` member of the same
// pattern over whole enumerations (identical verdicts and DP cell counts),
// sweep verdicts in both modes and at 1/2/4 threads, the oversize (> 64
// node) fallback, and compile-time fault injection (an allocation failure
// mid-compile must fall back to the generic DP without exhausting the
// budget or caching a partial program).

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "base/label.h"
#include "compile/matcher_program.h"
#include "compile/program_cache.h"
#include "compile/sweep_bank.h"
#include "contain/containment.h"
#include "engine/engine.h"
#include "gen/random_instances.h"
#include "match/embedding.h"
#include "pattern/canonical.h"
#include "pattern/tpq_parser.h"
#include "reference_sweep.h"

namespace tpc {
namespace {

ContainmentOptions SweepOptions() {
  ContainmentOptions options;
  options.force_canonical = true;
  options.bound = ContainmentOptions::Bound::kAggressive;
  return options;
}

/// The oracle's first counterexample under the engine's aggressive bound.
std::optional<std::vector<int32_t>> OracleCounterexample(const Tpq& p,
                                                         const Tpq& q,
                                                         Mode mode,
                                                         LabelPool* pool) {
  return NaiveFirstCounterexample(
      p, q, mode, pool,
      EngineSweepBound(q, mode, ContainmentOptions::Bound::kAggressive, pool));
}

// The 500-instance core: the compiled executor's cells and verdict bits
// must equal the oracle's on random, chain and star trees, weak and strong
// alike.
TEST(CompiledAgreementTest, ProgramMatchesOracleOver500Instances) {
  LabelPool pool;
  std::mt19937 rng(24601);
  std::vector<LabelId> labels = MakeLabels(2, &pool);
  EngineStats stats;
  RandomTpqOptions qopts;
  qopts.labels = labels;
  qopts.fragment = fragments::kTpqFull;
  RandomTreeOptions topts;
  topts.labels = labels;
  ProgramSweep exec;
  int weak_matches = 0;
  for (int trial = 0; trial < 500; ++trial) {
    qopts.size = 2 + trial % 7;
    topts.size = 1 + trial % 13;
    Tree t = trial % 11 == 0   ? ChainTree(labels, topts.size)
             : trial % 13 == 0 ? StarTree(labels, topts.size)
                               : RandomTree(topts, &rng);
    Tpq q = RandomTpq(qopts, &rng);
    auto program = MatcherProgram::Compile(q, nullptr, &stats);
    ASSERT_NE(program, nullptr);
    exec.EvalFull(*program, t, &stats);
    const ReferenceTables ref = ReferenceEmbedding(q, t);
    for (NodeId v = 0; v < q.size(); ++v) {
      for (NodeId x = 0; x < t.size(); ++x) {
        ASSERT_EQ(exec.SatAt(v, x), ref.sat[v][x])
            << "sat(" << v << "," << x << "): " << q.ToString(pool) << " on "
            << t.ToString(pool);
        ASSERT_EQ(exec.SatBelow(v, x), ref.below[v][x])
            << "below(" << v << "," << x << "): " << q.ToString(pool)
            << " on " << t.ToString(pool);
      }
    }
    ASSERT_EQ(exec.MatchesWeak(), ref.below[0][0])
        << q.ToString(pool) << " on " << t.ToString(pool);
    ASSERT_EQ(exec.MatchesStrong(), ref.sat[0][0])
        << q.ToString(pool) << " on " << t.ToString(pool);
    if (exec.MatchesWeak()) ++weak_matches;
  }
  // The sample must exercise both verdicts, every tile, and the counters.
  EXPECT_GT(weak_matches, 20);
  EXPECT_LT(weak_matches, 480);
  EXPECT_EQ(stats.programs_compiled.load(std::memory_order_relaxed), 500);
  EXPECT_EQ(stats.program_exec_hits.load(std::memory_order_relaxed), 500);
  EXPECT_GT(stats.dp_rows_skipped.load(std::memory_order_relaxed), 0);
}

// The compiled executor and the generic fallback side by side: one bank
// holds the same pattern twice — compiled and with no program — and walks
// whole enumerations the way a sweep chunk does (full build, then suffix
// rebuilds).  Every tree must get the same verdict from both members and
// from the oracle, and both must report the same DP cells.
TEST(CompiledAgreementTest, GenericAndCompiledMembersAgreeOverEnumerations) {
  LabelPool pool;
  std::mt19937 rng(97531);
  std::vector<LabelId> labels = MakeLabels(3, &pool);
  const LabelId bottom = pool.Fresh("_bot");
  int refuting_trees = 0;
  for (int trial = 0; trial < 120; ++trial) {
    RandomTpqOptions popts;
    popts.labels = labels;
    popts.fragment = fragments::kTpqFull;
    popts.size = 3 + trial % 5;
    RandomTpqOptions qopts = popts;
    qopts.size = 3 + (trial / 5) % 5;
    Tpq p = RandomTpq(popts, &rng);
    Tpq q = RandomTpq(qopts, &rng);
    const bool strong = trial % 4 == 0;
    SweepBank bank;
    const size_t generic = bank.AddMember(&q, nullptr);
    const size_t compiled =
        bank.AddMember(&q, MatcherProgram::Compile(q, nullptr));
    EngineContext ctx;
    EngineStats generic_stats;
    EngineStats compiled_stats;
    CanonicalTreeBuilder builder(p, bottom);
    CanonicalLengthEnumerator lengths(builder.num_spines(), 2);
    Tree tree;
    bool fresh = true;
    do {
      const size_t first = lengths.first_changed();
      const bool suffix = !fresh && first < builder.num_spines();
      if (suffix) {
        builder.BuildSuffix(lengths.lengths(), first, &tree);
      } else {
        builder.BuildFull(lengths.lengths(), &tree);
      }
      const NodeId stable = suffix ? builder.spine_start(first) : 0;
      ASSERT_TRUE(bank.ChargeMember(generic, tree, &ctx.budget()));
      ASSERT_TRUE(bank.ChargeMember(compiled, tree, &ctx.budget()));
      const bool g = bank.EvalMember(generic, tree, suffix, stable, strong,
                                     /*ignored=*/true, &generic_stats);
      const bool c = bank.EvalMember(compiled, tree, suffix, stable, strong,
                                     /*ignored=*/true, &compiled_stats);
      ASSERT_EQ(g, c) << q.ToString(pool) << " on " << tree.ToString(pool);
      ASSERT_EQ(g, ReferenceMatches(q, tree, strong))
          << q.ToString(pool) << " on " << tree.ToString(pool);
      if (!g) ++refuting_trees;
      fresh = false;
    } while (lengths.Next());
    EXPECT_EQ(generic_stats.embeddings_attempted.load(),
              compiled_stats.embeddings_attempted.load());
    EXPECT_EQ(generic_stats.dp_cells_filled.load(),
              compiled_stats.dp_cells_filled.load());
    EXPECT_EQ(generic_stats.dp_cells_reused.load(),
              compiled_stats.dp_cells_reused.load());
    EXPECT_EQ(generic_stats.program_exec_hits.load(), 0);
    EXPECT_EQ(compiled_stats.program_exec_hits.load(),
              compiled_stats.embeddings_attempted.load());
  }
  EXPECT_GT(refuting_trees, 10);
}

TEST(CompiledAgreementTest, SweepVerdictsMatchOracleBothModes) {
  LabelPool pool;
  std::mt19937 rng(97531);
  std::vector<LabelId> labels = MakeLabels(3, &pool);
  int not_contained = 0;
  for (int trial = 0; trial < 250; ++trial) {
    RandomTpqOptions popts;
    popts.labels = labels;
    popts.fragment = fragments::kTpqFull;
    popts.size = 3 + trial % 5;
    RandomTpqOptions qopts = popts;
    qopts.size = 3 + (trial / 5) % 5;
    Tpq p = RandomTpq(popts, &rng);
    Tpq q = RandomTpq(qopts, &rng);
    Mode mode = trial % 4 == 0 ? Mode::kStrong : Mode::kWeak;
    EngineContext ctx;
    ContainmentResult compiled = Contains(p, q, mode, &pool, &ctx,
                                          SweepOptions());
    const std::optional<std::vector<int32_t>> reference =
        OracleCounterexample(p, q, mode, &pool);
    ASSERT_EQ(compiled.outcome, Outcome::kDecided);
    ASSERT_EQ(compiled.contained, !reference.has_value())
        << p.ToString(pool) << " in " << q.ToString(pool);
    // Both walk the length-vector space in the same order, so even the
    // counterexample must be the same model.
    EXPECT_EQ(compiled.counterexample_lengths, reference)
        << p.ToString(pool) << " in " << q.ToString(pool);
    if (reference.has_value()) ++not_contained;
  }
  EXPECT_GT(not_contained, 10);
}

TEST(CompiledAgreementTest, ParallelSweepsAgreeAcrossThreadCounts) {
  LabelPool pool;
  std::mt19937 rng(8642);
  std::vector<LabelId> labels = MakeLabels(2, &pool);
  RandomTpqOptions popts;
  popts.labels = labels;
  popts.fragment = fragments::kTpqFull;
  RandomTpqOptions qopts = popts;
  for (int trial = 0; trial < 40; ++trial) {
    popts.size = 4 + trial % 4;
    qopts.size = 3 + (trial / 3) % 4;
    Tpq p = RandomTpq(popts, &rng);
    Tpq q = RandomTpq(qopts, &rng);
    Mode mode = trial % 3 == 0 ? Mode::kStrong : Mode::kWeak;
    const bool reference = !OracleCounterexample(p, q, mode, &pool);
    for (int threads : {1, 2, 4}) {
      EngineConfig config;
      config.threads = threads;
      // Engage the chunked-parallel sweep even on small spaces.
      config.parallel_threshold = 2;
      config.parallel_chunk = 4;
      EngineContext ctx(config);
      ContainmentResult r = Contains(p, q, mode, &pool, &ctx, SweepOptions());
      ASSERT_EQ(r.outcome, Outcome::kDecided);
      ASSERT_EQ(r.contained, reference)
          << p.ToString(pool) << " in " << q.ToString(pool) << " threads "
          << threads;
    }
  }
}

// An allocation fault landing on either of the compile's two speculative
// charge points must degrade to the generic DP: same verdict, nothing
// compiled, budget NOT exhausted (the soft charge refunds instead of
// poisoning the run like a DP-table fault would).
TEST(CompiledAgreementTest, AllocFaultMidCompileFallsBackToGeneric) {
  LabelPool pool;
  Tpq p = MustParseTpq("a//b[c]//d", &pool);
  Tpq q = MustParseTpq("a//b//d", &pool);
  const bool contained = !OracleCounterexample(p, q, Mode::kWeak, &pool);
  for (int64_t fail_at : {1, 2}) {
    EngineConfig config;
    config.fault_plan.fail_alloc_at = fail_at;
    EngineContext ctx(config);
    ContainmentResult r =
        Contains(p, q, Mode::kWeak, &pool, &ctx, SweepOptions());
    ASSERT_EQ(r.outcome, Outcome::kDecided) << "fail_alloc_at " << fail_at;
    EXPECT_EQ(r.contained, contained);
    EXPECT_FALSE(ctx.budget().Exhausted());
    EXPECT_EQ(ctx.stats().programs_compiled.load(std::memory_order_relaxed),
              0);
    EXPECT_EQ(ctx.stats().program_exec_hits.load(std::memory_order_relaxed),
              0);
  }
  // Without a fault the same sweep compiles and executes the program.
  EngineContext clean;
  ContainmentResult r =
      Contains(p, q, Mode::kWeak, &pool, &clean, SweepOptions());
  ASSERT_EQ(r.outcome, Outcome::kDecided);
  EXPECT_EQ(r.contained, contained);
  EXPECT_EQ(clean.stats().programs_compiled.load(std::memory_order_relaxed),
            1);
  EXPECT_GT(clean.stats().program_exec_hits.load(std::memory_order_relaxed),
            0);
}

// Patterns beyond the single-word model are not compilable; the generic DP
// must evaluate them cell for cell like the oracle, and a sweep whose
// evaluation-side pattern is oversize must decide through it.
TEST(CompiledAgreementTest, OversizePatternFallsBackToGenericDp) {
  LabelPool pool;
  std::string chain = "a";
  for (int i = 0; i < 69; ++i) chain += "/a";
  Tpq big = MustParseTpq(chain.c_str(), &pool);
  ASSERT_GT(big.size(), 64);
  EXPECT_FALSE(MatcherProgram::Compilable(big));
  EXPECT_EQ(MatcherProgram::Compile(big, nullptr), nullptr);

  Tree t = ChainTree({pool.Intern("a")}, 80);
  Matcher generic(big, t, nullptr);
  EXPECT_TRUE(generic.MatchesWeak());
  const ReferenceTables ref = ReferenceEmbedding(big, t);
  ASSERT_EQ(generic.MatchesWeak(), ref.below[0][0]);
  ASSERT_EQ(generic.MatchesStrong(), ref.sat[0][0]);
  for (NodeId v = 0; v < big.size(); ++v) {
    for (NodeId x = 0; x < t.size(); ++x) {
      ASSERT_EQ(generic.SatAt(v, x), ref.sat[v][x]);
      ASSERT_EQ(generic.SatBelow(v, x), ref.below[v][x]);
    }
  }

  // The oversize pattern on the evaluation side of a sweep: p's canonical
  // models are a 70-a chain over a ⊥-chain, then one more a — contained in
  // the 70-node child chain, refuted by one node more.
  Tpq p = MustParseTpq((chain + "//a").c_str(), &pool);
  Tpq bigger = MustParseTpq((chain + "/a/a").c_str(), &pool);
  for (const Tpq* q : {&big, &bigger}) {
    ASSERT_GT(q->size(), 64);
    EngineContext ctx;
    ContainmentResult r = Contains(p, *q, Mode::kWeak, &pool, &ctx,
                                   SweepOptions());
    ASSERT_EQ(r.outcome, Outcome::kDecided);
    const std::optional<std::vector<int32_t>> reference =
        OracleCounterexample(p, *q, Mode::kWeak, &pool);
    EXPECT_EQ(r.contained, !reference.has_value());
    EXPECT_EQ(r.counterexample_lengths, reference);
    // The sweep compiled nothing: the oversize member ran the generic DP.
    EXPECT_EQ(ctx.stats().programs_compiled.load(std::memory_order_relaxed),
              0);
    EXPECT_EQ(ctx.stats().program_exec_hits.load(std::memory_order_relaxed),
              0);
    EXPECT_GT(ctx.stats().dp_cells_filled.load(std::memory_order_relaxed),
              0);
  }
}

// The incremental compiled sweep must agree with the from-scratch reference
// sweep (the suffix recompute is the compiled twin of the generic
// EvalIncremental invariant).
TEST(CompiledAgreementTest, IncrementalAndScratchCompiledSweepsAgree) {
  LabelPool pool;
  std::mt19937 rng(31415);
  std::vector<LabelId> labels = MakeLabels(2, &pool);
  RandomTpqOptions popts;
  popts.labels = labels;
  popts.fragment = fragments::kTpqFull;
  RandomTpqOptions qopts = popts;
  for (int trial = 0; trial < 80; ++trial) {
    popts.size = 4 + trial % 4;
    qopts.size = 3 + trial % 5;
    Tpq p = RandomTpq(popts, &rng);
    Tpq q = RandomTpq(qopts, &rng);
    ContainmentResult incremental =
        Contains(p, q, Mode::kWeak, &pool, SweepOptions());
    const std::optional<std::vector<int32_t>> scratch =
        OracleCounterexample(p, q, Mode::kWeak, &pool);
    ASSERT_EQ(incremental.outcome, Outcome::kDecided);
    ASSERT_EQ(incremental.contained, !scratch.has_value())
        << p.ToString(pool) << " in " << q.ToString(pool);
    EXPECT_EQ(incremental.counterexample_lengths, scratch)
        << p.ToString(pool) << " in " << q.ToString(pool);
  }
}

}  // namespace
}  // namespace tpc
