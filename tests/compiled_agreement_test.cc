// A/B agreement: the compiled matcher path (src/compile/ — flat programs
// over postorder columns) against the generic embedding DP.  Compiled and
// generic runs must produce identical verdicts — including counterexample
// length vectors, since both sweeps walk the length-vector space in the
// same order — across 500 random instances, both modes, 1/2/4-thread
// sweeps, and compile-time fault injection (an allocation failure
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
#include "contain/containment.h"
#include "engine/engine.h"
#include "gen/random_instances.h"
#include "match/embedding.h"
#include "pattern/tpq_parser.h"
#include "reference_sweep.h"

namespace tpc {
namespace {

ContainmentOptions SweepOptions(bool compiled) {
  ContainmentOptions options;
  options.force_canonical = true;
  options.bound = ContainmentOptions::Bound::kAggressive;
  options.compiled_matcher = compiled;
  return options;
}

// The 500-instance core: the one-shot program executor must agree with the
// generic matcher's verdict bits on random, chain and star trees, weak and
// strong alike.
TEST(CompiledAgreementTest, ProgramAgreesWithMatcherOver500Instances) {
  LabelPool pool;
  std::mt19937 rng(24601);
  std::vector<LabelId> labels = MakeLabels(2, &pool);
  EngineStats stats;
  RandomTpqOptions qopts;
  qopts.labels = labels;
  qopts.fragment = fragments::kTpqFull;
  RandomTreeOptions topts;
  topts.labels = labels;
  ProgramExec exec;
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
    MatcherProgram::ExecResult r = exec.Run(*program, t, &stats);
    Matcher generic(q, t, nullptr);
    ASSERT_EQ(r.weak, generic.MatchesWeak())
        << q.ToString(pool) << " on " << t.ToString(pool);
    ASSERT_EQ(r.strong, generic.MatchesStrong())
        << q.ToString(pool) << " on " << t.ToString(pool);
    if (r.weak) ++weak_matches;
  }
  // The sample must exercise both verdicts, every tile, and the counters.
  EXPECT_GT(weak_matches, 20);
  EXPECT_LT(weak_matches, 480);
  EXPECT_EQ(stats.programs_compiled.load(std::memory_order_relaxed), 500);
  EXPECT_EQ(stats.program_exec_hits.load(std::memory_order_relaxed), 500);
  EXPECT_GT(stats.dp_rows_skipped.load(std::memory_order_relaxed), 0);
}

TEST(CompiledAgreementTest, SweepVerdictsIdenticalBothModes) {
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
    ContainmentResult compiled =
        Contains(p, q, mode, &pool, SweepOptions(true));
    ContainmentResult generic =
        Contains(p, q, mode, &pool, SweepOptions(false));
    ASSERT_EQ(compiled.outcome, Outcome::kDecided);
    ASSERT_EQ(generic.outcome, Outcome::kDecided);
    ASSERT_EQ(compiled.contained, generic.contained)
        << p.ToString(pool) << " in " << q.ToString(pool);
    ASSERT_EQ(compiled.counterexample_lengths.has_value(),
              generic.counterexample_lengths.has_value());
    if (compiled.counterexample_lengths.has_value()) {
      EXPECT_EQ(*compiled.counterexample_lengths,
                *generic.counterexample_lengths)
          << p.ToString(pool) << " in " << q.ToString(pool);
      ++not_contained;
    }
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
    std::optional<bool> reference;
    for (int threads : {1, 2, 4}) {
      EngineConfig config;
      config.threads = threads;
      // Engage the chunked-parallel sweep even on small spaces.
      config.parallel_threshold = 2;
      config.parallel_chunk = 4;
      EngineContext ctx(config);
      for (bool compiled : {true, false}) {
        ContainmentResult r = Contains(p, q, mode, &pool, &ctx,
                                       SweepOptions(compiled));
        ASSERT_EQ(r.outcome, Outcome::kDecided);
        if (!reference.has_value()) reference = r.contained;
        ASSERT_EQ(r.contained, *reference)
            << p.ToString(pool) << " in " << q.ToString(pool) << " threads "
            << threads << " compiled " << compiled;
      }
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
  ContainmentResult reference =
      Contains(p, q, Mode::kWeak, &pool, SweepOptions(false));
  ASSERT_EQ(reference.outcome, Outcome::kDecided);
  for (int64_t fail_at : {1, 2}) {
    EngineConfig config;
    config.fault_plan.fail_alloc_at = fail_at;
    EngineContext ctx(config);
    ContainmentResult r =
        Contains(p, q, Mode::kWeak, &pool, &ctx, SweepOptions(true));
    ASSERT_EQ(r.outcome, Outcome::kDecided) << "fail_alloc_at " << fail_at;
    EXPECT_EQ(r.contained, reference.contained);
    EXPECT_FALSE(ctx.budget().Exhausted());
    EXPECT_EQ(ctx.stats().programs_compiled.load(std::memory_order_relaxed),
              0);
    EXPECT_EQ(ctx.stats().program_exec_hits.load(std::memory_order_relaxed),
              0);
  }
  // Without a fault the same sweep compiles and executes the program.
  EngineContext clean;
  ContainmentResult r =
      Contains(p, q, Mode::kWeak, &pool, &clean, SweepOptions(true));
  ASSERT_EQ(r.outcome, Outcome::kDecided);
  EXPECT_EQ(r.contained, reference.contained);
  EXPECT_EQ(clean.stats().programs_compiled.load(std::memory_order_relaxed),
            1);
  EXPECT_GT(clean.stats().program_exec_hits.load(std::memory_order_relaxed),
            0);
}

// Patterns beyond the single-word model are not compilable; the dispatcher
// must fall back to the (word-parallel) generic DP with identical verdicts
// and bit-identical tables between its two kernels.
TEST(CompiledAgreementTest, OversizePatternFallsBackWithCellParity) {
  LabelPool pool;
  std::string chain = "a";
  for (int i = 0; i < 69; ++i) chain += "/a";
  Tpq big = MustParseTpq(chain.c_str(), &pool);
  ASSERT_GT(big.size(), 64);
  EXPECT_FALSE(MatcherProgram::Compilable(big));
  EXPECT_EQ(MatcherProgram::Compile(big, nullptr), nullptr);

  std::vector<LabelId> labels = MakeLabels(1, &pool);
  Tree t = ChainTree(labels, 80);
  Matcher word(big, t, nullptr, /*word_parallel=*/true);
  Matcher scalar(big, t, nullptr, /*word_parallel=*/false);
  ASSERT_EQ(word.MatchesWeak(), scalar.MatchesWeak());
  for (NodeId v = 0; v < big.size(); ++v) {
    for (NodeId x = 0; x < t.size(); ++x) {
      ASSERT_EQ(word.SatAt(v, x), scalar.SatAt(v, x));
      ASSERT_EQ(word.SatBelow(v, x), scalar.SatBelow(v, x));
    }
  }

  Tpq small = MustParseTpq("a//a", &pool);
  EngineContext ctx;
  ContainmentResult compiled = Contains(big, small, Mode::kWeak, &pool, &ctx,
                                        SweepOptions(true));
  ContainmentResult generic = Contains(big, small, Mode::kWeak, &pool,
                                       SweepOptions(false));
  ASSERT_EQ(compiled.outcome, Outcome::kDecided);
  EXPECT_EQ(compiled.contained, generic.contained);
  // q ("a//a") is compilable, so the sweep still compiles; the oversize p
  // only matters on the tree side.  Assert the *pattern* gate directly:
  EXPECT_EQ(MatcherProgram::Compile(big, &ctx.budget()), nullptr);
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
        Contains(p, q, Mode::kWeak, &pool, SweepOptions(true));
    const std::optional<std::vector<int32_t>> scratch =
        NaiveFirstCounterexample(
            p, q, Mode::kWeak, &pool,
            EngineSweepBound(q, Mode::kWeak,
                             ContainmentOptions::Bound::kAggressive, &pool));
    ASSERT_EQ(incremental.outcome, Outcome::kDecided);
    ASSERT_EQ(incremental.contained, !scratch.has_value())
        << p.ToString(pool) << " in " << q.ToString(pool);
    EXPECT_EQ(incremental.counterexample_lengths, scratch)
        << p.ToString(pool) << " in " << q.ToString(pool);
  }
}

}  // namespace
}  // namespace tpc
