// The incremental canonical sweep (spine-suffix rebuilds + DP column reuse)
// must be observationally equivalent to the from-scratch sweep: same
// verdicts, same counterexample length vectors in enumeration order, and —
// where it differs by design — strictly less DP work, visible through the
// `dp_cells_reused` / `trees_rebuilt_from_spine` counters.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "base/label.h"
#include "contain/containment.h"
#include "engine/engine.h"
#include "gen/random_instances.h"
#include "match/embedding.h"
#include "pattern/canonical.h"
#include "pattern/normalize.h"
#include "reductions/hardness_families.h"

namespace tpc {
namespace {

ContainmentOptions SweepOptions(bool incremental) {
  ContainmentOptions options;
  options.force_canonical = true;
  options.bound = ContainmentOptions::Bound::kAggressive;
  options.incremental = incremental;
  return options;
}

/// Incremental and from-scratch sequential sweeps walk the length-vector
/// space in the same order, so they must agree bit-for-bit: verdict,
/// counterexample presence, and the exact counterexample length vector.
TEST(IncrementalSweepTest, AgreesWithScratchSequentially) {
  LabelPool pool;
  std::mt19937 rng(97531);
  std::vector<LabelId> labels = MakeLabels(3, &pool);
  int not_contained = 0;
  for (int trial = 0; trial < 500; ++trial) {
    RandomTpqOptions popts;
    popts.labels = labels;
    popts.fragment = fragments::kTpqFull;
    popts.size = 3 + trial % 5;
    RandomTpqOptions qopts = popts;
    qopts.size = 3 + (trial / 5) % 5;
    Tpq p = RandomTpq(popts, &rng);
    Tpq q = RandomTpq(qopts, &rng);
    Mode mode = trial % 4 == 0 ? Mode::kStrong : Mode::kWeak;
    ContainmentResult incremental =
        Contains(p, q, mode, &pool, SweepOptions(true));
    ContainmentResult scratch =
        Contains(p, q, mode, &pool, SweepOptions(false));
    ASSERT_EQ(incremental.outcome, Outcome::kDecided);
    ASSERT_EQ(scratch.outcome, Outcome::kDecided);
    ASSERT_EQ(incremental.contained, scratch.contained)
        << p.ToString(pool) << " in " << q.ToString(pool);
    ASSERT_EQ(incremental.counterexample.has_value(),
              scratch.counterexample.has_value());
    ASSERT_EQ(incremental.counterexample_lengths.has_value(),
              scratch.counterexample_lengths.has_value());
    if (incremental.counterexample_lengths.has_value()) {
      EXPECT_EQ(*incremental.counterexample_lengths,
                *scratch.counterexample_lengths)
          << p.ToString(pool) << " in " << q.ToString(pool);
      ++not_contained;
    }
  }
  // The sample must actually exercise the counterexample path.
  EXPECT_GT(not_contained, 20);
}

/// The parallel sweep may report any counterexample (first chunk to find
/// one wins), so agreement is on the verdict; the reported length vector
/// must still denote a genuine counterexample canonical model.
TEST(IncrementalSweepTest, AgreesWithScratchInParallel) {
  LabelPool pool;
  std::mt19937 rng(86420);
  std::vector<LabelId> labels = MakeLabels(3, &pool);
  EngineConfig config;
  config.threads = 4;
  config.parallel_threshold = 1;
  config.parallel_chunk = 4;
  for (int trial = 0; trial < 150; ++trial) {
    RandomTpqOptions popts;
    popts.labels = labels;
    popts.fragment = fragments::kTpqFull;
    popts.size = 3 + trial % 5;
    RandomTpqOptions qopts = popts;
    qopts.size = 3 + (trial / 5) % 5;
    Tpq p = RandomTpq(popts, &rng);
    Tpq q = RandomTpq(qopts, &rng);
    EngineContext parallel_ctx(config);
    ContainmentResult incremental =
        Contains(p, q, Mode::kWeak, &pool, &parallel_ctx, SweepOptions(true));
    ContainmentResult scratch =
        Contains(p, q, Mode::kWeak, &pool, SweepOptions(false));
    ASSERT_EQ(incremental.outcome, Outcome::kDecided);
    ASSERT_EQ(incremental.contained, scratch.contained)
        << p.ToString(pool) << " in " << q.ToString(pool);
    if (!incremental.contained) {
      ASSERT_TRUE(incremental.counterexample_lengths.has_value());
      const std::vector<int32_t>& lengths =
          *incremental.counterexample_lengths;
      ASSERT_EQ(lengths.size(), DescendantEdges(p).size());
      Tree model = CanonicalTree(p, lengths, pool.Fresh("_bot"));
      EXPECT_FALSE(MatchesWeak(Normalize(q), model))
          << p.ToString(pool) << " in " << q.ToString(pool);
    }
  }
}

/// On the coNP family the suffix memoization must cut `dp_cells_filled` by
/// at least 2x against from-scratch sweeps (ISSUE acceptance criterion),
/// with the reuse reported through the new counters.
TEST(IncrementalSweepTest, ReusesAtLeastHalfTheDpCells) {
  LabelPool pool;
  ConpFamilyInstance inst = BuildConpFamily(4, &pool);
  EngineContext incremental_ctx;
  ContainmentResult incremental = Contains(inst.p, inst.q_yes, Mode::kWeak,
                                           &pool, &incremental_ctx,
                                           SweepOptions(true));
  EngineContext scratch_ctx;
  ContainmentResult scratch = Contains(inst.p, inst.q_yes, Mode::kWeak, &pool,
                                       &scratch_ctx, SweepOptions(false));
  ASSERT_TRUE(incremental.contained);
  ASSERT_TRUE(scratch.contained);
  int64_t filled_incremental =
      incremental_ctx.stats().dp_cells_filled.load(std::memory_order_relaxed);
  int64_t filled_scratch =
      scratch_ctx.stats().dp_cells_filled.load(std::memory_order_relaxed);
  int64_t reused =
      incremental_ctx.stats().dp_cells_reused.load(std::memory_order_relaxed);
  int64_t rebuilt = incremental_ctx.stats().trees_rebuilt_from_spine.load(
      std::memory_order_relaxed);
  EXPECT_GE(filled_scratch, 2 * filled_incremental)
      << "incremental sweep saved too little DP work";
  EXPECT_GT(reused, 0);
  EXPECT_GT(rebuilt, 0);
  // From-scratch sweeps reuse nothing and never rebuild from a spine.
  EXPECT_EQ(scratch_ctx.stats().dp_cells_reused.load(
                std::memory_order_relaxed),
            0);
  EXPECT_EQ(scratch_ctx.stats().trees_rebuilt_from_spine.load(
                std::memory_order_relaxed),
            0);
  // Both sweeps walked the identical model space.
  EXPECT_EQ(incremental_ctx.stats().canonical_trees_enumerated.load(
                std::memory_order_relaxed),
            scratch_ctx.stats().canonical_trees_enumerated.load(
                std::memory_order_relaxed));
}

/// Asserts two views carry identical columns.
void ExpectSameView(const TreeView& got, const TreeView& want) {
  ASSERT_EQ(got.size(), want.size());
  for (int32_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.labels()[i], want.labels()[i]) << "node " << i;
    ASSERT_EQ(got.parent()[i], want.parent()[i]) << "node " << i;
    ASSERT_EQ(got.post_of()[i], want.post_of()[i]) << "node " << i;
    ASSERT_EQ(got.node_at_post()[i], want.node_at_post()[i]) << "pos " << i;
    ASSERT_EQ(got.size_at_post()[i], want.size_at_post()[i]) << "pos " << i;
    ASSERT_EQ(got.label_at_post()[i], want.label_at_post()[i])
        << "pos " << i;
  }
}

/// Walks the whole length-vector space the way one sweep chunk does — one
/// scratch tree, `BuildSuffix` from the first changed spine, a `View()` per
/// tree, so every view after the first is a resumed index — and checks each
/// against the view of the same canonical tree built from scratch.
void CheckResumedViewsOverEnumeration(const Tpq& p, int32_t max_len,
                                      LabelId bottom) {
  const size_t num_edges = DescendantEdges(p).size();
  CanonicalLengthEnumerator lengths(num_edges, max_len);
  CanonicalTreeBuilder builder(p, bottom);
  Tree scratch;
  bool first = true;
  do {
    if (first) {
      builder.BuildFull(lengths.lengths(), &scratch);
      first = false;
    } else {
      builder.BuildSuffix(lengths.lengths(), lengths.first_changed(),
                          &scratch);
    }
    const Tree reference = CanonicalTree(p, lengths.lengths(), bottom);
    ExpectSameView(scratch.View(), reference.View());
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "lengths "
                    << ::testing::PrintToString(lengths.lengths());
      return;
    }
  } while (lengths.Next());
}

TEST(IncrementalSweepTest, ResumedViewsMatchScratchOnConpFamily) {
  LabelPool pool;
  ConpFamilyInstance inst = BuildConpFamily(5, &pool);
  // 7^5 = 16807 canonical trees, every spine boundary crossed.
  CheckResumedViewsOverEnumeration(inst.p, 6, pool.Bottom());
}

TEST(IncrementalSweepTest, ResumedViewsMatchScratchOnRandomPatterns) {
  LabelPool pool;
  std::mt19937 rng(1357);
  std::vector<LabelId> labels = MakeLabels(3, &pool);
  const LabelId bottom = pool.Bottom();
  int swept = 0;
  for (int trial = 0; trial < 300; ++trial) {
    RandomTpqOptions popts;
    popts.labels = labels;
    popts.fragment = fragments::kTpqFull;
    popts.size = 3 + trial % 8;
    Tpq p = RandomTpq(popts, &rng);
    if (DescendantEdges(p).empty()) continue;
    ++swept;
    CheckResumedViewsOverEnumeration(p, 1 + trial % 3, bottom);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      FAIL() << "pattern " << p.ToString(pool);
    }
  }
  EXPECT_GT(swept, 150);
}

}  // namespace
}  // namespace tpc
