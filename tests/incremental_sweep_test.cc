// The incremental canonical sweep (spine-suffix rebuilds + DP column reuse)
// must be observationally equivalent to a from-scratch sweep — the naive
// reference of reference_sweep.h: same verdicts, same counterexample length
// vectors in enumeration order — while filling at most half of the DP
// cells a from-scratch sweep fills, the rest visible as
// `dp_cells_reused` / `trees_rebuilt_from_spine`.

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <random>
#include <vector>

#include "base/label.h"
#include "contain/containment.h"
#include "engine/engine.h"
#include "gen/random_instances.h"
#include "match/embedding.h"
#include "pattern/canonical.h"
#include "pattern/normalize.h"
#include "pattern/tpq_parser.h"
#include "reductions/hardness_families.h"
#include "reference_sweep.h"

namespace tpc {
namespace {

constexpr ContainmentOptions::Bound kBound =
    ContainmentOptions::Bound::kAggressive;

ContainmentOptions SweepOptions() {
  ContainmentOptions options;
  options.force_canonical = true;
  options.bound = kBound;
  return options;
}

/// The sequential sweep and the reference walk the length-vector space in
/// the same order, so they must agree bit-for-bit: verdict, counterexample
/// presence, and the exact counterexample length vector.
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
    ContainmentResult incremental = Contains(p, q, mode, &pool, SweepOptions());
    const std::optional<std::vector<int32_t>> scratch =
        NaiveFirstCounterexample(p, q, mode, &pool,
                                 EngineSweepBound(q, mode, kBound, &pool));
    ASSERT_EQ(incremental.outcome, Outcome::kDecided);
    ASSERT_EQ(incremental.contained, !scratch.has_value())
        << p.ToString(pool) << " in " << q.ToString(pool);
    ASSERT_EQ(incremental.counterexample.has_value(), scratch.has_value());
    EXPECT_EQ(incremental.counterexample_lengths, scratch)
        << p.ToString(pool) << " in " << q.ToString(pool);
    if (scratch.has_value()) ++not_contained;
  }
  // The sample must actually exercise the counterexample path.
  EXPECT_GT(not_contained, 20);
}

/// The parallel sweep may report any counterexample (first chunk to find
/// one wins), so agreement is on the verdict; the reported length vector
/// must still denote a genuine counterexample canonical model.  Once every
/// member has retired, the sweep claims no further chunk.
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
        Contains(p, q, Mode::kWeak, &pool, &parallel_ctx, SweepOptions());
    const bool scratch_contained =
        !NaiveFirstCounterexample(
             p, q, Mode::kWeak, &pool,
             EngineSweepBound(q, Mode::kWeak, kBound, &pool))
             .has_value();
    ASSERT_EQ(incremental.outcome, Outcome::kDecided);
    ASSERT_EQ(incremental.contained, scratch_contained)
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

  // The refuted family of DESIGN.md "Where it loses" at n = 7, under the
  // safe bound: q matches only the all-0 and all-1 length vectors, so the
  // second tree of the first chunk refutes.  Once it does, no further chunk
  // may be claimed: the trees swept stay within one chunk per thread (plus
  // the tree each thread may start as the last member retires), out of a
  // space of (B+1)^7 = 17^7.
  const Tpq p = MustParseTpq("r[y]/x[//a][//b][//c][//d][//e][//f][//g]",
                             &pool);
  const Tpq q = MustParseTpq("*[*/a][*/b][*/c][*/d][*/e][*/f][*/g]", &pool);
  ContainmentOptions safe = SweepOptions();
  safe.bound = ContainmentOptions::Bound::kSafe;
  EngineConfig one_config = config;
  one_config.threads = 1;
  EngineContext one_ctx(one_config);
  const ContainmentResult one =
      Contains(p, q, Mode::kWeak, &pool, &one_ctx, safe);
  EngineContext four_ctx(config);
  const ContainmentResult four =
      Contains(p, q, Mode::kWeak, &pool, &four_ctx, safe);
  ASSERT_EQ(one.outcome, Outcome::kDecided);
  ASSERT_EQ(four.outcome, Outcome::kDecided);
  EXPECT_FALSE(one.contained);
  EXPECT_EQ(four.contained, one.contained);
  // Which chunk wins is schedule-dependent, so the witnesses agree in
  // kind: each is a length vector whose canonical tree q does not match.
  for (const ContainmentResult* r : {&one, &four}) {
    ASSERT_TRUE(r->counterexample_lengths.has_value());
    ASSERT_EQ(r->counterexample_lengths->size(), DescendantEdges(p).size());
    const Tree model =
        CanonicalTree(p, *r->counterexample_lengths, pool.Fresh("_bot"));
    EXPECT_FALSE(MatchesWeak(Normalize(q), model));
  }
  EXPECT_LE(four_ctx.stats().canonical_trees_enumerated.load(
                std::memory_order_relaxed),
            config.threads * config.parallel_chunk + config.threads);
}

/// On the coNP family every model's DP cells are either filled or carried
/// over — together exactly the Σ|q|·|t| a from-scratch sweep fills — and
/// the suffix memoization must carry over at least half of them (a 2x cut
/// in `dp_cells_filled`), reporting the reuse through the counters.
TEST(IncrementalSweepTest, ReusesAtLeastHalfTheDpCells) {
  LabelPool pool;
  ConpFamilyInstance inst = BuildConpFamily(4, &pool);
  EngineContext ctx;
  ContainmentResult incremental =
      Contains(inst.p, inst.q_yes, Mode::kWeak, &pool, &ctx, SweepOptions());
  ASSERT_TRUE(incremental.contained);
  const int32_t max_len =
      EngineSweepBound(inst.q_yes, Mode::kWeak, kBound, &pool);
  ASSERT_FALSE(NaiveFirstCounterexample(inst.p, inst.q_yes, Mode::kWeak, &pool,
                                        max_len)
                   .has_value());
  // The from-scratch DP work: |q|·|t| for every canonical model.
  int64_t scratch_cells = 0;
  int64_t models = 0;
  const LabelId bottom = pool.Bottom();
  CanonicalLengthEnumerator lengths(DescendantEdges(inst.p).size(), max_len);
  do {
    scratch_cells += static_cast<int64_t>(inst.q_yes.size()) *
                     CanonicalTree(inst.p, lengths.lengths(), bottom).size();
    ++models;
  } while (lengths.Next());

  const EngineStats& stats = ctx.stats();
  const int64_t filled = stats.dp_cells_filled.load(std::memory_order_relaxed);
  const int64_t reused = stats.dp_cells_reused.load(std::memory_order_relaxed);
  EXPECT_EQ(filled + reused, scratch_cells);
  EXPECT_LE(2 * filled, scratch_cells)
      << "incremental sweep saved too little DP work";
  EXPECT_GT(reused, 0);
  EXPECT_GT(stats.trees_rebuilt_from_spine.load(std::memory_order_relaxed), 0);
  // The sweep walked the whole model space.
  EXPECT_EQ(stats.canonical_trees_enumerated.load(std::memory_order_relaxed),
            models);
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
