// Agreement of the generic word-parallel DP fill (missing-bits scatter +
// branch-free leaf kernel) with the definitional oracle of
// reference_sweep.h: every `SatAt`/`SatBelow` cell and every verdict over
// 500 random instances, every cell again after each incremental refill of a
// whole canonical enumeration, and the containment verdicts of the sweep.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "base/label.h"
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

/// Asserts that every cell of `ws`'s tables equals the oracle's.
void ExpectCellsMatchOracle(const MatcherWorkspace& ws, const Tpq& q,
                            const Tree& t, const LabelPool& pool) {
  const ReferenceTables ref = ReferenceEmbedding(q, t);
  for (NodeId v = 0; v < q.size(); ++v) {
    for (NodeId x = 0; x < t.size(); ++x) {
      ASSERT_EQ(ws.SatAt(v, x), ref.sat[v][x])
          << "sat(" << v << "," << x << "): " << q.ToString(pool) << " on "
          << t.ToString(pool);
      ASSERT_EQ(ws.SatBelow(v, x), ref.below[v][x])
          << "below(" << v << "," << x << "): " << q.ToString(pool)
          << " on " << t.ToString(pool);
    }
  }
  ASSERT_EQ(ws.MatchesWeak(), ReferenceMatches(q, t, false));
  ASSERT_EQ(ws.MatchesStrong(), ReferenceMatches(q, t, true));
}

TEST(WordParallelAgreementTest, TablesMatchOracleOver500Instances) {
  LabelPool pool;
  std::mt19937 rng(4242);
  std::vector<LabelId> labels = MakeLabels(2, &pool);
  EngineStats stats;
  RandomTpqOptions qopts;
  qopts.labels = labels;
  qopts.fragment = fragments::kTpqFull;
  RandomTreeOptions topts;
  topts.labels = labels;
  MatcherWorkspace ws;
  int weak_matches = 0;
  for (int trial = 0; trial < 500; ++trial) {
    qopts.size = 2 + trial % 6;
    topts.size = 1 + trial % 12;
    // Adversarial shapes every few trials; random otherwise.
    Tree t = trial % 11 == 0   ? ChainTree(labels, topts.size)
             : trial % 13 == 0 ? StarTree(labels, topts.size)
                               : RandomTree(topts, &rng);
    Tpq q = RandomTpq(qopts, &rng);
    ws.EvalFull(q, t, &stats);
    ExpectCellsMatchOracle(ws, q, t, pool);
    if (HasFatalFailure()) return;
    if (ws.MatchesWeak()) ++weak_matches;
  }
  // The sample must exercise both verdicts and the kernel's fast paths.
  EXPECT_GT(weak_matches, 20);
  EXPECT_LT(weak_matches, 480);
  EXPECT_GT(stats.dp_words_folded.load(std::memory_order_relaxed), 0);
  EXPECT_GT(stats.dp_rows_skipped.load(std::memory_order_relaxed), 0);
}

// The sweep's generic path: one workspace walks a whole enumeration the way
// a sweep chunk does — full build first, then suffix rebuilds refilled by
// `EvalIncremental` — and every table must still match the oracle.
TEST(WordParallelAgreementTest, IncrementalRefillsMatchOracle) {
  LabelPool pool;
  std::mt19937 rng(97531);
  std::vector<LabelId> labels = MakeLabels(2, &pool);
  const LabelId bottom = pool.Fresh("_bot");
  RandomTpqOptions popts;
  popts.labels = labels;
  popts.fragment = fragments::kTpqFull;
  RandomTpqOptions qopts = popts;
  EngineStats stats;
  for (int trial = 0; trial < 40; ++trial) {
    popts.size = 4 + trial % 4;
    qopts.size = 3 + trial % 5;
    Tpq p = RandomTpq(popts, &rng);
    Tpq q = RandomTpq(qopts, &rng);
    CanonicalTreeBuilder builder(p, bottom);
    CanonicalLengthEnumerator lengths(builder.num_spines(), 2);
    MatcherWorkspace ws;
    Tree tree;
    bool fresh = true;
    do {
      const size_t first = lengths.first_changed();
      if (!fresh && first < builder.num_spines()) {
        builder.BuildSuffix(lengths.lengths(), first, &tree);
        ws.EvalIncremental(q, tree, builder.spine_start(first), &stats);
      } else {
        builder.BuildFull(lengths.lengths(), &tree);
        ws.EvalFull(q, tree, &stats);
      }
      ExpectCellsMatchOracle(ws, q, tree, pool);
      if (HasFatalFailure()) return;
      fresh = false;
    } while (lengths.Next());
  }
  EXPECT_GT(stats.dp_cells_reused.load(std::memory_order_relaxed), 0);
}

TEST(WordParallelAgreementTest, ContainmentVerdictsMatchOracle) {
  LabelPool pool;
  std::mt19937 rng(13579);
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
    ContainmentResult r = Contains(p, q, mode, &pool, SweepOptions());
    ASSERT_EQ(r.outcome, Outcome::kDecided);
    // Both walk the length-vector space in the same order, so even the
    // counterexample must be the same model.
    const std::optional<std::vector<int32_t>> reference =
        NaiveFirstCounterexample(
            p, q, mode, &pool,
            EngineSweepBound(q, mode, ContainmentOptions::Bound::kAggressive,
                             &pool));
    ASSERT_EQ(r.contained, !reference.has_value())
        << p.ToString(pool) << " in " << q.ToString(pool);
    EXPECT_EQ(r.counterexample_lengths, reference)
        << p.ToString(pool) << " in " << q.ToString(pool);
    if (reference.has_value()) ++not_contained;
  }
  EXPECT_GT(not_contained, 10);
}

TEST(WordParallelAgreementTest, KernelReportsFoldAndSkipCounters) {
  LabelPool pool;
  Tpq p = MustParseTpq("a//b[c]//d", &pool);
  Tpq q = MustParseTpq("a//b//d", &pool);
  Tree t = CanonicalTree(p, {1, 2}, pool.Fresh("_bot"));
  EngineStats stats;
  Matcher matcher(q, t, &stats);
  EXPECT_TRUE(matcher.MatchesWeak());
  EXPECT_GT(stats.dp_words_folded.load(std::memory_order_relaxed), 0);
  EXPECT_GT(stats.dp_rows_skipped.load(std::memory_order_relaxed), 0);
  EXPECT_EQ(stats.dp_cells_filled.load(std::memory_order_relaxed),
            static_cast<int64_t>(q.size()) * t.size());
}

}  // namespace
}  // namespace tpc
