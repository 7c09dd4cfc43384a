// A/B agreement: the word-parallel DP fill (missing-bits scatter +
// branch-free leaf kernel) against the scalar per-candidate fill.  The two
// kernels share the postorder row layout and must produce bit-identical
// tables — checked cell by cell over 500 random instances — and identical
// containment verdicts (including counterexample length vectors) through
// `ContainmentOptions::word_parallel`, through incremental sweeps.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "base/label.h"
#include "contain/containment.h"
#include "engine/engine.h"
#include "gen/random_instances.h"
#include "match/embedding.h"
#include "pattern/tpq_parser.h"

namespace tpc {
namespace {

ContainmentOptions SweepOptions(bool word_parallel) {
  ContainmentOptions options;
  options.force_canonical = true;
  options.bound = ContainmentOptions::Bound::kAggressive;
  options.word_parallel = word_parallel;
  return options;
}

TEST(WordParallelAgreementTest, TablesIdenticalOver500Instances) {
  LabelPool pool;
  std::mt19937 rng(4242);
  std::vector<LabelId> labels = MakeLabels(2, &pool);
  EngineStats stats;
  RandomTpqOptions qopts;
  qopts.labels = labels;
  qopts.fragment = fragments::kTpqFull;
  RandomTreeOptions topts;
  topts.labels = labels;
  int weak_matches = 0;
  for (int trial = 0; trial < 500; ++trial) {
    qopts.size = 2 + trial % 6;
    topts.size = 1 + trial % 12;
    // Adversarial shapes every few trials; random otherwise.
    Tree t = trial % 11 == 0   ? ChainTree(labels, topts.size)
             : trial % 13 == 0 ? StarTree(labels, topts.size)
                               : RandomTree(topts, &rng);
    Tpq q = RandomTpq(qopts, &rng);
    Matcher word(q, t, &stats, /*word_parallel=*/true);
    Matcher scalar(q, t, nullptr, /*word_parallel=*/false);
    ASSERT_EQ(word.MatchesWeak(), scalar.MatchesWeak())
        << q.ToString(pool) << " on " << t.ToString(pool);
    ASSERT_EQ(word.MatchesStrong(), scalar.MatchesStrong())
        << q.ToString(pool) << " on " << t.ToString(pool);
    for (NodeId v = 0; v < q.size(); ++v) {
      for (NodeId x = 0; x < t.size(); ++x) {
        ASSERT_EQ(word.SatAt(v, x), scalar.SatAt(v, x))
            << "sat(" << v << "," << x << "): " << q.ToString(pool) << " on "
            << t.ToString(pool);
        ASSERT_EQ(word.SatBelow(v, x), scalar.SatBelow(v, x))
            << "below(" << v << "," << x << "): " << q.ToString(pool)
            << " on " << t.ToString(pool);
      }
    }
    if (word.MatchesWeak()) ++weak_matches;
  }
  // The sample must exercise both verdicts and both kernels' fast paths.
  EXPECT_GT(weak_matches, 20);
  EXPECT_LT(weak_matches, 480);
  EXPECT_GT(stats.dp_words_folded.load(std::memory_order_relaxed), 0);
  EXPECT_GT(stats.dp_rows_skipped.load(std::memory_order_relaxed), 0);
}

TEST(WordParallelAgreementTest, ContainmentVerdictsIdentical) {
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
    ContainmentResult word = Contains(p, q, mode, &pool, SweepOptions(true));
    ContainmentResult scalar = Contains(p, q, mode, &pool, SweepOptions(false));
    ASSERT_EQ(word.outcome, Outcome::kDecided);
    ASSERT_EQ(scalar.outcome, Outcome::kDecided);
    ASSERT_EQ(word.contained, scalar.contained)
        << p.ToString(pool) << " in " << q.ToString(pool);
    // Both sweeps walk the length-vector space in the same order, so even
    // the counterexample must be the same model.
    ASSERT_EQ(word.counterexample_lengths.has_value(),
              scalar.counterexample_lengths.has_value());
    if (word.counterexample_lengths.has_value()) {
      EXPECT_EQ(*word.counterexample_lengths, *scalar.counterexample_lengths)
          << p.ToString(pool) << " in " << q.ToString(pool);
      ++not_contained;
    }
  }
  EXPECT_GT(not_contained, 10);
}

TEST(WordParallelAgreementTest, WordKernelReportsFoldAndSkipCounters) {
  LabelPool pool;
  Tpq p = MustParseTpq("a//b[c]//d", &pool);
  Tpq q = MustParseTpq("a//b//d", &pool);
  EngineContext word_ctx;
  ContainmentResult r =
      Contains(p, q, Mode::kWeak, &pool, &word_ctx, SweepOptions(true));
  ASSERT_EQ(r.outcome, Outcome::kDecided);
  EXPECT_GT(word_ctx.stats().dp_words_folded.load(std::memory_order_relaxed),
            0);
  EXPECT_GT(word_ctx.stats().dp_rows_skipped.load(std::memory_order_relaxed),
            0);
}

}  // namespace
}  // namespace tpc
