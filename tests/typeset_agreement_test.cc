// Agreement of the type-set route (contain/type_set.h) with the definitional
// canonical-model sweep of reference_sweep.h.  The type set decides the
// general coNP cell by folding q's automaton over p's canonical models
// instead of enumerating them, so it must give the oracle's verdict on every
// pair, and every refutation's chain-length vector must rebuild a canonical
// tree of p that lies in L(p) \ L(q) in the member's mode — checked with the
// oracle's own embedding tables, not the engine's matcher.  Covered: 3000+
// random TPQ(/,//,*) pairs routed to the type set, weak and strong, under
// the safe and the aggressive chain-length bound; plus the linear shape of
// the fold on the coNP family p_n, whose sweep is exponential, and the
// budget charge for the antichain scans on a pair with wide layers.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <vector>

#include "base/label.h"
#include "contain/containment.h"
#include "contain/type_set.h"
#include "engine/engine.h"
#include "gen/random_instances.h"
#include "pattern/canonical.h"
#include "pattern/tpq_parser.h"
#include "reductions/hardness_families.h"
#include "reference_sweep.h"

namespace tpc {
namespace {

int64_t Load(const std::atomic<int64_t>& counter) {
  return counter.load(std::memory_order_relaxed);
}

// The core: verdict identity with the naive sweep and witness validity on
// random pairs, under both bounds and in both modes.
TEST(TypeSetAgreementTest, AgreesWithReferenceSweepOnRandomPairs) {
  LabelPool pool;
  std::mt19937 rng(8086);
  const std::vector<LabelId> labels = MakeLabels(2, &pool);
  RandomTpqOptions popts;
  popts.labels = labels;
  popts.fragment = fragments::kTpqFull;
  RandomTpqOptions qopts = popts;
  const LabelId bottom = pool.Bottom();

  int checked = 0;
  int refuted = 0;
  int strong = 0;
  int aggressive = 0;
  for (int trial = 0; checked < 3000; ++trial) {
    ASSERT_LT(trial, 60000) << "too few pairs reach the type set";
    popts.size = 3 + trial % 5;
    qopts.size = 2 + (trial / 5) % 5;
    const Tpq p = RandomTpq(popts, &rng);
    const Tpq q = RandomTpq(qopts, &rng);
    const Mode mode = trial % 3 == 0 ? Mode::kStrong : Mode::kWeak;
    ContainmentOptions options;
    options.bound = trial % 2 == 0 ? ContainmentOptions::Bound::kSafe
                                   : ContainmentOptions::Bound::kAggressive;
    EngineContext ctx;
    const ContainmentResult r = Contains(p, q, mode, &pool, &ctx, options);
    if (r.algorithm != ContainmentAlgorithm::kTypeSet) continue;
    ASSERT_EQ(r.outcome, Outcome::kDecided);

    const std::optional<std::vector<int32_t>> naive = NaiveFirstCounterexample(
        p, q, mode, &pool, EngineSweepBound(q, mode, options.bound, &pool));
    ASSERT_EQ(r.contained, !naive.has_value())
        << "trial " << trial << ": " << p.ToString(pool) << " in "
        << q.ToString(pool) << (mode == Mode::kStrong ? " strong" : " weak");
    if (!r.contained) {
      ASSERT_TRUE(r.counterexample_lengths.has_value());
      ASSERT_TRUE(r.counterexample.has_value());
      const std::vector<int32_t>& lengths = *r.counterexample_lengths;
      ASSERT_EQ(lengths.size(), DescendantEdges(p).size());
      const int32_t bound = EngineSweepBound(q, mode, options.bound, &pool);
      for (int32_t len : lengths) {
        ASSERT_GE(len, 0);
        ASSERT_LE(len, bound);
      }
      const bool in_strong = mode == Mode::kStrong;
      const Tree replay = CanonicalTree(p, lengths, bottom);
      EXPECT_TRUE(ReferenceMatches(p, replay, in_strong))
          << "witness not in L(p), trial " << trial;
      EXPECT_FALSE(ReferenceMatches(q, replay, in_strong))
          << "witness matched by q, trial " << trial;
      // The returned tree is a counterexample too.
      EXPECT_TRUE(ReferenceMatches(p, *r.counterexample, in_strong));
      EXPECT_FALSE(ReferenceMatches(q, *r.counterexample, in_strong));
      ++refuted;
    }
    strong += mode == Mode::kStrong ? 1 : 0;
    aggressive += options.bound == ContainmentOptions::Bound::kAggressive;
    ++checked;
  }
  EXPECT_GT(refuted, 300);
  EXPECT_GT(checked - refuted, 300);
  EXPECT_GT(strong, 300);
  EXPECT_GT(aggressive, 300);
}

// A refutation the all-zero probe misses, so the fold itself must find it.
// p = r[a//b][a/*], q = r/*/b: the minimal canonical tree r(a(b), a(⊥))
// has a b two levels down, while one ⊥ on the chain pushes b to depth 3.
TEST(TypeSetAgreementTest, FoldFindsCounterexamplesTheProbeMisses) {
  LabelPool pool;
  const LabelId r = pool.Intern("r");
  const LabelId a = pool.Intern("a");
  const LabelId b = pool.Intern("b");
  Tpq p(r);
  const NodeId x = p.AddChild(0, a, EdgeKind::kChild);
  p.AddChild(x, b, EdgeKind::kDescendant);
  const NodeId y = p.AddChild(0, a, EdgeKind::kChild);
  p.AddChild(y, kWildcard, EdgeKind::kChild);
  Tpq q(r);
  const NodeId z = q.AddChild(0, kWildcard, EdgeKind::kChild);
  q.AddChild(z, b, EdgeKind::kChild);

  EngineContext ctx;
  const ContainmentResult res = Contains(p, q, Mode::kWeak, &pool, &ctx);
  ASSERT_EQ(res.algorithm, ContainmentAlgorithm::kTypeSet);
  ASSERT_EQ(res.outcome, Outcome::kDecided);
  EXPECT_FALSE(res.contained);
  EXPECT_GT(Load(ctx.stats().type_set_states), 0);
  ASSERT_TRUE(res.counterexample_lengths.has_value());
  ASSERT_EQ(res.counterexample_lengths->size(), 1u);
  EXPECT_GE((*res.counterexample_lengths)[0], 1);
  ASSERT_TRUE(res.counterexample.has_value());
  EXPECT_TRUE(ReferenceMatches(p, *res.counterexample, false));
  EXPECT_FALSE(ReferenceMatches(q, *res.counterexample, false));
}

// The coNP family p_n against q_yes: the sweep visits (|q|+2)^n models,
// while every branch of p_n reaches the same few states, so the fold's work
// per pattern node stays under a constant as n grows.
TEST(TypeSetAgreementTest, StatesPerNodeStayBoundedOnTheConpFamily) {
  LabelPool pool;
  int64_t most = 0;
  for (int32_t n = 2; n <= 12; ++n) {
    const ConpFamilyInstance inst = BuildConpFamily(n, &pool);
    EngineContext ctx;
    const ContainmentResult r =
        Contains(inst.p, inst.q_yes, Mode::kWeak, &pool, &ctx);
    ASSERT_EQ(r.algorithm, ContainmentAlgorithm::kTypeSet) << "n " << n;
    ASSERT_EQ(r.outcome, Outcome::kDecided);
    EXPECT_TRUE(r.contained) << "n " << n;
    const int64_t states = Load(ctx.stats().type_set_states);
    const int64_t unions = Load(ctx.stats().type_set_unions);
    EXPECT_LE(states, 4 * inst.p.size()) << "n " << n;
    EXPECT_LE(unions, 4 * inst.p.size()) << "n " << n;
    most = std::max(most, states);
  }
  EXPECT_GT(most, 0);
}

// The budget covers the antichain scans too.  Every state and union pair
// costs one step; inserting into an open layer of L items compares the
// candidate with each of them, which costs L / 8 steps more.  Under x, each
// chain //l keeps two incomparable states (l itself, or l two ⊥s down), so
// x's union layers hold 2, 4, ..., 2^6 items, and the scans are charged on
// top of the states and unions.  On p_n against q_yes every layer holds
// fewer than 8 items, so nothing is charged for the scans.
TEST(TypeSetAgreementTest, ChargesTheAntichainScan) {
  LabelPool pool;
  const Tpq p = MustParseTpq("r[y]/x[//a][//b][//c][//d][//e][//f]", &pool);
  const Tpq q = MustParseTpq("*[*/a][*/b][*/c][*/d][*/e][*/f]", &pool);
  const int32_t bound = CanonicalBound(q, ContainmentOptions::Bound::kSafe);
  EngineContext wide;
  const TypeSetDecision d =
      TypeSetContainment(p, q, bound, pool.Bottom(), &wide);
  ASSERT_EQ(d.outcome, Outcome::kDecided);
  EXPECT_FALSE(d.contained);
  const int64_t charged_per_item = Load(wide.stats().type_set_states) +
                                   Load(wide.stats().type_set_unions);
  EXPECT_GE(Load(wide.stats().type_set_unions), 64);
  EXPECT_GT(wide.budget().steps_used(), 2 * charged_per_item);

  const ConpFamilyInstance inst = BuildConpFamily(6, &pool);
  EngineContext narrow;
  const TypeSetDecision n = TypeSetContainment(
      inst.p, inst.q_yes,
      CanonicalBound(inst.q_yes, ContainmentOptions::Bound::kSafe),
      pool.Bottom(), &narrow);
  ASSERT_EQ(n.outcome, Outcome::kDecided);
  EXPECT_TRUE(n.contained);
  EXPECT_EQ(narrow.budget().steps_used(),
            Load(narrow.stats().type_set_states) +
                Load(narrow.stats().type_set_unions));
}

}  // namespace
}  // namespace tpc
