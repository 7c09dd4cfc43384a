#include "schema/nta_satisfiability.h"

#include <gtest/gtest.h>

#include <random>

#include "automata/nta.h"
#include "base/label.h"
#include "dtd/dtd.h"
#include "gen/random_instances.h"
#include "match/embedding.h"
#include "pattern/tpq_parser.h"

namespace tpc {
namespace {

class NtaSatisfiabilityTest : public ::testing::Test {
 protected:
  LabelPool pool_;
};

TEST_F(NtaSatisfiabilityTest, AgreesWithDtdEngineOnPlainDtds) {
  // SatisfiableWithNta over a DTD automaton, checked against oracles
  // outside the engine: for a path p the polynomial emptiness test of the
  // product with p's automaton (Theorem 4.1(1)) decides the answer, and
  // every `yes` witness must be accepted by the NTA and match p.
  std::mt19937 rng(2026);
  std::vector<LabelId> labels = MakeLabels(3, &pool_);
  int checked = 0;
  int path_checked = 0;
  for (int trial = 0; trial < 30; ++trial) {
    RandomDtdOptions dopts;
    dopts.labels = labels;
    Dtd d = RandomDtd(dopts, &rng);
    if (d.IsEmptyLanguage()) continue;
    Nta nta = Nta::FromDtd(d);
    RandomTpqOptions opts;
    opts.labels = labels;
    opts.fragment = fragments::kTpqFull;
    opts.size = 2 + trial % 4;
    Tpq p = RandomTpq(opts, &rng);
    RandomTpqOptions path_opts = opts;
    path_opts.fragment = fragments::kPqFull;
    Tpq path = RandomTpq(path_opts, &rng);
    for (const Tpq* pattern : {&p, &path}) {
      for (Mode mode : {Mode::kWeak, Mode::kStrong}) {
        SchemaDecision via_nta =
            SatisfiableWithNta(*pattern, mode, nta, &pool_);
        ASSERT_TRUE(via_nta.decided);
        if (IsPathQuery(*pattern)) {
          const bool empty =
              Nta::Intersect(nta, Nta::FromPathQuery(
                                      *pattern, mode == Mode::kStrong))
                  .IsEmpty();
          ASSERT_EQ(via_nta.yes, !empty)
              << pattern->ToString(pool_) << " wrt\n" << d.ToString(pool_);
          ++path_checked;
        }
        if (via_nta.yes) {
          ASSERT_TRUE(via_nta.witness.has_value());
          EXPECT_TRUE(nta.Accepts(*via_nta.witness));
          EXPECT_TRUE(d.Satisfies(*via_nta.witness));
          EXPECT_TRUE(mode == Mode::kStrong
                          ? MatchesStrong(*pattern, *via_nta.witness)
                          : MatchesWeak(*pattern, *via_nta.witness));
        }
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 40);
  EXPECT_GT(path_checked, 20);
}

TEST_F(NtaSatisfiabilityTest, ConpRouteAgreesWithEngine) {
  // Theorem 6.4: containment of branching p in a path q w.r.t. a DTD via
  // the ¬q product, vs. the generic engine.
  std::mt19937 rng(2027);
  std::vector<LabelId> labels = MakeLabels(3, &pool_);
  int disagreements_possible = 0;
  for (int trial = 0; trial < 25; ++trial) {
    RandomDtdOptions dopts;
    dopts.labels = labels;
    Dtd d = RandomDtd(dopts, &rng);
    if (d.IsEmptyLanguage()) continue;
    RandomTpqOptions popts;
    popts.labels = labels;
    popts.fragment = fragments::kTpqChildDesc;
    popts.size = 2 + trial % 4;
    Tpq p = RandomTpq(popts, &rng);
    RandomTpqOptions qopts = popts;
    qopts.fragment = fragments::kPqFull;
    qopts.size = 1 + trial % 3;
    Tpq q = RandomTpq(qopts, &rng);
    for (Mode mode : {Mode::kWeak, Mode::kStrong}) {
      SchemaDecision via_route = ContainedViaConpRoute(p, q, mode, d, &pool_);
      SchemaDecision via_engine = ContainedWithDtd(p, q, mode, d);
      ASSERT_TRUE(via_route.decided);
      ASSERT_EQ(via_route.yes, via_engine.yes)
          << p.ToString(pool_) << " in " << q.ToString(pool_) << " wrt\n"
          << d.ToString(pool_);
      if (!via_route.yes) {
        ASSERT_TRUE(via_route.witness.has_value());
        const Tree& t = *via_route.witness;
        EXPECT_TRUE(d.Satisfies(t));
        EXPECT_TRUE(mode == Mode::kStrong ? MatchesStrong(p, t)
                                          : MatchesWeak(p, t));
        EXPECT_FALSE(mode == Mode::kStrong ? MatchesStrong(q, t)
                                           : MatchesWeak(q, t));
      }
      ++disagreements_possible;
    }
  }
  EXPECT_GT(disagreements_possible, 15);
}

TEST_F(NtaSatisfiabilityTest, WildcardTransitionsUseFreshLabels) {
  // An NTA built from a path query accepts over an open alphabet; the
  // satisfiability search must be able to pick labels outside p.
  Tpq path = MustParseTpq("a//b", &pool_);
  Nta nta = Nta::FromPathQuery(path, /*strong=*/true);
  Tpq p = MustParseTpq("a/*", &pool_);  // any child works
  SchemaDecision r = SatisfiableWithNta(p, Mode::kWeak, nta, &pool_);
  EXPECT_TRUE(r.yes);
  ASSERT_TRUE(r.witness.has_value());
  EXPECT_TRUE(MatchesStrong(path, *r.witness));
  EXPECT_TRUE(MatchesWeak(p, *r.witness));
}

TEST_F(NtaSatisfiabilityTest, RepeatedDecisionsDoNotGrowThePool) {
  // The wildcard filler is the pool's reserved ⊥, minted at most once, and
  // an NTA without wildcard transitions never touches the pool: a
  // long-lived pool does not grow per decision.
  Dtd d = MustParseDtd("root: a; a -> b c?; b -> eps; c -> eps;", &pool_);
  Tpq p = MustParseTpq("a//c", &pool_);
  Tpq q = MustParseTpq("a/b", &pool_);
  Tpq path = MustParseTpq("a//b", &pool_);
  Nta open_nta = Nta::FromPathQuery(path, /*strong=*/true);
  Tpq any_child = MustParseTpq("a/*", &pool_);
  auto decide_both = [&] {
    EXPECT_TRUE(ContainedViaConpRoute(p, q, Mode::kWeak, d, &pool_).yes);
    EXPECT_TRUE(
        SatisfiableWithNta(any_child, Mode::kWeak, open_nta, &pool_).yes);
  };
  decide_both();
  const size_t size_after_first = pool_.size();
  for (int call = 0; call < 3; ++call) {
    decide_both();
    EXPECT_EQ(pool_.size(), size_after_first) << "call " << call;
  }
}

}  // namespace
}  // namespace tpc
