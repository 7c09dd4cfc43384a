// Verifies that the dispatcher routes each Table 1 fragment pair to the
// algorithm the paper's classification prescribes, and that the chunked
// parallel canonical sweep agrees with the sequential one on random
// instances.

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

// ------------------------------------------------- Table 1 routing table

struct RoutingCase {
  const char* name;
  const char* p;
  const char* q;
  ContainmentAlgorithm expected;
};

class DispatcherRoutingTest : public ::testing::TestWithParam<RoutingCase> {};

TEST_P(DispatcherRoutingTest, RoutesToExpectedAlgorithm) {
  const RoutingCase& c = GetParam();
  LabelPool pool;
  Tpq p = MustParseTpq(c.p, &pool);
  Tpq q = MustParseTpq(c.q, &pool);
  ContainmentResult r = Contains(p, q, Mode::kWeak, &pool);
  EXPECT_EQ(r.algorithm, c.expected)
      << "p = " << c.p << ", q = " << c.q;
  EXPECT_EQ(r.outcome, Outcome::kDecided);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, DispatcherRoutingTest,
    ::testing::Values(
        // q wildcard-free: homomorphism region of Theorem 3.1.
        RoutingCase{"WildcardFreeRight", "a//b[c]", "a//b",
                    ContainmentAlgorithm::kHomomorphism},
        RoutingCase{"WildcardFreeRightPath", "a/b/c", "a//c",
                    ContainmentAlgorithm::kHomomorphism},
        // q child-edge-free with wildcards: Theorem 3.2(3).  Normalization
        // also lands here when every child edge of q points at a wildcard
        // island-leaf (such edges relax to descendant edges).
        RoutingCase{"ChildFreeRight", "a/b//c", "a//*//c",
                    ContainmentAlgorithm::kMinimalCanonical},
        RoutingCase{"NormalizedChildFreeRight", "a/b//c", "a/*//c",
                    ContainmentAlgorithm::kMinimalCanonical},
        // p descendant-free: Theorems 3.1(2) / 3.2(4).
        RoutingCase{"DescendantFreeLeft", "a/b/c", "a/*/c",
                    ContainmentAlgorithm::kSingleCanonical},
        // p a path query with descendant edges: Theorem 3.2(1).  q keeps an
        // interior wildcard (letter below it), so normalization preserves
        // its child edges.
        RoutingCase{"PathLeft", "a//c", "a/*/c",
                    ContainmentAlgorithm::kPathInTpq},
        RoutingCase{"PathLeftLong", "a//b/c", "a/*/c",
                    ContainmentAlgorithm::kPathInTpq},
        // p branching but child-edge-free: Theorem 3.2(2).
        RoutingCase{"ChildFreeLeft", "a[//b][//c]", "a/*/b",
                    ContainmentAlgorithm::kChildFreeInTpq},
        // General case: branching + both edge kinds on the left, wildcards
        // and surviving child edges on the right — the coNP cell
        // (Theorem 3.3).
        RoutingCase{"General", "a[b][//c]", "a[*/b][//c]",
                    ContainmentAlgorithm::kTypeSet}),
    [](const ::testing::TestParamInfo<RoutingCase>& info) {
      return info.param.name;
    });

TEST(DispatcherRoutingTest, ForceCanonicalOverridesRouting) {
  LabelPool pool;
  Tpq p = MustParseTpq("a/b", &pool);
  Tpq q = MustParseTpq("a/b", &pool);
  ContainmentOptions options;
  options.force_canonical = true;
  ContainmentResult r = Contains(p, q, Mode::kWeak, &pool, options);
  EXPECT_EQ(r.algorithm, ContainmentAlgorithm::kCanonicalEnumeration);
  EXPECT_TRUE(r.contained);
}

TEST(DispatcherRoutingTest, ForceCanonicalKeepsTheSweepInTheGeneralCell) {
  LabelPool pool;
  Tpq p = MustParseTpq("a[b][//c]", &pool);
  Tpq q = MustParseTpq("a[*/b][//c]", &pool);
  ContainmentOptions options;
  options.force_canonical = true;
  for (Mode mode : {Mode::kWeak, Mode::kStrong}) {
    ContainmentResult swept = Contains(p, q, mode, &pool, options);
    ContainmentResult typed = Contains(p, q, mode, &pool);
    EXPECT_EQ(swept.algorithm, ContainmentAlgorithm::kCanonicalEnumeration);
    EXPECT_EQ(typed.algorithm, ContainmentAlgorithm::kTypeSet);
    EXPECT_EQ(swept.contained, typed.contained);
  }
}

TEST(DispatcherRoutingTest, DispatchCountersTrackRouting) {
  LabelPool pool;
  Tpq p = MustParseTpq("a//b[c]", &pool);
  Tpq q = MustParseTpq("a//b", &pool);
  EngineContext ctx;
  Contains(p, q, Mode::kWeak, &pool, &ctx);
  Contains(p, q, Mode::kWeak, &pool, &ctx);
  int idx = static_cast<int>(ContainmentAlgorithm::kHomomorphism);
  EXPECT_EQ(ctx.stats().dispatch[idx].load(), 2);
}

// --------------------------------- parallel vs sequential canonical sweep

TEST(ParallelCanonicalTest, AgreesWithSequentialOnRandomInstances) {
  LabelPool pool;
  std::mt19937 rng(20150531);
  RandomTpqOptions popts;
  popts.labels = MakeLabels(3, &pool);
  popts.fragment = fragments::kTpqFull;
  popts.size = 7;
  RandomTpqOptions qopts = popts;
  qopts.size = 5;

  EngineConfig seq_config;  // one thread: always the sequential sweep
  EngineContext seq_ctx(seq_config);
  EngineConfig par_config;
  par_config.threads = 4;
  par_config.parallel_threshold = 1;  // engage the parallel path always
  par_config.parallel_chunk = 4;      // many chunks even on small spaces
  EngineContext par_ctx(par_config);

  int disagreements = 0;
  for (int i = 0; i < 200; ++i) {
    Tpq p = RandomTpq(popts, &rng);
    Tpq q = RandomTpq(qopts, &rng);
    ContainmentResult seq =
        CanonicalContainment(p, q, Mode::kWeak, &pool, &seq_ctx);
    ContainmentResult par =
        CanonicalContainment(p, q, Mode::kWeak, &pool, &par_ctx);
    ASSERT_EQ(seq.outcome, Outcome::kDecided);
    ASSERT_EQ(par.outcome, Outcome::kDecided);
    if (seq.contained != par.contained) ++disagreements;
    // The parallel sweep may find a *different* counterexample than the
    // sequential one (chunks race to the first witness), but any witness it
    // reports must be genuine: in L_w(p) and not in L_w(q).
    if (par.counterexample.has_value()) {
      EXPECT_TRUE(MatchesWeak(p, *par.counterexample));
      EXPECT_FALSE(MatchesWeak(q, *par.counterexample));
    }
    if (seq.counterexample.has_value()) {
      EXPECT_TRUE(MatchesWeak(p, *seq.counterexample));
      EXPECT_FALSE(MatchesWeak(q, *seq.counterexample));
    }
  }
  EXPECT_EQ(disagreements, 0);
}

}  // namespace
}  // namespace tpc
