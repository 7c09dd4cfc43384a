#include "contain/containment.h"

#include <gtest/gtest.h>

#include <random>

#include "base/label.h"
#include "contain/homomorphism.h"
#include "gen/random_instances.h"
#include "match/embedding.h"
#include "pattern/tpq_parser.h"
#include "tree/tree_parser.h"

namespace tpc {
namespace {

class ContainmentTest : public ::testing::Test {
 protected:
  bool Weak(const char* p, const char* q) {
    return Contains(MustParseTpq(p, &pool_), MustParseTpq(q, &pool_),
                    Mode::kWeak, &pool_)
        .contained;
  }
  bool Strong(const char* p, const char* q) {
    return Contains(MustParseTpq(p, &pool_), MustParseTpq(q, &pool_),
                    Mode::kStrong, &pool_)
        .contained;
  }
  LabelPool pool_;
};

TEST_F(ContainmentTest, Reflexive) {
  for (const char* s : {"a", "a/b", "a//b", "a[b]/c", "a/*//b", "a[*//b]/c"}) {
    EXPECT_TRUE(Weak(s, s)) << s;
    EXPECT_TRUE(Strong(s, s)) << s;
  }
}

TEST_F(ContainmentTest, ChildImpliesDescendant) {
  EXPECT_TRUE(Weak("a/b", "a//b"));
  EXPECT_TRUE(Strong("a/b", "a//b"));
  EXPECT_FALSE(Weak("a//b", "a/b"));
  EXPECT_FALSE(Strong("a//b", "a/b"));
}

TEST_F(ContainmentTest, LetterImpliesWildcard) {
  EXPECT_TRUE(Weak("a/b", "a/*"));
  EXPECT_TRUE(Weak("a//b", "a/*"));  // a has *some* child on the way to b
  EXPECT_FALSE(Weak("a/*", "a/b"));
}

TEST_F(ContainmentTest, BranchDropping) {
  EXPECT_TRUE(Weak("a[b]/c", "a/c"));
  EXPECT_TRUE(Weak("a[b]/c", "a/b"));
  EXPECT_FALSE(Weak("a/c", "a[b]/c"));
}

TEST_F(ContainmentTest, StrongRootMismatch) {
  EXPECT_FALSE(Strong("a/b", "b//b"));
  EXPECT_FALSE(Strong("*/b", "a/b"));  // p's root can be any letter
  EXPECT_TRUE(Strong("a/b", "*//b"));
}

TEST_F(ContainmentTest, WeakIgnoresRootAnchoring) {
  // Weakly, b/c occurs in anything matching a/b/c.
  EXPECT_TRUE(Weak("a/b/c", "b/c"));
  EXPECT_FALSE(Strong("a/b/c", "b/c"));
}

TEST_F(ContainmentTest, EquivalentWildcardGapPatterns) {
  // Classic pair: a/*//b and a//*/b both say "b at distance >= 2 below a",
  // yet no homomorphism exists between them in either direction.
  EXPECT_TRUE(Weak("a/*//b", "a//*/b"));
  EXPECT_TRUE(Weak("a//*/b", "a/*//b"));
  EXPECT_TRUE(Weak("a/*//b", "a//b"));
  EXPECT_FALSE(Weak("a//b", "a/*//b"));
  Tpq p = MustParseTpq("a/*//b", &pool_);
  Tpq q = MustParseTpq("a//*/b", &pool_);
  EXPECT_FALSE(HomomorphismExists(q, p, /*root_to_root=*/false));
  EXPECT_FALSE(HomomorphismExists(p, q, /*root_to_root=*/false));
}

TEST_F(ContainmentTest, HomomorphismIsSound) {
  std::mt19937 rng(2024);
  std::vector<LabelId> labels = MakeLabels(2, &pool_);
  for (int trial = 0; trial < 80; ++trial) {
    RandomTpqOptions opts;
    opts.labels = labels;
    opts.fragment = fragments::kTpqFull;
    opts.size = 2 + trial % 4;
    Tpq p = RandomTpq(opts, &rng);
    Tpq q = RandomTpq(opts, &rng);
    if (HomomorphismExists(q, p, false)) {
      EXPECT_TRUE(Weak(p.ToString(pool_).c_str(), q.ToString(pool_).c_str()))
          << p.ToString(pool_) << " vs " << q.ToString(pool_);
    }
  }
}

TEST_F(ContainmentTest, DispatcherAgreesWithCanonicalEnumeration) {
  std::mt19937 rng(555);
  std::vector<LabelId> labels = MakeLabels(2, &pool_);
  ContainmentOptions forced;
  forced.force_canonical = true;
  const Fragment frags[] = {fragments::kPqFull, fragments::kTpqDescStar,
                            fragments::kTpqChildStar, fragments::kTpqFull,
                            fragments::kTpqChildDesc};
  int checked = 0;
  for (int trial = 0; trial < 150; ++trial) {
    RandomTpqOptions popts;
    popts.labels = labels;
    popts.fragment = frags[trial % 5];
    popts.size = 2 + trial % 4;
    RandomTpqOptions qopts = popts;
    qopts.fragment = frags[(trial + 2) % 5];
    qopts.size = 2 + (trial / 5) % 4;
    Tpq p = RandomTpq(popts, &rng);
    Tpq q = RandomTpq(qopts, &rng);
    for (Mode mode : {Mode::kWeak, Mode::kStrong}) {
      ContainmentResult fast = Contains(p, q, mode, &pool_);
      ContainmentResult slow = Contains(p, q, mode, &pool_, forced);
      EXPECT_EQ(fast.contained, slow.contained)
          << p.ToString(pool_) << " in " << q.ToString(pool_) << " mode "
          << (mode == Mode::kWeak ? "weak" : "strong") << " via algorithm "
          << static_cast<int>(fast.algorithm);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 300);
}

TEST_F(ContainmentTest, AggressiveBoundAgreesWithSafeBound) {
  std::mt19937 rng(777);
  std::vector<LabelId> labels = MakeLabels(2, &pool_);
  ContainmentOptions safe;
  safe.force_canonical = true;
  ContainmentOptions aggressive;
  aggressive.force_canonical = true;
  aggressive.bound = ContainmentOptions::Bound::kAggressive;
  for (int trial = 0; trial < 120; ++trial) {
    RandomTpqOptions opts;
    opts.labels = labels;
    opts.fragment = fragments::kTpqFull;
    opts.size = 2 + trial % 4;
    Tpq p = RandomTpq(opts, &rng);
    Tpq q = RandomTpq(opts, &rng);
    EXPECT_EQ(Contains(p, q, Mode::kWeak, &pool_, safe).contained,
              Contains(p, q, Mode::kWeak, &pool_, aggressive).contained)
        << p.ToString(pool_) << " in " << q.ToString(pool_);
  }
}

TEST_F(ContainmentTest, CounterexamplesAreValid) {
  std::mt19937 rng(31337);
  std::vector<LabelId> labels = MakeLabels(2, &pool_);
  int found = 0;
  for (int trial = 0; trial < 100; ++trial) {
    RandomTpqOptions opts;
    opts.labels = labels;
    opts.fragment = fragments::kTpqFull;
    opts.size = 2 + trial % 5;
    Tpq p = RandomTpq(opts, &rng);
    Tpq q = RandomTpq(opts, &rng);
    for (Mode mode : {Mode::kWeak, Mode::kStrong}) {
      ContainmentResult r = Contains(p, q, mode, &pool_);
      if (!r.contained && r.counterexample.has_value()) {
        ++found;
        const Tree& t = *r.counterexample;
        bool in_p = mode == Mode::kWeak ? MatchesWeak(p, t)
                                        : MatchesStrong(p, t);
        bool in_q = mode == Mode::kWeak ? MatchesWeak(q, t)
                                        : MatchesStrong(q, t);
        EXPECT_TRUE(in_p) << p.ToString(pool_) << " counterexample "
                          << t.ToString(pool_);
        EXPECT_FALSE(in_q) << q.ToString(pool_) << " counterexample "
                           << t.ToString(pool_);
      }
    }
  }
  EXPECT_GT(found, 20);  // the generator produces plenty of non-containments
}

TEST_F(ContainmentTest, DispatcherPicksExpectedAlgorithm) {
  auto algo = [&](const char* p, const char* q) {
    return Contains(MustParseTpq(p, &pool_), MustParseTpq(q, &pool_),
                    Mode::kWeak, &pool_)
        .algorithm;
  };
  EXPECT_EQ(algo("a[b]//c", "a//c"),
            ContainmentAlgorithm::kHomomorphism);  // q wildcard-free
  EXPECT_EQ(algo("a[b/c]//d", "a//*"),
            ContainmentAlgorithm::kMinimalCanonical);  // q child-edge-free
  // Note: wildcard island-leaves normalize onto descendant edges, so the
  // right-hand sides below use interior wildcards to keep their child edges.
  EXPECT_EQ(algo("a[b]/c", "a/*/b"),
            ContainmentAlgorithm::kSingleCanonical);  // p descendant-free
  EXPECT_EQ(algo("a/b//c", "a/*/c"),
            ContainmentAlgorithm::kPathInTpq);  // p path
  EXPECT_EQ(algo("a[//b]//*", "a/*/b"),
            ContainmentAlgorithm::kChildFreeInTpq);  // p child-free
  EXPECT_EQ(algo("a[b/c]//d", "a[*/b]//d"),
            ContainmentAlgorithm::kTypeSet);  // the coNP cell
}

TEST_F(ContainmentTest, PathInTpqExamples) {
  // Branching right-hand sides against path left-hand sides.
  EXPECT_TRUE(Weak("a/b/c", "a[b/c]"));
  EXPECT_TRUE(Weak("a/b[c]", "a/b"));  // p not a path; sanity anyway
  EXPECT_TRUE(Weak("a/b//c/d", "a//*[//d]"));
  EXPECT_FALSE(Weak("a/b//c", "a[b][c]"));
  EXPECT_TRUE(Weak("a/b//b/c", "*//b"));
  // Any a witnessing a//b//c has a descendant, hence some child.
  EXPECT_TRUE(Weak("a//b//c", "a/*"));
  EXPECT_TRUE(Weak("a/b//c", "a/*"));
  EXPECT_FALSE(Weak("a//b//c", "a/*/*/c"));
}

TEST_F(ContainmentTest, ChildFreeExamples) {
  EXPECT_TRUE(Weak("a[//b]//c", "a"));
  EXPECT_TRUE(Weak("a[//b]//c", "*//c"));
  EXPECT_TRUE(Weak("a[//b][//c]", "a[//b]"));
  EXPECT_FALSE(Weak("a[//b]", "a[//b][//c]"));
  // Non-singular q: letters at different depths in one island.
  EXPECT_FALSE(Weak("a//b//c", "a/b"));
  EXPECT_TRUE(Weak("a[//b[//d]][//c]", "*//d"));
}

TEST_F(ContainmentTest, SoundnessOnRandomTrees) {
  // Whenever the dispatcher claims containment, no random tree may violate
  // it.  (Completeness is covered by the cross-validation tests above.)
  std::mt19937 rng(404);
  std::vector<LabelId> labels = MakeLabels(2, &pool_);
  for (int trial = 0; trial < 60; ++trial) {
    RandomTpqOptions opts;
    opts.labels = labels;
    opts.fragment = fragments::kTpqFull;
    opts.size = 2 + trial % 4;
    Tpq p = RandomTpq(opts, &rng);
    Tpq q = RandomTpq(opts, &rng);
    if (!Contains(p, q, Mode::kWeak, &pool_).contained) continue;
    RandomTreeOptions topts;
    topts.labels = labels;
    for (int i = 0; i < 20; ++i) {
      topts.size = 1 + (i * 3) % 10;
      Tree t = RandomTree(topts, &rng);
      if (MatchesWeak(p, t)) {
        EXPECT_TRUE(MatchesWeak(q, t))
            << p.ToString(pool_) << " ⊆ " << q.ToString(pool_)
            << " violated by " << t.ToString(pool_);
      }
    }
  }
}

TEST_F(ContainmentTest, SingleNodePatterns) {
  EXPECT_TRUE(Weak("a", "*"));
  EXPECT_FALSE(Weak("*", "a"));
  EXPECT_TRUE(Weak("a", "a"));
  EXPECT_TRUE(Strong("a", "*"));
  EXPECT_FALSE(Strong("*", "a"));
  EXPECT_TRUE(Weak("a/b", "*"));
}

}  // namespace
}  // namespace tpc
