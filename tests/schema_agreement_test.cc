// Randomized agreement suite for the schema engine's exploration variants.
//
// The antichain-pruned engine, the unpruned engine, and the parallel
// (round-based, multi-threaded) engine are three routes through the same
// reachable-configuration fixpoint; on every decidable instance they must
// return the same answer for all three decision problems and for the
// Theorem 6.4 route (the engine over a product NTA), and any witness
// they produce must actually certify it.  Witness *trees* may legitimately
// differ between variants (different exploration orders find different
// goals), so we check witness validity, not equality.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "base/label.h"
#include "dtd/dtd.h"
#include "engine/engine.h"
#include "gen/random_instances.h"
#include "match/embedding.h"
#include "pattern/tpq.h"
#include "schema/nta_satisfiability.h"
#include "schema/schema_engine.h"

namespace tpc {
namespace {

struct Variant {
  const char* name;
  int threads;
  bool antichain;
};

constexpr Variant kVariants[] = {
    {"seq+antichain", 1, true},
    {"seq+unpruned", 1, false},
    {"par2+antichain", 2, true},
    {"par4+antichain", 4, true},
    {"par4+unpruned", 4, false},
};

SchemaDecision RunVariant(const Variant& v, int which, const Tpq& p, const Tpq& q,
                   Mode mode, const Dtd& d) {
  EngineConfig config;
  config.threads = v.threads;
  EngineContext ctx(config);
  SchemaEngineOptions options;
  options.antichain = v.antichain;
  switch (which) {
    case 0:
      return SatisfiableWithDtd(p, mode, d, &ctx, EngineLimits{}, options);
    case 1:
      return ValidWithDtd(q, mode, d, &ctx, EngineLimits{}, options);
    default:
      return ContainedWithDtd(p, q, mode, d, &ctx, EngineLimits{}, options);
  }
}

bool Matches(const Tpq& p, const Tree& t, Mode mode) {
  return mode == Mode::kStrong ? MatchesStrong(p, t) : MatchesWeak(p, t);
}

/// A witness must certify the decision, whichever variant found it.
void CheckWitness(int which, const SchemaDecision& r, const Tpq& p,
                  const Tpq& q, Mode mode, const Dtd& d) {
  if (!r.witness.has_value()) return;
  EXPECT_TRUE(d.Satisfies(*r.witness));
  switch (which) {
    case 0:  // satisfiability: a tree of L(p) ∩ L(d)
      EXPECT_TRUE(r.yes);
      EXPECT_TRUE(Matches(p, *r.witness, mode));
      break;
    case 1:  // validity: a counterexample in L(d) \ L(q)
      EXPECT_FALSE(r.yes);
      EXPECT_FALSE(Matches(q, *r.witness, mode));
      break;
    default:  // containment: a counterexample in L(p) ∩ L(d) \ L(q)
      EXPECT_FALSE(r.yes);
      EXPECT_TRUE(Matches(p, *r.witness, mode));
      EXPECT_FALSE(Matches(q, *r.witness, mode));
      break;
  }
}

TEST(SchemaAgreementTest, VariantsAgreeOn300RandomInstances) {
  LabelPool pool;
  std::mt19937 rng(20260805);
  int instances = 0;
  int yes_count[3] = {0, 0, 0};
  int no_count[3] = {0, 0, 0};
  while (instances < 300) {
    std::vector<LabelId> labels = MakeLabels(2 + instances % 3, &pool);
    RandomDtdOptions dopts;
    dopts.labels = labels;
    Dtd d = RandomDtd(dopts, &rng);
    if (d.IsEmptyLanguage()) continue;
    RandomTpqOptions topts;
    topts.labels = labels;
    topts.fragment = fragments::kTpqFull;
    topts.size = 2 + instances % 4;
    Tpq p = RandomTpq(topts, &rng);
    Tpq q = RandomTpq(topts, &rng);
    Mode mode = instances % 2 ? Mode::kStrong : Mode::kWeak;
    ++instances;
    for (int which = 0; which < 3; ++which) {
      SchemaDecision baseline = RunVariant(kVariants[0], which, p, q, mode, d);
      ASSERT_TRUE(baseline.decided)
          << "instance " << instances << " problem " << which;
      (baseline.yes ? yes_count : no_count)[which]++;
      CheckWitness(which, baseline, p, q, mode, d);
      for (size_t v = 1; v < std::size(kVariants); ++v) {
        SchemaDecision r = RunVariant(kVariants[v], which, p, q, mode, d);
        ASSERT_TRUE(r.decided)
            << kVariants[v].name << " instance " << instances;
        EXPECT_EQ(baseline.yes, r.yes)
            << kVariants[v].name << " disagrees on problem " << which
            << ": " << p.ToString(pool) << " / " << q.ToString(pool)
            << (mode == Mode::kStrong ? " strong" : " weak") << " with\n"
            << d.ToString(pool);
        EXPECT_EQ(baseline.witness.has_value(), r.witness.has_value())
            << kVariants[v].name << " witness presence differs on problem "
            << which;
        CheckWitness(which, r, p, q, mode, d);
      }
    }
  }
  // The family must exercise both answers of every problem, or agreement
  // is vacuous.
  for (int which = 0; which < 3; ++which) {
    EXPECT_GT(yes_count[which], 10) << "problem " << which;
    EXPECT_GT(no_count[which], 10) << "problem " << which;
  }
}

TEST(SchemaAgreementTest, ConpRouteAgreesAcrossVariants) {
  // The Theorem 6.4 route runs the same engine over the product of the DTD
  // automaton and the complement automaton of a path q.  Under every
  // variant — including parallel rounds over the product's transitions —
  // it must answer as ContainedWithDtd, with a certifying counterexample.
  LabelPool pool;
  std::mt19937 rng(20261017);
  int instances = 0;
  int yes_count = 0;
  int no_count = 0;
  while (instances < 100) {
    std::vector<LabelId> labels = MakeLabels(2 + instances % 3, &pool);
    RandomDtdOptions dopts;
    dopts.labels = labels;
    Dtd d = RandomDtd(dopts, &rng);
    if (d.IsEmptyLanguage()) continue;
    RandomTpqOptions popts;
    popts.labels = labels;
    popts.fragment = fragments::kTpqFull;
    popts.size = 2 + instances % 4;
    Tpq p = RandomTpq(popts, &rng);
    RandomTpqOptions qopts = popts;
    qopts.fragment = fragments::kPqFull;
    qopts.size = 1 + instances % 3;
    Tpq q = RandomTpq(qopts, &rng);
    Mode mode = instances % 2 ? Mode::kStrong : Mode::kWeak;
    // An unsatisfiable p is trivially contained; keep the instances where
    // the route has a counterexample to look for.
    if (!SatisfiableWithDtd(p, mode, d).yes) continue;
    ++instances;
    SchemaDecision reference = RunVariant(kVariants[0], 2, p, q, mode, d);
    ASSERT_TRUE(reference.decided) << "instance " << instances;
    (reference.yes ? yes_count : no_count)++;
    for (const Variant& v : kVariants) {
      EngineConfig config;
      config.threads = v.threads;
      EngineContext ctx(config);
      SchemaEngineOptions options;
      options.antichain = v.antichain;
      SchemaDecision r = ContainedViaConpRoute(p, q, mode, d, &pool, &ctx,
                                               EngineLimits{}, options);
      ASSERT_TRUE(r.decided) << v.name << " instance " << instances;
      EXPECT_EQ(reference.yes, r.yes)
          << v.name << ": " << p.ToString(pool) << " in " << q.ToString(pool)
          << (mode == Mode::kStrong ? " strong" : " weak") << " with\n"
          << d.ToString(pool);
      EXPECT_EQ(r.yes, !r.witness.has_value()) << v.name;
      CheckWitness(2, r, p, q, mode, d);
    }
  }
  EXPECT_GT(yes_count, 20);
  EXPECT_GT(no_count, 20);
}

TEST(SchemaAgreementTest, CapsNeverFlipAnswersAcrossVariants) {
  // Under a tight configuration cap the engine may come back undecided, but
  // whenever a variant *does* decide, it must agree with the uncapped run.
  LabelPool pool;
  std::mt19937 rng(515151);
  std::vector<LabelId> labels = MakeLabels(3, &pool);
  for (int trial = 0; trial < 30; ++trial) {
    RandomDtdOptions dopts;
    dopts.labels = labels;
    Dtd d = RandomDtd(dopts, &rng);
    if (d.IsEmptyLanguage()) continue;
    RandomTpqOptions topts;
    topts.labels = labels;
    topts.fragment = fragments::kTpqFull;
    topts.size = 3;
    Tpq p = RandomTpq(topts, &rng);
    Tpq q = RandomTpq(topts, &rng);
    SchemaDecision full = RunVariant(kVariants[0], 2, p, q, Mode::kWeak, d);
    ASSERT_TRUE(full.decided);
    EngineLimits tight;
    tight.max_configurations = 4;
    for (const Variant& v : kVariants) {
      EngineConfig config;
      config.threads = v.threads;
      EngineContext ctx(config);
      SchemaEngineOptions options;
      options.antichain = v.antichain;
      SchemaDecision capped =
          ContainedWithDtd(p, q, Mode::kWeak, d, &ctx, tight, options);
      if (capped.decided) {
        EXPECT_EQ(full.yes, capped.yes) << v.name;
      } else {
        EXPECT_EQ(capped.outcome, Outcome::kResourceExhausted) << v.name;
      }
    }
  }
}

}  // namespace
}  // namespace tpc
