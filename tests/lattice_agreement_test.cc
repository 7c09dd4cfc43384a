// Lattice-vs-direct agreement: the subsumption-lattice layer
// (service/verdict_lattice.h) may only ever change *how fast* a verdict is
// reached, never the verdict.  Stitched containments (transitive chains of
// cached contained edges) and borrowed-witness refutations (a neighbour's
// replayed counterexample) must agree with the plain dispatcher on every
// decided instance, across both modes, 1/2/4 threads, lattice on/off, and
// cold/warm cache temperatures.  The suite also pins the snapshot warm-start
// path: a service reloaded from a snapshot must reproduce the saved
// service's verdicts, certifying each cached refutation by replaying its
// chain lengths.

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "base/label.h"
#include "contain/containment.h"
#include "engine/engine.h"
#include "gen/random_instances.h"
#include "match/embedding.h"
#include "service/query_service.h"

namespace tpc {
namespace {

std::string TempPath(const char* tag) {
  return std::string(::testing::TempDir()) + "/tpc_lattice_" + tag + ".snap";
}

/// A random weakening of p (see service_agreement_test.cc): every step only
/// enlarges the language, so p ⊑ weakened(p) holds by construction.
Tpq WeakenedCopy(const Tpq& p, std::mt19937* rng) {
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  Tpq q(coin(*rng) < 0.25 ? kWildcard : p.Label(0));
  struct Frame {
    NodeId src;
    NodeId dst;
  };
  std::vector<Frame> stack = {{0, 0}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    for (NodeId c = p.FirstChild(f.src); c != kNoNode; c = p.NextSibling(c)) {
      if (coin(*rng) < 0.2) continue;
      LabelId label = coin(*rng) < 0.3 ? kWildcard : p.Label(c);
      EdgeKind edge = coin(*rng) < 0.3 ? EdgeKind::kDescendant : p.Edge(c);
      stack.push_back({c, q.AddChild(f.dst, label, edge)});
    }
  }
  return q;
}

/// Transitive-chain workload: `chains` weakening chains of length `depth`
/// (adjacent pairs contained by construction), plus their reversals (mostly
/// refuted) — the shape that exercises stitching and witness borrowing.
/// Modes alternate per chain.
std::vector<QueryService::BatchItem> MakeChainWorkload(
    LabelPool* pool, int chains, int depth) {
  std::mt19937 rng(20260809);
  std::vector<LabelId> labels = MakeLabels(3, pool);
  std::vector<QueryService::BatchItem> items;
  for (int c = 0; c < chains; ++c) {
    RandomTpqOptions popts;
    popts.labels = labels;
    popts.fragment = fragments::kTpqFull;
    popts.size = 4 + c % 4;
    std::vector<Tpq> chain;
    chain.push_back(RandomTpq(popts, &rng));
    for (int d = 1; d < depth; ++d) {
      chain.push_back(WeakenedCopy(chain.back(), &rng));
    }
    const Mode mode = c % 2 == 0 ? Mode::kWeak : Mode::kStrong;
    // Adjacent pairs first (they seed the lattice's contained edges), then
    // every distant pair (stitch candidates), then the reversals (refutation
    // witnesses that later pairs can borrow).
    for (int i = 0; i + 1 < depth; ++i) {
      items.push_back({chain[i], chain[i + 1], mode});
    }
    for (int i = 0; i < depth; ++i) {
      for (int j = i + 2; j < depth; ++j) {
        items.push_back({chain[i], chain[j], mode});
      }
    }
    for (int i = depth - 1; i > 0; --i) {
      items.push_back({chain[i], chain[i - 1], mode});
    }
  }
  return items;
}

void CheckAgainstReference(const std::vector<QueryService::BatchItem>& items,
                           const std::vector<bool>& reference,
                           const std::vector<ContainmentResult>& results,
                           LabelPool* pool, const char* tag) {
  ASSERT_EQ(results.size(), items.size());
  for (size_t i = 0; i < results.size(); ++i) {
    const ContainmentResult& r = results[i];
    ASSERT_EQ(r.outcome, Outcome::kDecided) << tag << " item " << i;
    ASSERT_EQ(r.contained, reference[i])
        << tag << " item " << i << ": " << items[i].p.ToString(*pool) << " in "
        << items[i].q.ToString(*pool)
        << (items[i].mode == Mode::kStrong ? " (strong)" : " (weak)");
    if (r.counterexample.has_value()) {
      ASSERT_FALSE(r.contained);
      const Tree& t = *r.counterexample;
      if (items[i].mode == Mode::kStrong) {
        EXPECT_TRUE(MatchesStrong(items[i].p, t)) << tag << " item " << i;
        EXPECT_FALSE(MatchesStrong(items[i].q, t)) << tag << " item " << i;
      } else {
        EXPECT_TRUE(MatchesWeak(items[i].p, t)) << tag << " item " << i;
        EXPECT_FALSE(MatchesWeak(items[i].q, t)) << tag << " item " << i;
      }
    }
  }
}

std::vector<bool> ReferenceVerdicts(
    const std::vector<QueryService::BatchItem>& items, LabelPool* pool,
    const ContainmentOptions& containment) {
  std::vector<bool> reference;
  reference.reserve(items.size());
  EngineContext ref_ctx;
  for (const QueryService::BatchItem& item : items) {
    ContainmentResult r =
        Contains(item.p, item.q, item.mode, pool, &ref_ctx, containment);
    EXPECT_EQ(r.outcome, Outcome::kDecided);
    reference.push_back(r.contained);
  }
  return reference;
}

// A hand-built chain a/b/c/d ⊑ a/b/c ⊑ a/b ⊑ a: querying the distant pairs
// after seeding the adjacent ones must be answered by stitching — and the
// stitched verdicts must match the direct dispatcher's.
TEST(LatticeAgreementTest, DistantChainPairsAreStitchedCorrectly) {
  LabelPool pool;
  std::vector<LabelId> labels = MakeLabels(4, &pool);

  std::vector<Tpq> chain;
  for (int len = 4; len >= 1; --len) {
    Tpq p(labels[0]);
    NodeId at = 0;
    for (int i = 1; i < len; ++i) {
      at = p.AddChild(at, labels[static_cast<size_t>(i)], EdgeKind::kChild);
    }
    chain.push_back(std::move(p));  // a/b/c/d, a/b/c, a/b, a
  }

  EngineContext ctx;
  ServiceOptions options;
  // Prefilters off: the homomorphism accept would otherwise decide these
  // trivial pairs itself and the test would not isolate the stitch layer.
  options.use_prefilters = false;
  QueryService service(&pool, &ctx, options);

  // Seed the adjacent containments (full route; each records an edge).
  for (size_t i = 0; i + 1 < chain.size(); ++i) {
    ContainmentResult r = service.Contains(chain[i], chain[i + 1], Mode::kWeak);
    ASSERT_EQ(r.outcome, Outcome::kDecided);
    ASSERT_TRUE(r.contained) << "adjacent pair " << i;
  }
  ASSERT_EQ(ctx.stats().lattice_stitch_hits.load(std::memory_order_relaxed), 0);

  // Distant pairs: every one is a verdict-cache miss, so only the stitch
  // walk can answer them without the full route.
  int64_t expected_stitches = 0;
  for (size_t i = 0; i < chain.size(); ++i) {
    for (size_t j = i + 2; j < chain.size(); ++j) {
      ContainmentResult r = service.Contains(chain[i], chain[j], Mode::kWeak);
      ASSERT_EQ(r.outcome, Outcome::kDecided);
      EXPECT_TRUE(r.contained) << i << " vs " << j;
      ++expected_stitches;
    }
  }
  EXPECT_EQ(ctx.stats().lattice_stitch_hits.load(std::memory_order_relaxed),
            expected_stitches);

  // The stitched verdicts agree with the uncached dispatcher.
  EngineContext ref_ctx;
  for (size_t i = 0; i < chain.size(); ++i) {
    for (size_t j = i + 2; j < chain.size(); ++j) {
      ContainmentResult r =
          Contains(chain[i], chain[j], Mode::kWeak, &pool, &ref_ctx);
      ASSERT_EQ(r.outcome, Outcome::kDecided);
      EXPECT_TRUE(r.contained);
    }
  }
}

// Two refutations that share their left endpoint: the first pays the full
// route and leaves a counterexample witness on p's lattice node; the second
// must be answered by replaying that borrowed witness — and the borrowed
// refutation's counterexample must be a genuine member of L(p) \ L(q).
TEST(LatticeAgreementTest, SharedEndpointRefutationsBorrowWitnesses) {
  LabelPool pool;
  std::vector<LabelId> labels = MakeLabels(4, &pool);

  // The descendant edge matters: witnesses are *length vectors over p's
  // descendant edges*, so a child-only pattern has nothing to store.
  Tpq p(labels[0]);
  p.AddChild(0, labels[1], EdgeKind::kDescendant);  // a//b
  Tpq q1(labels[2]);  // c — no tree of p has a c
  Tpq q2(labels[3]);  // d — the same witness transfers

  EngineContext ctx;
  ServiceOptions options;
  options.use_prefilters = false;  // isolate the borrow layer from probes
  QueryService service(&pool, &ctx, options);

  ContainmentResult first = service.Contains(p, q1, Mode::kWeak);
  ASSERT_EQ(first.outcome, Outcome::kDecided);
  ASSERT_FALSE(first.contained);
  ASSERT_EQ(
      ctx.stats().witness_borrow_refutes.load(std::memory_order_relaxed), 0);

  ContainmentResult second = service.Contains(p, q2, Mode::kWeak);
  ASSERT_EQ(second.outcome, Outcome::kDecided);
  ASSERT_FALSE(second.contained);
  EXPECT_EQ(
      ctx.stats().witness_borrow_refutes.load(std::memory_order_relaxed), 1);
  ASSERT_TRUE(second.counterexample.has_value());
  EXPECT_TRUE(MatchesWeak(p, *second.counterexample));
  EXPECT_FALSE(MatchesWeak(q2, *second.counterexample));
}

// The full matrix: lattice on/off × 1/2/4 threads × cold/warm, on a chain
// workload that mixes both modes, stitchable distant pairs and borrowable
// reversed refutations.  Verdicts must be identical to the plain
// dispatcher's in every cell, and the lattice must actually fire in the
// enabled single-threaded cell.
TEST(LatticeAgreementTest, ChainWorkloadAgreesAcrossLatticeAndThreads) {
  LabelPool pool;
  std::vector<QueryService::BatchItem> items =
      MakeChainWorkload(&pool, /*chains=*/12, /*depth=*/4);

  ContainmentOptions containment;
  containment.bound = ContainmentOptions::Bound::kAggressive;
  std::vector<bool> reference = ReferenceVerdicts(items, &pool, containment);

  int refutations = 0;
  for (bool contained : reference) {
    if (!contained) ++refutations;
  }
  // Both verdicts must be represented substantially.
  ASSERT_GT(refutations, 10);
  ASSERT_GT(static_cast<int>(reference.size()) - refutations, 10);

  for (bool use_lattice : {true, false}) {
    for (int threads : {1, 2, 4}) {
      EngineConfig config;
      config.threads = threads;
      EngineContext ctx(config);
      ServiceOptions options;
      options.use_lattice = use_lattice;
      options.containment = containment;
      QueryService service(&pool, &ctx, options);
      char tag[64];
      std::snprintf(tag, sizeof(tag), "lattice=%d threads=%d", use_lattice,
                    threads);
      std::vector<ContainmentResult> cold = service.ContainsBatch(items);
      CheckAgainstReference(items, reference, cold, &pool, tag);
      std::vector<ContainmentResult> warm = service.ContainsBatch(items);
      CheckAgainstReference(items, reference, warm, &pool, tag);
      if (use_lattice && threads == 1) {
        EXPECT_GT(
            ctx.stats().lattice_stitch_hits.load(std::memory_order_relaxed) +
                ctx.stats().witness_borrow_refutes.load(
                    std::memory_order_relaxed),
            0)
            << tag;
      }
    }
  }
}

// Snapshot warm start: a fresh service over the same pool, reloaded from the
// saved warm tier, must reproduce the saved service's verdicts exactly —
// served from the cache — and every cached refutation it serves must be
// certified by rebuilding the canonical model its chain lengths fix.
TEST(LatticeAgreementTest, SnapshotWarmStartAgreesAndReplaysRefutations) {
  LabelPool pool;
  std::vector<QueryService::BatchItem> items =
      MakeChainWorkload(&pool, /*chains=*/8, /*depth=*/3);

  ContainmentOptions containment;
  containment.bound = ContainmentOptions::Bound::kAggressive;
  std::vector<bool> reference = ReferenceVerdicts(items, &pool, containment);

  ServiceOptions options;
  options.containment = containment;

  const std::string path = TempPath("warmstart");
  {
    EngineContext ctx;
    QueryService warm_writer(&pool, &ctx, options);
    std::vector<ContainmentResult> cold = warm_writer.ContainsBatch(items);
    CheckAgainstReference(items, reference, cold, &pool, "writer cold");
    std::string error;
    ASSERT_TRUE(warm_writer.SaveSnapshot(path, &error)) << error;
  }

  EngineContext ctx;
  QueryService reloaded(&pool, &ctx, options);
  std::string error;
  ASSERT_TRUE(reloaded.LoadSnapshot(path, &error)) << error;
  std::vector<ContainmentResult> warm = reloaded.ContainsBatch(items);
  CheckAgainstReference(items, reference, warm, &pool, "reloaded warm");
  EXPECT_GT(ctx.stats().cache_hits.load(std::memory_order_relaxed), 0);
  // The refutation hits were replayed: each rebuilt one canonical tree.
  EXPECT_GT(
      ctx.stats().canonical_trees_enumerated.load(std::memory_order_relaxed),
      0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tpc
