// Persistent warm-start tier: what a snapshot is worth.
//
// Three questions, each with verdict-identity enforcement (a persistence
// tier that changes answers is a bug, not a speedup):
//
//   * BM_Persist_ColdTimeToFirstVerdict vs BM_Persist_WarmTimeToFirstVerdict
//     — a fresh process receives the hottest (coNP-refuted) query of a zipf
//     stream.  Cold pays the full dispatcher route; warm pays LoadSnapshot
//     (read + re-fence + seed) plus one cache hit.  The acceptance target is
//     a >= 10x gap in favour of warm start.
//   * BM_Persist_ChainStitchConversion — the transitive-chain family:
//     adjacent pairs p_i ⊑ p_{i+1} are decided directly, then every distant
//     pair is asked.  Distant pairs are verdict-cache misses, so only the
//     lattice's transitivity stitch can short-circuit them; the benchmark
//     aborts unless >= 30% of the distant queries convert to stitch hits
//     (in practice all of them do) and every verdict matches the plain
//     dispatcher's.
//   * BM_Persist_RemapLoad — the non-identity remap axis: the same snapshot
//     is loaded into a pool whose ids were shifted by decoy interns, so
//     every stored label id must be translated.  The cache and lattice
//     still warm up — both the contained head and its refuted twin must
//     serve as cache hits with verdicts identical to the cold dispatcher,
//     the refutation replayed from stored lengths.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "base/label.h"
#include "contain/containment.h"
#include "engine/engine.h"
#include "gen/random_instances.h"
#include "reductions/hardness_families.h"
#include "service/query_service.h"

namespace tpc {
namespace {

ContainmentOptions AggressiveOptions() {
  ContainmentOptions options;
  options.bound = ContainmentOptions::Bound::kAggressive;
  return options;
}

ServiceOptions PersistServiceOptions() {
  ServiceOptions options;
  options.containment = AggressiveOptions();
  return options;
}

std::string BenchSnapPath(const char* tag) {
  return std::string("/tmp/tpc_bench_persist_") + tag + ".snap";
}

// ---------------------------------------------------------------------------
// Time to first verdict, cold vs warm.

struct FirstVerdictWorkload {
  LabelPool pool;
  std::vector<QueryService::BatchItem> stream;  // the zipf universe
  std::vector<bool> expected;
  size_t head = 0;  // index of the hottest (coNP-refuted) pair
};

/// The zipf universe of bench_service, reduced to its distinct pairs: the
/// coNP family's contained and refuted queries at n = 4 and 5 (the skewed
/// head) plus 24 random full-fragment pairs (the tail).  The probe question
/// is the time to the *head* pair's verdict — the query a restarted process
/// is most likely to be asked first.
FirstVerdictWorkload MakeFirstVerdictWorkload() {
  FirstVerdictWorkload w;
  std::mt19937 rng(20150605);
  for (int32_t n : {4, 5}) {
    ConpFamilyInstance inst = BuildConpFamily(n, &w.pool);
    w.stream.push_back({inst.p, inst.q_yes, Mode::kWeak});
    w.stream.push_back({inst.p, inst.q_no, Mode::kWeak});
  }
  // p_5 vs q_yes: contained, but *not* via any homomorphism — that is the
  // point of the coNP family — so neither prefilter can shortcut it and a
  // cold service must pay the full enumeration sweep.  (The refuted twin
  // q_no would be a poor probe: the all-ones canonical-model prefilter
  // refutes it in O(1) even cold.)
  w.head = 2;
  std::vector<LabelId> labels = MakeLabels(3, &w.pool);
  for (int trial = 0; trial < 24; ++trial) {
    RandomTpqOptions popts;
    popts.labels = labels;
    popts.fragment = fragments::kTpqFull;
    popts.size = 4 + trial % 5;
    RandomTpqOptions qopts = popts;
    qopts.size = 4 + (trial / 5) % 4;
    QueryService::BatchItem item;
    item.p = RandomTpq(popts, &rng);
    item.q = RandomTpq(qopts, &rng);
    item.mode = trial % 5 == 0 ? Mode::kStrong : Mode::kWeak;
    w.stream.push_back(std::move(item));
  }
  EngineContext ref_ctx;
  for (const QueryService::BatchItem& item : w.stream) {
    ContainmentResult r = Contains(item.p, item.q, item.mode, &w.pool,
                                   &ref_ctx, AggressiveOptions());
    w.expected.push_back(r.outcome == Outcome::kDecided && r.contained);
  }
  return w;
}

/// Decides the whole stream once and saves the warm tier.
bool WriteWarmSnapshot(FirstVerdictWorkload* w, const std::string& path,
                       std::string* error) {
  EngineContext ctx;
  QueryService service(&w->pool, &ctx, PersistServiceOptions());
  service.ContainsBatch(w->stream);
  return service.SaveSnapshot(path, error);
}

void BM_Persist_ColdTimeToFirstVerdict(benchmark::State& state) {
  FirstVerdictWorkload w = MakeFirstVerdictWorkload();
  const QueryService::BatchItem& head = w.stream[w.head];
  for (auto _ : state) {
    EngineContext ctx;
    QueryService service(&w.pool, &ctx, PersistServiceOptions());
    ContainmentResult r = service.Contains(head.p, head.q, head.mode);
    if (r.outcome != Outcome::kDecided || r.contained != w.expected[w.head]) {
      state.SkipWithError("cold verdict mismatch");
      return;
    }
    benchmark::DoNotOptimize(r.contained);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Persist_ColdTimeToFirstVerdict)->Unit(benchmark::kMicrosecond);

void BM_Persist_WarmTimeToFirstVerdict(benchmark::State& state) {
  FirstVerdictWorkload w = MakeFirstVerdictWorkload();
  const std::string path = BenchSnapPath("firstverdict");
  std::string error;
  if (!WriteWarmSnapshot(&w, path, &error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  const QueryService::BatchItem& head = w.stream[w.head];
  int64_t hits = 0;
  for (auto _ : state) {
    // The timed region is the whole restart: read the snapshot, re-fence and
    // seed the tiers, then serve the first query.
    EngineContext ctx;
    QueryService service(&w.pool, &ctx, PersistServiceOptions());
    if (!service.LoadSnapshot(path, &error)) {
      state.SkipWithError(error.c_str());
      return;
    }
    ContainmentResult r = service.Contains(head.p, head.q, head.mode);
    if (r.outcome != Outcome::kDecided || r.contained != w.expected[w.head]) {
      state.SkipWithError("warm verdict mismatch");
      return;
    }
    hits = ctx.stats().cache_hits.load(std::memory_order_relaxed);
    benchmark::DoNotOptimize(r.contained);
  }
  if (state.iterations() > 0 && hits == 0) {
    state.SkipWithError("warm start served no cache hit");
    return;
  }
  state.SetItemsProcessed(state.iterations());
  std::remove(path.c_str());
}
BENCHMARK(BM_Persist_WarmTimeToFirstVerdict)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Non-identity remap load.

/// Re-interns every label of `p` from `from` into `to`, preserving structure.
/// (The wildcard is pre-interned as id 0 in every pool, so it maps to
/// itself.)
Tpq ReinternTpq(const Tpq& p, const LabelPool& from, LabelPool* to) {
  Tpq out(to->Intern(from.Name(p.Label(0))));
  for (NodeId v = 1; v < p.size(); ++v) {
    out.AddChild(p.Parent(v), to->Intern(from.Name(p.Label(v))), p.Edge(v));
  }
  return out;
}

void BM_Persist_RemapLoad(benchmark::State& state) {
  FirstVerdictWorkload w = MakeFirstVerdictWorkload();
  const std::string path = BenchSnapPath("remap");
  std::string error;
  if (!WriteWarmSnapshot(&w, path, &error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  // The probe pair and its refuted twin (indices 2 and 3 of the stream: the
  // n = 5 coNP instance against q_yes and q_no).
  const QueryService::BatchItem& head = w.stream[w.head];
  const QueryService::BatchItem& twin = w.stream[w.head + 1];
  int64_t hits = 0;
  for (auto _ : state) {
    state.PauseTiming();
    // Decoy interns shift every snapshot label to a different live id, so
    // LoadSnapshot must translate every stored id; the queries themselves
    // are re-interned to the live pool.
    LabelPool live;
    for (int i = 0; i < 17; ++i) live.Intern("zz_decoy_" + std::to_string(i));
    Tpq head_p = ReinternTpq(head.p, w.pool, &live);
    Tpq head_q = ReinternTpq(head.q, w.pool, &live);
    Tpq twin_p = ReinternTpq(twin.p, w.pool, &live);
    Tpq twin_q = ReinternTpq(twin.q, w.pool, &live);
    state.ResumeTiming();
    // The timed region mirrors the warm twin: read + translate + seed, then
    // serve the head pair and its refuted twin.
    EngineContext ctx;
    QueryService service(&live, &ctx, PersistServiceOptions());
    if (!service.LoadSnapshot(path, &error)) {
      state.SkipWithError(error.c_str());
      return;
    }
    ContainmentResult r = service.Contains(head_p, head_q, head.mode);
    if (r.outcome != Outcome::kDecided || r.contained != w.expected[w.head]) {
      state.SkipWithError("remap verdict mismatch (head)");
      return;
    }
    ContainmentResult rt = service.Contains(twin_p, twin_q, twin.mode);
    if (rt.outcome != Outcome::kDecided ||
        rt.contained != w.expected[w.head + 1]) {
      state.SkipWithError("remap verdict mismatch (refuted twin)");
      return;
    }
    hits = ctx.stats().cache_hits.load(std::memory_order_relaxed);
    benchmark::DoNotOptimize(r.contained);
    benchmark::DoNotOptimize(rt.contained);
  }
  if (state.iterations() > 0) {
    if (hits == 0) {
      state.SkipWithError("remap load served no cache hit");
      return;
    }
    state.counters["remap_cache_hits"] = static_cast<double>(hits);
  }
  state.SetItemsProcessed(state.iterations());
  std::remove(path.c_str());
}
BENCHMARK(BM_Persist_RemapLoad)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Transitive-chain stitch conversion.

struct ChainFamily {
  LabelPool pool;
  // chains[c] is ordered strongest → weakest: chains[c][i] ⊑ chains[c][i+1].
  std::vector<std::vector<Tpq>> chains;
};

/// `chains` disjoint-alphabet child-edge spines; pattern i of a chain is the
/// length-(depth - i) prefix path, so adjacent containments hold trivially
/// and distant ones only by transitivity.
ChainFamily MakeChainFamily(int chains, int depth) {
  ChainFamily f;
  for (int c = 0; c < chains; ++c) {
    std::vector<LabelId> spine;
    for (int i = 0; i < depth; ++i) {
      spine.push_back(
          f.pool.Intern("c" + std::to_string(c) + "_" + std::to_string(i)));
    }
    std::vector<Tpq> chain;
    for (int len = depth; len >= 1; --len) {
      Tpq p(spine[0]);
      NodeId at = 0;
      for (int i = 1; i < len; ++i) {
        at = p.AddChild(at, spine[static_cast<size_t>(i)], EdgeKind::kChild);
      }
      chain.push_back(std::move(p));
    }
    f.chains.push_back(std::move(chain));
  }
  return f;
}

void BM_Persist_ChainStitchConversion(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  ChainFamily f = MakeChainFamily(/*chains=*/8, depth);
  int64_t stitches = 0, distant = 0;
  for (auto _ : state) {
    EngineContext ctx;
    QueryService service(&f.pool, &ctx, PersistServiceOptions());
    for (const std::vector<Tpq>& chain : f.chains) {
      for (size_t i = 0; i + 1 < chain.size(); ++i) {
        ContainmentResult r =
            service.Contains(chain[i], chain[i + 1], Mode::kWeak);
        if (r.outcome != Outcome::kDecided || !r.contained) {
          state.SkipWithError("adjacent pair not contained");
          return;
        }
      }
      for (size_t i = 0; i < chain.size(); ++i) {
        for (size_t j = i + 2; j < chain.size(); ++j) {
          ContainmentResult r =
              service.Contains(chain[i], chain[j], Mode::kWeak);
          if (r.outcome != Outcome::kDecided || !r.contained) {
            state.SkipWithError("distant pair not contained");
            return;
          }
          ++distant;
        }
      }
    }
    stitches = ctx.stats().lattice_stitch_hits.load(std::memory_order_relaxed);
  }
  if (state.iterations() > 0) {
    const double per_iter_distant =
        static_cast<double>(distant) / state.iterations();
    const double conversion =
        per_iter_distant > 0 ? stitches / per_iter_distant : 0.0;
    state.counters["stitch_conversion"] = conversion;
    state.counters["stitch_hits"] = static_cast<double>(stitches);
    if (conversion < 0.3) {
      state.SkipWithError("stitch conversion below the 30% floor");
      return;
    }
  }
  state.SetItemsProcessed(distant);
}
BENCHMARK(BM_Persist_ChainStitchConversion)
    ->Arg(4)
    ->Arg(6)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace tpc

BENCHMARK_MAIN();
