// Table 1 — containment without schema information.
//
// The paper classifies every fragment pair as in P or coNP-complete.  This
// benchmark reproduces the *shape* of that classification:
//   * each polynomial cell is exercised by its dedicated algorithm on
//     instances of growing size (expect smooth polynomial scaling);
//   * the coNP-complete cell (branching + / + // on the left, wildcards on
//     the right — Theorem 3.3) is exercised on the engineered worst-case
//     family, whose canonical-model space is exponentially large: the
//     dispatcher's type set folds q's automaton over it, and the
//     `force_canonical` rows (parallel and incremental sweep) enumerate it.
//
// Rows are labelled by the dispatcher algorithm, matching the theorems:
//   Homomorphism        — q wildcard-free            (Thm 3.1 region, P)
//   MinimalCanonical    — q child-edge-free          (Thm 3.2(3), P)
//   SingleCanonical     — p descendant-free          (Thm 3.1(2)/3.2(4), P)
//   PathInTpq           — p a path query             (Thm 3.2(1), P)
//   ChildFreeInTpq      — p child-edge-free          (Thm 3.2(2), P)
//   CanonicalEnumeration— general case               (Thm 3.3, coNP-c;
//                         decided by the type set, row name kept)

#include <benchmark/benchmark.h>

#include <cmath>
#include <random>
#include <string>

#include "base/label.h"
#include "contain/containment.h"
#include "engine/engine.h"
#include "gen/random_instances.h"
#include "reductions/hardness_families.h"

namespace tpc {
namespace {

/// Builds a random instance pair within the requested fragments.
struct Workload {
  LabelPool pool;
  std::vector<Tpq> ps;
  std::vector<Tpq> qs;
};

/// Samples instance pairs within the requested fragments, keeping only those
/// the dispatcher routes to `expected` (random patterns can normalize into a
/// smaller fragment and take an earlier exit).
Workload MakeWorkload(Fragment fp, Fragment fq, int32_t size, int count,
                      ContainmentAlgorithm expected) {
  Workload w;
  std::mt19937 rng(12345 + size);
  std::vector<LabelId> labels = MakeLabels(3, &w.pool);
  RandomTpqOptions popts;
  popts.labels = labels;
  popts.fragment = fp;
  popts.size = size;
  RandomTpqOptions qopts = popts;
  qopts.fragment = fq;
  int attempts = 0;
  while (static_cast<int>(w.ps.size()) < count && attempts < 4000) {
    ++attempts;
    Tpq p = RandomTpq(popts, &rng);
    Tpq q = RandomTpq(qopts, &rng);
    if (Contains(p, q, Mode::kWeak, &w.pool).algorithm != expected) continue;
    w.ps.push_back(std::move(p));
    w.qs.push_back(std::move(q));
  }
  return w;
}

void RunCell(benchmark::State& state, Fragment fp, Fragment fq,
             ContainmentAlgorithm expected) {
  int32_t size = static_cast<int32_t>(state.range(0));
  Workload w = MakeWorkload(fp, fq, size, 16, expected);
  if (w.ps.empty()) {
    state.SkipWithError("could not sample instances for this cell");
    return;
  }
  size_t n = w.ps.size();
  size_t i = 0;
  int64_t decided = 0;
  EngineContext ctx;
  for (auto _ : state) {
    ContainmentResult r =
        Contains(w.ps[i % n], w.qs[i % n], Mode::kWeak, &w.pool, &ctx);
    benchmark::DoNotOptimize(r.contained);
    ++i;
    ++decided;
  }
  state.counters["pattern_nodes"] = size;
  state.counters["decisions"] = static_cast<double>(decided);
  state.counters["embeddings"] = static_cast<double>(
      ctx.stats().embeddings_attempted.load(std::memory_order_relaxed));
  state.counters["dp_cells"] = static_cast<double>(
      ctx.stats().dp_cells_filled.load(std::memory_order_relaxed));
  state.counters["dp_words_folded"] = static_cast<double>(
      ctx.stats().dp_words_folded.load(std::memory_order_relaxed));
  state.counters["dp_rows_skipped"] = static_cast<double>(
      ctx.stats().dp_rows_skipped.load(std::memory_order_relaxed));
}

void BM_P_Homomorphism(benchmark::State& state) {
  RunCell(state, fragments::kTpqFull, fragments::kTpqChildDesc,
          ContainmentAlgorithm::kHomomorphism);
}
BENCHMARK(BM_P_Homomorphism)->Arg(10)->Arg(20)->Arg(40)->Arg(80)->Arg(160);

void BM_P_MinimalCanonical(benchmark::State& state) {
  RunCell(state, fragments::kTpqChildDesc, fragments::kTpqDescStar,
          ContainmentAlgorithm::kMinimalCanonical);
}
BENCHMARK(BM_P_MinimalCanonical)->Arg(10)->Arg(20)->Arg(40)->Arg(80)->Arg(160);

void BM_P_SingleCanonical(benchmark::State& state) {
  RunCell(state, fragments::kTpqChildStar, fragments::kTpqFull,
          ContainmentAlgorithm::kSingleCanonical);
}
BENCHMARK(BM_P_SingleCanonical)->Arg(10)->Arg(20)->Arg(40)->Arg(80)->Arg(160);

void BM_P_PathInTpq(benchmark::State& state) {
  RunCell(state, fragments::kPqFull, fragments::kTpqFull,
          ContainmentAlgorithm::kPathInTpq);
}
BENCHMARK(BM_P_PathInTpq)->Arg(10)->Arg(20)->Arg(40)->Arg(80);

void BM_P_ChildFreeInTpq(benchmark::State& state) {
  RunCell(state, fragments::kTpqDescStar, fragments::kTpqFull,
          ContainmentAlgorithm::kChildFreeInTpq);
}
BENCHMARK(BM_P_ChildFreeInTpq)->Arg(10)->Arg(20)->Arg(40)->Arg(80);

/// The coNP-complete cell: p ∈ TPQ(/,//), q ∈ PQ(/,*); the canonical-model
/// enumeration would certify containment only after (B+1)^n models.  The
/// dispatcher's type set folds q's automaton over that model space instead;
/// `states_per_decision` counts the states it materializes (linear in n on
/// this family).  The row name is kept from the sweep's baselines.
void BM_CoNP_CanonicalEnumeration(benchmark::State& state) {
  int32_t n = static_cast<int32_t>(state.range(0));
  LabelPool pool;
  ConpFamilyInstance inst = BuildConpFamily(n, &pool);
  ContainmentOptions aggressive;
  aggressive.bound = ContainmentOptions::Bound::kAggressive;
  EngineContext ctx;
  int64_t done = 0;
  for (auto _ : state) {
    ContainmentResult r =
        Contains(inst.p, inst.q_yes, Mode::kWeak, &pool, &ctx, aggressive);
    benchmark::DoNotOptimize(r.contained);
    if (!r.contained) {
      state.SkipWithError("family instance must be contained");
      return;
    }
    ++done;
  }
  state.counters["branches"] = n;
  // q_yes has a wildcard chain of length 3, so the aggressive bound is 4
  // and the model space holds 5^n canonical models.
  state.counters["models_per_decision"] =
      std::pow(5.0, static_cast<double>(n));
  state.counters["models_swept"] = static_cast<double>(
      ctx.stats().canonical_trees_enumerated.load(std::memory_order_relaxed));
  state.counters["states_per_decision"] = benchmark::Counter(
      static_cast<double>(
          ctx.stats().type_set_states.load(std::memory_order_relaxed)),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CoNP_CanonicalEnumeration)->Arg(2)->Arg(3)->Arg(4)->Arg(5)
    ->Arg(6)->Arg(7);
BENCHMARK(BM_CoNP_CanonicalEnumeration)->Arg(8)->Arg(9)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

/// The coNP cell again, swept with the chunked-parallel canonical
/// enumeration (`force_canonical`).  Args are (branches, threads); thread
/// count 1 is the sequential baseline, so the per-n speedup reads directly
/// off the report.  The verdict must be identical at every thread count.
void BM_CoNP_ParallelSweep(benchmark::State& state) {
  int32_t n = static_cast<int32_t>(state.range(0));
  int threads = static_cast<int>(state.range(1));
  LabelPool pool;
  ConpFamilyInstance inst = BuildConpFamily(n, &pool);
  ContainmentOptions aggressive;
  aggressive.bound = ContainmentOptions::Bound::kAggressive;
  aggressive.force_canonical = true;
  EngineConfig config;
  config.threads = threads;
  EngineContext ctx(config);
  for (auto _ : state) {
    ContainmentResult r =
        Contains(inst.p, inst.q_yes, Mode::kWeak, &pool, &ctx, aggressive);
    benchmark::DoNotOptimize(r.contained);
    if (!r.contained || r.outcome != Outcome::kDecided) {
      state.SkipWithError("family instance must be contained");
      return;
    }
  }
  state.counters["branches"] = n;
  state.counters["threads"] = threads;
  state.counters["models_swept"] = static_cast<double>(
      ctx.stats().canonical_trees_enumerated.load(std::memory_order_relaxed));
}
BENCHMARK(BM_CoNP_ParallelSweep)
    ->ArgsProduct({{6, 7, 8}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// The incremental canonical sweep (`force_canonical`) on the coNP family.
/// Args are
/// (branches, 1, 1); the trailing arguments are always 1 so the row names
/// match earlier baselines, which also recorded from-scratch and
/// scalar-kernel twins.  The DP counters are per decision: `dp_cells_filled`
/// + `dp_cells_reused` is Σ|q|·|t| over the swept models, the spine-suffix
/// memoization moving well over half of it into `dp_cells_reused`;
/// `dp_words_folded` / `dp_rows_skipped` report the fold work and the leaf
/// rows that skipped it.
void BM_CoNP_IncrementalSweep(benchmark::State& state) {
  int32_t n = static_cast<int32_t>(state.range(0));
  LabelPool pool;
  ConpFamilyInstance inst = BuildConpFamily(n, &pool);
  ContainmentOptions options;
  options.bound = ContainmentOptions::Bound::kAggressive;
  options.force_canonical = true;
  EngineContext ctx;
  int64_t decided = 0;
  for (auto _ : state) {
    ContainmentResult r =
        Contains(inst.p, inst.q_yes, Mode::kWeak, &pool, &ctx, options);
    benchmark::DoNotOptimize(r.contained);
    if (!r.contained) {
      state.SkipWithError("family instance must be contained");
      return;
    }
    ++decided;
  }
  // One decision per iteration: average the context's running totals.
  auto per_decision = [&ctx](const std::atomic<int64_t> EngineStats::*stat) {
    const int64_t total = (ctx.stats().*stat).load(std::memory_order_relaxed);
    return benchmark::Counter(static_cast<double>(total),
                              benchmark::Counter::kAvgIterations);
  };
  state.counters["branches"] = n;
  state.counters["decisions"] = static_cast<double>(decided);
  state.counters["dp_cells_filled"] =
      per_decision(&EngineStats::dp_cells_filled);
  state.counters["dp_cells_reused"] =
      per_decision(&EngineStats::dp_cells_reused);
  state.counters["dp_words_folded"] =
      per_decision(&EngineStats::dp_words_folded);
  state.counters["dp_rows_skipped"] =
      per_decision(&EngineStats::dp_rows_skipped);
  state.counters["trees_rebuilt_from_spine"] =
      per_decision(&EngineStats::trees_rebuilt_from_spine);
}
BENCHMARK(BM_CoNP_IncrementalSweep)->ArgsProduct({{4, 5, 6, 7}, {1}, {1}});

/// Same cell, non-contained side: the witness is found without a full sweep.
void BM_CoNP_CounterexampleSearch(benchmark::State& state) {
  int32_t n = static_cast<int32_t>(state.range(0));
  LabelPool pool;
  ConpFamilyInstance inst = BuildConpFamily(n, &pool);
  for (auto _ : state) {
    ContainmentResult r = Contains(inst.p, inst.q_no, Mode::kWeak, &pool);
    benchmark::DoNotOptimize(r.contained);
  }
  state.counters["branches"] = n;
}
BENCHMARK(BM_CoNP_CounterexampleSearch)->Arg(2)->Arg(6)->Arg(10);

}  // namespace
}  // namespace tpc

BENCHMARK_MAIN();
