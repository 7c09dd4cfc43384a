// Query-service fast path on a skewed workload.
//
// Production containment traffic is repetitive: the same (p, q) pairs recur
// with a zipf-like popularity profile.  This benchmark measures the three
// layers the service stacks on top of the plain dispatcher:
//
//   * BM_Service_ZipfBaseline    — cache and prefilters off; every query
//     re-runs the dispatcher (the paper-faithful cost);
//   * BM_Service_ZipfColdFastPath — all layers on, cache built from scratch
//     every iteration (first-contact cost of the fast path);
//   * BM_Service_ZipfWarmFastPath — all layers on, cache pre-warmed; the
//     steady-state serving cost.  The acceptance target is >= 10x baseline.
//
// The coNP pair (ConpFamilyInstance p_n, r/*/*/*/c) isolates the probe
// prefilter: the query asks for a c at depth exactly 4 below the root, so a
// canonical model matches iff some chain is at its minimum length.  The
// ascending sweep therefore wades through ~B^(n-1) matching models before
// the first counterexample, while the seeded all-ones probe (every chain at
// maximum length) refutes on the very first tree — an exponential-to-O(1)
// gap with a cold cache.
//
// Every timed loop replays the expected verdicts; a flipped answer aborts
// the benchmark via SkipWithError (a fast path that changes verdicts is a
// bug, not a speedup).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
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

/// The aggressive (wildcard-chain) sweep bound, used consistently for the
/// reference verdicts and the service under test.
ContainmentOptions AggressiveOptions() {
  ContainmentOptions options;
  options.bound = ContainmentOptions::Bound::kAggressive;
  return options;
}

struct ServiceWorkload {
  LabelPool pool;
  std::vector<QueryService::BatchItem> distinct;  // the pair universe
  // The zipf-sampled stream, chopped into arrival batches of 32 queries:
  // batch dedup folds repeats within one arrival, but only the cache can
  // carry a verdict across arrivals (which is what steady-state serving
  // looks like — and what the baseline has to pay for every time).
  std::vector<std::vector<QueryService::BatchItem>> batches;
  std::vector<std::vector<bool>> expected;  // per batch, per position
};

/// A universe of 28 distinct pairs — the coNP family's contained and
/// refuted queries at n = 4 and 5 plus random full-fragment pairs — sampled
/// into a 1024-query stream with zipf(1.07) popularity.  The coNP pairs are
/// pinned to hot ranks: a verdict cache earns its keep exactly when the
/// recurring queries are the expensive ones, so the skewed head of the
/// distribution is where the hard instances live.
ServiceWorkload MakeServiceWorkload() {
  ServiceWorkload w;
  std::mt19937 rng(20150605);  // PODS'15 vintage

  for (int32_t n : {4, 5}) {
    ConpFamilyInstance inst = BuildConpFamily(n, &w.pool);
    w.distinct.push_back({inst.p, inst.q_yes, Mode::kWeak});
    w.distinct.push_back({inst.p, inst.q_no, Mode::kWeak});
  }
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
    w.distinct.push_back(std::move(item));
  }

  // Zipf popularity: the four coNP pairs occupy ranks 0/2/5/9, the random
  // pairs are shuffled over the remaining ranks.
  std::vector<size_t> rank_of(w.distinct.size());
  const std::vector<size_t> conp_ranks = {0, 2, 5, 9};
  for (size_t i = 0; i < 4; ++i) rank_of[i] = conp_ranks[i];
  std::vector<size_t> rest;
  for (size_t r = 0; r < w.distinct.size(); ++r) {
    if (std::find(conp_ranks.begin(), conp_ranks.end(), r) ==
        conp_ranks.end()) {
      rest.push_back(r);
    }
  }
  std::shuffle(rest.begin(), rest.end(), rng);
  for (size_t i = 4; i < w.distinct.size(); ++i) rank_of[i] = rest[i - 4];
  std::vector<double> weights(w.distinct.size());
  for (size_t i = 0; i < w.distinct.size(); ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(rank_of[i] + 1), 1.07);
  }
  std::discrete_distribution<size_t> zipf(weights.begin(), weights.end());

  EngineContext ref_ctx;
  std::vector<bool> verdict(w.distinct.size());
  for (size_t i = 0; i < w.distinct.size(); ++i) {
    const QueryService::BatchItem& item = w.distinct[i];
    ContainmentResult r = Contains(item.p, item.q, item.mode, &w.pool,
                                   &ref_ctx, AggressiveOptions());
    verdict[i] = r.outcome == Outcome::kDecided && r.contained;
  }
  for (int b = 0; b < 32; ++b) {
    std::vector<QueryService::BatchItem> batch;
    std::vector<bool> batch_expected;
    for (int i = 0; i < 32; ++i) {
      size_t pick = zipf(rng);
      batch.push_back(w.distinct[pick]);
      batch_expected.push_back(verdict[pick]);
    }
    w.batches.push_back(std::move(batch));
    w.expected.push_back(std::move(batch_expected));
  }
  return w;
}

/// Replays the stream's expected verdicts; aborts the benchmark on any
/// disagreement so a broken fast path can never report a throughput win.
bool VerdictsMatch(benchmark::State& state,
                   const std::vector<ContainmentResult>& results,
                   const std::vector<bool>& expected) {
  if (results.size() != expected.size()) {
    state.SkipWithError("result count mismatch");
    return false;
  }
  for (size_t i = 0; i < results.size(); ++i) {
    if (results[i].outcome != Outcome::kDecided ||
        results[i].contained != expected[i]) {
      state.SkipWithError("fast path changed a verdict");
      return false;
    }
  }
  return true;
}

ServiceOptions MakeServiceOptions(bool use_cache, bool use_prefilters) {
  ServiceOptions options;
  options.use_cache = use_cache;
  options.use_prefilters = use_prefilters;
  options.containment = AggressiveOptions();
  return options;
}

void ExportServiceCounters(benchmark::State& state, EngineContext* ctx) {
  const EngineStats& stats = ctx->stats();
  state.counters["cache_hits"] = static_cast<double>(
      stats.cache_hits.load(std::memory_order_relaxed));
  state.counters["prefilter_accepts"] = static_cast<double>(
      stats.prefilter_accepts.load(std::memory_order_relaxed));
  state.counters["prefilter_refutes"] = static_cast<double>(
      stats.prefilter_refutes.load(std::memory_order_relaxed));
  state.counters["batch_deduped"] = static_cast<double>(
      stats.batch_deduped.load(std::memory_order_relaxed));
  state.counters["trees"] = static_cast<double>(
      stats.canonical_trees_enumerated.load(std::memory_order_relaxed));
  state.counters["dp_words_folded"] = static_cast<double>(
      stats.dp_words_folded.load(std::memory_order_relaxed));
  state.counters["programs_compiled"] = static_cast<double>(
      stats.programs_compiled.load(std::memory_order_relaxed));
  state.counters["program_exec_hits"] = static_cast<double>(
      stats.program_exec_hits.load(std::memory_order_relaxed));
}

/// One pass over the whole stream, batch by batch.  Returns false (after
/// flagging the error on `state`) on any verdict disagreement.
bool RunStreamOnce(benchmark::State& state, QueryService* service,
                   const ServiceWorkload& w) {
  for (size_t b = 0; b < w.batches.size(); ++b) {
    std::vector<ContainmentResult> results =
        service->ContainsBatch(w.batches[b]);
    if (!VerdictsMatch(state, results, w.expected[b])) return false;
    benchmark::DoNotOptimize(results.data());
  }
  return true;
}

int64_t StreamSize(const ServiceWorkload& w) {
  int64_t total = 0;
  for (const auto& batch : w.batches) total += batch.size();
  return total;
}

void BM_Service_ZipfBaseline(benchmark::State& state) {
  ServiceWorkload w = MakeServiceWorkload();
  EngineContext ctx;
  QueryService service(&w.pool, &ctx, MakeServiceOptions(false, false));
  for (auto _ : state) {
    if (!RunStreamOnce(state, &service, w)) return;
  }
  state.SetItemsProcessed(state.iterations() * StreamSize(w));
  ExportServiceCounters(state, &ctx);
}
BENCHMARK(BM_Service_ZipfBaseline)->Unit(benchmark::kMillisecond);

void BM_Service_ZipfColdFastPath(benchmark::State& state) {
  ServiceWorkload w = MakeServiceWorkload();
  EngineContext ctx;
  for (auto _ : state) {
    // A fresh service per iteration: the cache, minimize memo and probe
    // book all start empty, so this times first-contact traffic.
    QueryService service(&w.pool, &ctx, MakeServiceOptions(true, true));
    if (!RunStreamOnce(state, &service, w)) return;
  }
  state.SetItemsProcessed(state.iterations() * StreamSize(w));
  ExportServiceCounters(state, &ctx);
}
BENCHMARK(BM_Service_ZipfColdFastPath)->Unit(benchmark::kMillisecond);

void BM_Service_ZipfWarmFastPath(benchmark::State& state) {
  ServiceWorkload w = MakeServiceWorkload();
  EngineContext ctx;
  QueryService service(&w.pool, &ctx, MakeServiceOptions(true, true));
  // Warm the cache outside the timed region.
  if (!RunStreamOnce(state, &service, w)) return;
  for (auto _ : state) {
    if (!RunStreamOnce(state, &service, w)) return;
  }
  state.SetItemsProcessed(state.iterations() * StreamSize(w));
  ExportServiceCounters(state, &ctx);
}
BENCHMARK(BM_Service_ZipfWarmFastPath)->Unit(benchmark::kMillisecond);

/// The probe-prefilter showcase pair: p_n from the coNP family and
/// q = r/*/*/*/c ("a c at depth exactly 4 below the root"), matched by a
/// canonical model iff some chain sits at its minimum length.
struct ConpProbePair {
  LabelPool pool;
  Tpq p;
  Tpq q;
};

ConpProbePair MakeConpProbePair(int32_t n) {
  ConpProbePair out;
  ConpFamilyInstance inst = BuildConpFamily(n, &out.pool);
  out.p = std::move(inst.p);
  Tpq q(out.pool.Intern("r"));
  NodeId v = 0;
  for (int i = 0; i < 3; ++i) {
    v = q.AddChild(v, kWildcard, EdgeKind::kChild);
  }
  q.AddChild(v, out.pool.Intern("c"), EdgeKind::kChild);
  out.q = std::move(q);
  return out;
}

void RunConpRefute(benchmark::State& state, bool use_prefilters) {
  ConpProbePair pair = MakeConpProbePair(static_cast<int32_t>(state.range(0)));
  EngineContext ctx;
  ServiceOptions options =
      MakeServiceOptions(/*use_cache=*/false, use_prefilters);
  // Without the probes the pair goes to the dispatcher; force the sweep
  // there (its default type set refutes this pair with one fold).
  options.containment.force_canonical = !use_prefilters;
  QueryService service(&pair.pool, &ctx, options);
  for (auto _ : state) {
    ContainmentResult r = service.Contains(pair.p, pair.q, Mode::kWeak);
    if (r.outcome != Outcome::kDecided || r.contained) {
      state.SkipWithError("pair must be refuted");
      return;
    }
    benchmark::DoNotOptimize(r.contained);
  }
  state.SetItemsProcessed(state.iterations());
  ExportServiceCounters(state, &ctx);
}

void BM_Service_ConpRefuteSweep(benchmark::State& state) {
  RunConpRefute(state, /*use_prefilters=*/false);
}
BENCHMARK(BM_Service_ConpRefuteSweep)->Arg(4)->Arg(6)->Arg(8);

void BM_Service_ConpRefuteProbe(benchmark::State& state) {
  RunConpRefute(state, /*use_prefilters=*/true);
}
BENCHMARK(BM_Service_ConpRefuteProbe)->Arg(4)->Arg(6)->Arg(8);

}  // namespace
}  // namespace tpc

BENCHMARK_MAIN();
