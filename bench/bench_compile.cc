// Pattern compilation (src/compile/): compile latency, per-decision DP work
// units, and steady-state amortization on a skewed stream.
//
// The acceptance criteria this suite pins:
//
//   * BM_Compile_SweepWorkCompiled — a chain-heavy canonical-model sweep
//     whose member is compiled.  The exported `folded_per_decision` counter
//     (dp_words_folded / decisions) stays small because canonical models are
//     dominated by ⊥-chain spines and the compiled chain tile folds *zero*
//     words per single-child node, where the generic kernel folds two per
//     child.
//   * BM_Compile_SweepWorkGeneric — the oversize row: a sweep whose member
//     has more than 64 nodes, so every tree runs the generic DP (the
//     `programs_compiled` counter must stay 0).
//   * BM_Compile_HotExec{Compiled,Generic} — the single-tree hot-pattern
//     shape (the service probe path): one compiled program re-executed by
//     the column executor against one canonical model, vs a fresh generic
//     matcher per decision.
//   * BM_Compile_ZipfSteadyState — a warm query service over a zipf stream
//     with compilation on.  The exported `programs_compiled_steady` counter
//     is the number of compiles in the *timed* region; steady state must
//     not compile (the pool serves every hot pattern), which is the
//     amortization argument: compile cost is paid once during warmup and is
//     0 (< 1%) of steady-state stream cost.  `BM_Compile_Latency` gives the
//     per-compile nanoseconds for bounding the warmup cost offline.
//
// Every decision loop replays expected verdicts; a flipped answer aborts
// via SkipWithError (a faster matcher that changes verdicts is a bug).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "base/label.h"
#include "compile/matcher_program.h"
#include "contain/containment.h"
#include "engine/engine.h"
#include "gen/random_instances.h"
#include "match/embedding.h"
#include "pattern/canonical.h"
#include "pattern/tpq_parser.h"
#include "service/query_service.h"

namespace tpc {
namespace {

/// A sweep benchmark pair.
struct SweepPair {
  LabelPool pool;
  Tpq p;
  Tpq q;
};

/// The chain-heavy pair: three descendant edges in p make the sweep
/// enumerate (bound+1)^3 canonical models whose shape is almost entirely
/// ⊥-chain spine, and q stays under the 64-node program model.
SweepPair MakeSweepPair() {
  SweepPair out;
  out.p = MustParseTpq("a//b[c]//d//e", &out.pool);
  out.q = MustParseTpq("a//b//e", &out.pool);
  return out;
}

/// The oversize pair: q repeats a branch that every canonical model of p
/// matches until it passes the 64-node program model, so the sweep runs
/// the generic DP on every tree.
SweepPair MakeOversizeSweepPair() {
  SweepPair out;
  out.p = MustParseTpq("a//b[c]//d//e", &out.pool);
  std::string q = "a";
  for (int i = 0; i < 22; ++i) q += "[//*/*//e]";
  out.q = MustParseTpq(q.c_str(), &out.pool);
  return out;
}

void RunSweepWork(benchmark::State& state, SweepPair* pair,
                  ContainmentOptions::Bound bound) {
  ContainmentOptions options;
  options.force_canonical = true;
  options.bound = bound;
  EngineContext ctx;
  int64_t decisions = 0;
  bool expected = false;
  bool first = true;
  for (auto _ : state) {
    ContainmentResult r =
        Contains(pair->p, pair->q, Mode::kWeak, &pair->pool, &ctx, options);
    if (r.outcome != Outcome::kDecided) {
      state.SkipWithError("sweep undecided");
      return;
    }
    if (first) {
      expected = r.contained;
      first = false;
    } else if (r.contained != expected) {
      state.SkipWithError("sweep changed a verdict");
      return;
    }
    ++decisions;
    benchmark::DoNotOptimize(r.contained);
  }
  const EngineStats& stats = ctx.stats();
  if (decisions > 0) {
    state.counters["folded_per_decision"] = static_cast<double>(
        stats.dp_words_folded.load(std::memory_order_relaxed) / decisions);
    state.counters["trees_per_decision"] = static_cast<double>(
        stats.canonical_trees_enumerated.load(std::memory_order_relaxed) /
        decisions);
  }
  state.counters["programs_compiled"] = static_cast<double>(
      stats.programs_compiled.load(std::memory_order_relaxed));
  state.SetItemsProcessed(decisions);
}

void BM_Compile_SweepWorkCompiled(benchmark::State& state) {
  // The safe bound (|q|+1) keeps the chains long enough to be
  // chain-dominated, which is the workload the chain tile exists for.
  SweepPair pair = MakeSweepPair();
  RunSweepWork(state, &pair, ContainmentOptions::Bound::kSafe);
}
BENCHMARK(BM_Compile_SweepWorkCompiled)->Unit(benchmark::kMillisecond);

void BM_Compile_SweepWorkGeneric(benchmark::State& state) {
  SweepPair pair = MakeOversizeSweepPair();
  if (MatcherProgram::Compilable(pair.q)) {
    state.SkipWithError("pattern must be oversize");
    return;
  }
  // The aggressive bound (longest wildcard chain of q, plus one) keeps the
  // oversize sweep at 4^3 models.
  RunSweepWork(state, &pair, ContainmentOptions::Bound::kAggressive);
}
BENCHMARK(BM_Compile_SweepWorkGeneric)->Unit(benchmark::kMillisecond);

/// Hot-pattern single-tree decisions: the canonical model every probe hits.
void RunHotExec(benchmark::State& state, bool compiled) {
  LabelPool pool;
  Tpq q = MustParseTpq("a//b[c//d]//e", &pool);
  Tpq p = MustParseTpq("a//b[c//d]//e//e", &pool);
  std::vector<int32_t> lengths(DescendantEdges(p).size(), 6);
  Tree t = CanonicalTree(p, lengths, pool.Fresh("_bot"));
  EngineStats stats;
  auto program = MatcherProgram::Compile(q, nullptr, &stats);
  if (program == nullptr) {
    state.SkipWithError("pattern must be compilable");
    return;
  }
  ProgramSweep exec;
  exec.EvalFull(*program, t, nullptr);
  const bool expected = exec.MatchesWeak();
  int64_t decisions = 0;
  for (auto _ : state) {
    bool weak;
    if (compiled) {
      exec.EvalFull(*program, t, &stats);
      weak = exec.MatchesWeak();
    } else {
      Matcher matcher(q, t, &stats);
      weak = matcher.MatchesWeak();
    }
    if (weak != expected) {
      state.SkipWithError("verdict flipped");
      return;
    }
    ++decisions;
    benchmark::DoNotOptimize(weak);
  }
  if (decisions > 0) {
    state.counters["folded_per_decision"] = static_cast<double>(
        stats.dp_words_folded.load(std::memory_order_relaxed) / decisions);
  }
  state.SetItemsProcessed(decisions);
}

void BM_Compile_HotExecCompiled(benchmark::State& state) {
  RunHotExec(state, /*compiled=*/true);
}
BENCHMARK(BM_Compile_HotExecCompiled);

void BM_Compile_HotExecGeneric(benchmark::State& state) {
  RunHotExec(state, /*compiled=*/false);
}
BENCHMARK(BM_Compile_HotExecGeneric);

void BM_Compile_Latency(benchmark::State& state) {
  LabelPool pool;
  std::mt19937 rng(1007);
  std::vector<LabelId> labels = MakeLabels(3, &pool);
  RandomTpqOptions qopts;
  qopts.labels = labels;
  qopts.fragment = fragments::kTpqFull;
  qopts.size = static_cast<int32_t>(state.range(0));
  std::vector<Tpq> patterns;
  for (int i = 0; i < 64; ++i) patterns.push_back(RandomTpq(qopts, &rng));
  size_t next = 0;
  for (auto _ : state) {
    auto program =
        MatcherProgram::Compile(patterns[next++ % patterns.size()], nullptr);
    if (program == nullptr) {
      state.SkipWithError("compile refused");
      return;
    }
    benchmark::DoNotOptimize(program.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Compile_Latency)->Arg(8)->Arg(32)->Arg(64);

/// Steady-state amortization: a warm service over a zipf-sampled stream.
/// The timed region must not compile anything — every hot pattern is served
/// from the program pool — so compile cost is strictly warmup.
void BM_Compile_ZipfSteadyState(benchmark::State& state) {
  LabelPool pool;
  std::mt19937 rng(20150605);
  std::vector<LabelId> labels = MakeLabels(3, &pool);
  std::vector<QueryService::BatchItem> distinct;
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
    distinct.push_back(std::move(item));
  }
  std::vector<double> weights(distinct.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), 1.07);
  }
  std::discrete_distribution<size_t> zipf(weights.begin(), weights.end());
  std::vector<QueryService::BatchItem> stream;
  for (int i = 0; i < 512; ++i) stream.push_back(distinct[zipf(rng)]);

  EngineContext ctx;
  ServiceOptions sopts;
  sopts.containment.bound = ContainmentOptions::Bound::kAggressive;
  QueryService service(&pool, &ctx, sopts);
  std::vector<ContainmentResult> warm;
  for (const auto& item : stream) {
    warm.push_back(service.Contains(item.p, item.q, item.mode));
  }
  const int64_t compiled_warmup =
      ctx.stats().programs_compiled.load(std::memory_order_relaxed);

  for (auto _ : state) {
    for (size_t i = 0; i < stream.size(); ++i) {
      ContainmentResult r =
          service.Contains(stream[i].p, stream[i].q, stream[i].mode);
      if (r.outcome != Outcome::kDecided ||
          r.contained != warm[i].contained) {
        state.SkipWithError("steady state changed a verdict");
        return;
      }
      benchmark::DoNotOptimize(r.contained);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
  const EngineStats& stats = ctx.stats();
  state.counters["programs_compiled_warmup"] =
      static_cast<double>(compiled_warmup);
  state.counters["programs_compiled_steady"] = static_cast<double>(
      stats.programs_compiled.load(std::memory_order_relaxed) -
      compiled_warmup);
  state.counters["program_exec_hits"] = static_cast<double>(
      stats.program_exec_hits.load(std::memory_order_relaxed));
  state.counters["cache_hits"] = static_cast<double>(
      stats.cache_hits.load(std::memory_order_relaxed));
}
BENCHMARK(BM_Compile_ZipfSteadyState)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tpc

BENCHMARK_MAIN();
