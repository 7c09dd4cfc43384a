// Tables 4 and 5 — containment of TPQ fragments w.r.t. a DTD.
//
// Polynomial cells (Theorem 6.1(1)-(3)): path queries contained in
// wildcard-restricted right-hand sides, decided by the engine and by the
// explicit NTA product (for the satisfiability core).
//
// coNP-complete cells (Theorems 6.3/6.4): branching on the left makes
// containment with a fixed DTD coNP-hard because satisfiability of TPQ(/)
// already is (the 4-PARTITION machinery); the series frames unsatisfiable
// instances as containment questions.
//
// EXPTIME-complete cells (Theorem 6.6): left PQ(/), right PQ(/,*) with a
// *fixed* DTD via the trionimo-tiling reduction of Appendix E.1.2.  Solvable
// instances terminate when the engine finds the strategy-encoding
// counterexample; the configuration counts grow steeply with the row length
// n — the reproduced EXPTIME behaviour.

#include <benchmark/benchmark.h>

#include <string>

#include "automata/path_complement.h"
#include "base/label.h"
#include "dtd/dtd.h"
#include "engine/engine.h"
#include "gen/random_instances.h"
#include "pattern/tpq_parser.h"
#include "reductions/partition.h"
#include "schema/schema_engine.h"
#include "tiling/reduction.h"
#include "tiling/tiling.h"

namespace tpc {
namespace {

/// A total summed over the benchmark's iterations, reported per decision
/// (every iteration decides exactly one instance).
benchmark::Counter PerDecision(int64_t total) {
  return benchmark::Counter(static_cast<double>(total),
                            benchmark::Counter::kAvgIterations);
}

// ------------------------------------------------- P cells (Theorem 6.1)

void BM_P_PathInPathNoWildcard(benchmark::State& state) {
  // Theorem 6.1(1): PQ(/,//,*) in PQ(/,//) w.r.t. a DTD.
  int32_t size = static_cast<int32_t>(state.range(0));
  LabelPool pool;
  std::mt19937 rng(41 + size);
  std::vector<LabelId> labels = MakeLabels(4, &pool);
  RandomDtdOptions dopts;
  dopts.labels = labels;
  Dtd dtd = RandomDtd(dopts, &rng);
  while (dtd.IsEmptyLanguage()) dtd = RandomDtd(dopts, &rng);
  RandomTpqOptions popts;
  popts.labels = labels;
  popts.fragment = fragments::kPqFull;
  popts.size = size;
  RandomTpqOptions qopts = popts;
  qopts.fragment = fragments::kPqDesc;  // wildcard-free right paths
  std::vector<Tpq> ps, qs;
  for (int i = 0; i < 12; ++i) {
    ps.push_back(RandomTpq(popts, &rng));
    qs.push_back(RandomTpq(qopts, &rng));
  }
  size_t i = 0;
  int64_t configs = 0;
  EngineContext ctx;
  for (auto _ : state) {
    SchemaDecision r = ContainedWithDtd(ps[i % ps.size()], qs[i % qs.size()],
                                        Mode::kWeak, dtd, &ctx);
    benchmark::DoNotOptimize(r.yes);
    configs += r.configurations;
    ++i;
  }
  state.counters["pattern_nodes"] = size;
  state.counters["engine_configs"] = PerDecision(configs);
  state.counters["horizontal_nodes"] = PerDecision(
      ctx.stats().horizontal_nodes.load(std::memory_order_relaxed));
}
BENCHMARK(BM_P_PathInPathNoWildcard)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_P_PathInPathViaAutomata(benchmark::State& state) {
  // The same Theorem 6.1(1) cell through the explicit automata route:
  // DTD-NTA ∩ p-NTA ∩ ¬q-NTA (Lemma E.1), emptiness via smallest witness.
  int32_t size = static_cast<int32_t>(state.range(0));
  LabelPool pool;
  std::mt19937 rng(41 + size);  // same workload as the engine variant
  std::vector<LabelId> labels = MakeLabels(4, &pool);
  RandomDtdOptions dopts;
  dopts.labels = labels;
  Dtd dtd = RandomDtd(dopts, &rng);
  while (dtd.IsEmptyLanguage()) dtd = RandomDtd(dopts, &rng);
  RandomTpqOptions popts;
  popts.labels = labels;
  popts.fragment = fragments::kPqFull;
  popts.size = size;
  RandomTpqOptions qopts = popts;
  qopts.fragment = fragments::kPqDesc;
  std::vector<Tpq> ps, qs;
  for (int i = 0; i < 12; ++i) {
    ps.push_back(RandomTpq(popts, &rng));
    qs.push_back(RandomTpq(qopts, &rng));
  }
  size_t i = 0;
  int64_t states = 0;
  for (auto _ : state) {
    AutomataContainmentResult r = ContainedPathInPathViaAutomata(
        ps[i % ps.size()], qs[i % qs.size()], Mode::kWeak, dtd);
    benchmark::DoNotOptimize(r.contained);
    states += r.product_states;
    ++i;
  }
  state.counters["pattern_nodes"] = size;
  state.counters["product_states"] = PerDecision(states);
}
BENCHMARK(BM_P_PathInPathViaAutomata)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_P_PathInTpqNoWildcardStrong(benchmark::State& state) {
  // Theorem 6.1(3): S-containment of PQ(/,//,*) in TPQ(/,//) w.r.t. a DTD.
  int32_t size = static_cast<int32_t>(state.range(0));
  LabelPool pool;
  std::mt19937 rng(43 + size);
  std::vector<LabelId> labels = MakeLabels(4, &pool);
  RandomDtdOptions dopts;
  dopts.labels = labels;
  Dtd dtd = RandomDtd(dopts, &rng);
  while (dtd.IsEmptyLanguage()) dtd = RandomDtd(dopts, &rng);
  RandomTpqOptions popts;
  popts.labels = labels;
  popts.fragment = fragments::kPqFull;
  popts.size = size;
  RandomTpqOptions qopts = popts;
  qopts.fragment = fragments::kTpqChildDesc;
  std::vector<Tpq> ps, qs;
  for (int i = 0; i < 12; ++i) {
    ps.push_back(RandomTpq(popts, &rng));
    qs.push_back(RandomTpq(qopts, &rng));
  }
  size_t i = 0;
  EngineContext ctx;
  for (auto _ : state) {
    SchemaDecision r = ContainedWithDtd(ps[i % ps.size()], qs[i % qs.size()],
                                        Mode::kStrong, dtd, &ctx);
    benchmark::DoNotOptimize(r.yes);
    ++i;
  }
  state.counters["pattern_nodes"] = size;
  state.counters["det_states"] = PerDecision(
      ctx.stats().det_states_materialized.load(std::memory_order_relaxed));
}
BENCHMARK(BM_P_PathInTpqNoWildcardStrong)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// ------------------------------------------- coNP cells (Theorems 6.3/6.4)

void BM_CoNP_BranchingLeftFixedDtd(benchmark::State& state) {
  // Containment of TPQ(/) in an unsatisfiable right pattern w.r.t. the
  // fixed binary DTD holds iff the left pattern is unsatisfiable — the
  // 4-PARTITION hardness core (Theorem 6.3 via Theorem 4.2(2)).
  FourPartitionInstance inst;
  inst.log_target = 2;
  inst.log_groups4 = 1;
  inst.numbers = {3, 3, 2, 0, 0, 0, 0, 0};  // unsolvable, sum matches
  LabelPool pool;
  PartitionSatInstance sat = BuildPartitionReduction(inst, &pool);
  // Right pattern that nothing satisfying the DTD matches strongly.
  Tpq q = MustParseTpq("zzz", &pool);
  int64_t configs = 0;
  EngineContext ctx;
  for (auto _ : state) {
    SchemaDecision r =
        ContainedWithDtd(sat.p, q, Mode::kStrong, sat.dtd, &ctx);
    benchmark::DoNotOptimize(r.yes);
    configs += r.configurations;
    if (!r.yes) {
      state.SkipWithError("containment must hold: left side unsatisfiable");
      return;
    }
  }
  state.counters["pattern_nodes"] = sat.p.size();
  state.counters["engine_configs"] = PerDecision(configs);
}
BENCHMARK(BM_CoNP_BranchingLeftFixedDtd)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

// --------------------------------------- EXPTIME cells (Theorem 6.6)

void RunTilingInstance(benchmark::State& state, int32_t row_len,
                       bool solvable, bool antichain) {
  // A three-tile system: tile 0 can repeat or advance to final tiles.
  TriominoSystem s;
  s.num_tiles = 3;
  if (solvable) {
    for (Tile r = 0; r < 3; ++r) {
      s.constraints.push_back({0, r, 1});  // 0 -> final 1
      s.constraints.push_back({0, r, 2});  // 0 -> final 2
    }
  }
  std::vector<Tile> row(row_len, 0);
  LabelPool pool;
  TilingContainmentInstance inst = BuildTilingReduction(s, row, &pool);
  EngineLimits limits;
  limits.max_configurations = 100'000;
  limits.max_horizontal_nodes = 400'000;
  limits.max_milliseconds = 60'000;  // probe EXPTIME growth, bounded time
  SchemaEngineOptions options;
  options.antichain = antichain;
  int64_t configs = 0;
  bool decided = true;
  bool yes = true;
  EngineContext ctx;
  for (auto _ : state) {
    SchemaDecision r = ContainedWithDtd(inst.p, inst.q, Mode::kWeak, inst.dtd,
                                        &ctx, limits, options);
    benchmark::DoNotOptimize(r.yes);
    configs += r.configurations;
    decided = r.decided;
    yes = r.yes;
  }
  state.counters["row_len_n"] = row_len;
  state.counters["q_nodes"] = inst.q.size();
  state.counters["engine_configs"] = PerDecision(configs);
  state.counters["horizontal_nodes"] = PerDecision(
      ctx.stats().horizontal_nodes.load(std::memory_order_relaxed));
  state.counters["configs_subsumed"] = PerDecision(
      ctx.stats().configs_subsumed.load(std::memory_order_relaxed));
  state.counters["unions_memoized"] = PerDecision(
      ctx.stats().unions_memoized.load(std::memory_order_relaxed));
  state.counters["state_sets_interned"] = PerDecision(
      ctx.stats().state_sets_interned.load(std::memory_order_relaxed));
  state.counters["decided"] = decided ? 1 : 0;
  if (decided) {
    // Cross-check against the tiling solver (ground truth).
    bool has_solution = SolveLineTiling(s, row).has_value();
    state.counters["answer_matches_solver"] =
        (yes == !has_solution) ? 1 : 0;
  }
}

void BM_EXPTIME_TilingSolvable(benchmark::State& state) {
  RunTilingInstance(state, static_cast<int32_t>(state.range(0)), true, true);
}
BENCHMARK(BM_EXPTIME_TilingSolvable)
    ->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_EXPTIME_TilingUnsolvable(benchmark::State& state) {
  RunTilingInstance(state, static_cast<int32_t>(state.range(0)), false, true);
}
BENCHMARK(BM_EXPTIME_TilingUnsolvable)
    ->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond)->Iterations(1);

// A/B twins with subsumption pruning disabled: same instances and caps, so
// `engine_configs` directly measures how much the antichain shrinks the
// materialized state space.

void BM_EXPTIME_TilingSolvableNoAntichain(benchmark::State& state) {
  RunTilingInstance(state, static_cast<int32_t>(state.range(0)), true, false);
}
BENCHMARK(BM_EXPTIME_TilingSolvableNoAntichain)
    ->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_EXPTIME_TilingUnsolvableNoAntichain(benchmark::State& state) {
  RunTilingInstance(state, static_cast<int32_t>(state.range(0)), false, false);
}
BENCHMARK(BM_EXPTIME_TilingUnsolvableNoAntichain)
    ->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace tpc

BENCHMARK_MAIN();
