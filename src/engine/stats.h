// Instrumentation counters for the decision procedures.
//
// Every procedure family reports what it actually did — canonical trees
// enumerated, embedding DPs run, schema-engine configurations materialized,
// automata built — so callers can observe *which* complexity regime an
// instance landed in (Table 1's P cells barely move these; the coNP/EXPTIME
// cells light them up).  Counters are atomic: the parallel canonical sweep
// updates them from many workers.

#ifndef TPC_ENGINE_STATS_H_
#define TPC_ENGINE_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "engine/budget.h"

namespace tpc {

/// Number of dispatcher algorithms, mirroring `ContainmentAlgorithm` in
/// contain/containment.h (engine/ sits below contain/ and cannot name the
/// enum; containment.cc static_asserts the two stay in sync).
inline constexpr int kNumDispatchAlgorithms = 7;

/// JSON key for each dispatcher algorithm, indexed like the enum.
extern const char* const kDispatchAlgorithmNames[kNumDispatchAlgorithms];

/// Atomic counter block carried by an `EngineContext`.
struct EngineStats {
  // Containment without schema (src/contain).
  std::atomic<int64_t> canonical_trees_enumerated{0};
  std::atomic<int64_t> embeddings_attempted{0};
  std::atomic<int64_t> dp_cells_filled{0};
  /// DP cells whose columns the incremental sweep carried over unchanged
  /// from the previous canonical tree instead of recomputing them.
  std::atomic<int64_t> dp_cells_reused{0};
  /// Canonical trees rebuilt incrementally from the first changed spine
  /// (prefix kept) rather than from scratch.
  std::atomic<int64_t> trees_rebuilt_from_spine{0};
  /// uint64 words OR-folded from child DP rows into parent accumulators by
  /// the postorder matcher fill (both kernels fold the same way).
  std::atomic<int64_t> dp_words_folded{0};
  /// Leaf columns answered by the branch-free leaf kernel — no fold, no
  /// missing-bits scatter (word-parallel fill only).
  std::atomic<int64_t> dp_rows_skipped{0};
  std::atomic<int64_t> homomorphism_checks{0};
  /// Type-set route (contain/type_set.h): states the fold materialized
  /// (node transitions and ⊥-wraps) and child-edge union pairs it formed.
  /// Added once per decision.
  std::atomic<int64_t> type_set_states{0};
  std::atomic<int64_t> type_set_unions{0};

  // Schema-aware engine (src/schema) and automata substrate (src/automata).
  std::atomic<int64_t> schema_configurations{0};
  std::atomic<int64_t> horizontal_nodes{0};
  std::atomic<int64_t> det_states_materialized{0};
  std::atomic<int64_t> nta_states_built{0};
  std::atomic<int64_t> nta_transitions_built{0};
  /// Configurations dropped on arrival or deactivated later because an
  /// antichain-maximal configuration subsumes them.
  std::atomic<int64_t> configs_subsumed{0};
  /// Pairwise Sat/Below-set unions answered from the interner's memo table.
  std::atomic<int64_t> unions_memoized{0};
  /// Distinct Sat/Below state sets interned across a decision's interners.
  std::atomic<int64_t> state_sets_interned{0};

  // Graph semantics (src/graphdb).
  std::atomic<int64_t> graph_dp_cells{0};

  // Query-service fast path (src/service).
  /// Requests answered from the verdict cache (after witness replay
  /// validation for refutations).
  std::atomic<int64_t> cache_hits{0};
  /// Verdict-cache entries evicted under the cache's byte budget.
  std::atomic<int64_t> cache_evictions{0};
  /// Requests accepted early by the sound q -> p homomorphism prefilter.
  std::atomic<int64_t> prefilter_accepts{0};
  /// Requests refuted early by a canonical-model probe (all-ones vector or
  /// a recycled counterexample length vector).
  std::atomic<int64_t> prefilter_refutes{0};
  /// Batch requests answered by another request in the same batch (same
  /// canonical pattern pair and mode).
  std::atomic<int64_t> batch_deduped{0};

  // Persistent warm-start tier (src/persist + the service lattice).
  /// Cache misses answered by stitching cached "contained" edges through the
  /// subsumption lattice (p ⊑ r and r ⊑ q cached ⇒ p ⊑ q).
  std::atomic<int64_t> lattice_stitch_hits{0};
  /// Cache misses refuted by replaying a lattice neighbour's borrowed
  /// counterexample witness against the live pair (replay-validated, so a
  /// borrowed witness can never fake a refutation).
  std::atomic<int64_t> witness_borrow_refutes{0};

  // Grouped canonical sweep (`ContainsGroup` under `force_canonical`).
  /// Shared sweeps formed: one per canonical-route group of >= 2 members
  /// decided over a single enumeration of the shared pattern's models.
  std::atomic<int64_t> sweep_groups_formed{0};
  /// Members those shared sweeps carried (mean group size =
  /// sweep_group_members / sweep_groups_formed).
  std::atomic<int64_t> sweep_group_members{0};
  /// Members retired (first counterexample or per-member budget trip) while
  /// at least one groupmate kept sweeping — the undecided-mask payoff.
  std::atomic<int64_t> group_members_retired_early{0};
  /// Extra members each enumerated canonical tree served beyond the first
  /// (a solo sweep scores 0; a group of k undecided members scores k-1 per
  /// tree) — the amortization the grouping buys.
  std::atomic<int64_t> trees_shared_per_decision{0};

  // Compiled matcher programs (src/compile).
  /// TPQs lowered into flat `MatcherProgram` bytecode by the pattern
  /// compiler (cache misses past the hotness threshold, plus the per-sweep
  /// compiles of the canonical enumeration).
  std::atomic<int64_t> programs_compiled{0};
  /// Tree evaluations answered by a compiled program instead of the generic
  /// `MatcherWorkspace` fill.
  std::atomic<int64_t> program_exec_hits{0};
  /// Program-pool entries evicted under the pool's byte bound.
  std::atomic<int64_t> program_cache_evictions{0};

  // Dispatcher choices, indexed by `ContainmentAlgorithm`.
  std::atomic<int64_t> dispatch[kNumDispatchAlgorithms]{};

  /// Zeroes every counter.
  void Reset();

  /// Adds every counter of `other` into this block.  The serve daemon gives
  /// each worker its own `EngineContext` (per-tenant budgets must not share
  /// a step counter), so the STATS frame folds the worker blocks into one
  /// aggregate dump with this.  Relaxed reads: counters merged while
  /// workers run are a consistent-enough snapshot for observability.
  void MergeFrom(const EngineStats& other);

  /// One-line JSON object with every counter plus the budget's resource
  /// readings (steps, tracked bytes and peak, exhaustion reason) so one
  /// dump describes the whole run.  Counters are grouped — `engine`, `cache`,
  /// `persist`, `group`, `compile`, `dispatch` — and sorted by name within
  /// each group, so dumps
  /// diff stably across counter additions (bench reports rely on this).
  std::string ToJson(const Budget& budget) const;
};

}  // namespace tpc

#endif  // TPC_ENGINE_STATS_H_
