// Containment of tree pattern queries without schema information
// (Section 3 and Appendix B of the paper).
//
// The public entry point is `Contains(p, q, mode)`, which dispatches on the
// fragments of p and q:
//
//   * q wildcard-free (Thm 3.1 region, [34]): homomorphism test — for such q
//     an embedding into the all-chains-length-1 canonical tree of p never
//     touches a ⊥ node, so it is exactly a homomorphism q -> p.
//   * q child-edge-free (Thm 3.2(3)):  test the minimal canonical tree of p
//     (the `corr` argument of Appendix B.1.4 needs only ancestorship).
//   * p descendant-free (Thm 3.1(2), 3.2(4)): p has a unique canonical tree.
//   * p a path query (Thm 3.2(1)):     island recursion (Lemmas B.1, B.2).
//   * p child-edge-free (Thm 3.2(2)):  singular-pattern DP (Claim B.4).
//   * otherwise:                       bounded canonical-model enumeration
//     (coNP procedure of Miklau & Suciu; exponential only in the number of
//     descendant edges of p — and the problem is coNP-complete here,
//     Thm 3.3).
//
// Strong containment is reduced to weak containment by the (schema-free)
// root-relabelling of Observation 2.3.

#ifndef TPC_CONTAIN_CONTAINMENT_H_
#define TPC_CONTAIN_CONTAINMENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/label.h"
#include "engine/engine.h"
#include "pattern/tpq.h"
#include "tree/tree.h"

namespace tpc {

class ProgramCache;

enum class Mode { kWeak, kStrong };

/// Which decision procedure the dispatcher selected (for logging, tests and
/// the Table 1 benchmarks).
enum class ContainmentAlgorithm {
  kHomomorphism,          // q wildcard-free
  kMinimalCanonical,      // q child-edge-free (Theorem 3.2(3))
  kSingleCanonical,       // p descendant-free
  kPathInTpq,             // p path query (Theorem 3.2(1))
  kChildFreeInTpq,        // p child-edge-free (Theorem 3.2(2))
  kCanonicalEnumeration,  // general coNP procedure
};

struct ContainmentResult {
  bool contained = false;
  /// A tree in L(p) \ L(q) when not contained and the selected procedure
  /// produces witnesses (the canonical-model based procedures do; the
  /// recursive P algorithms of Theorems 3.2(1)/(2) do not).
  std::optional<Tree> counterexample;
  /// The spine chain-length vector (one entry per descendant edge of p, in
  /// document order) whose canonical model the counterexample is.  Set
  /// whenever `counterexample` comes from a canonical model — including the
  /// parallel sweep, the homomorphism route (all-ones vector) and the
  /// single/minimal canonical routes.
  std::optional<std::vector<int32_t>> counterexample_lengths;
  ContainmentAlgorithm algorithm = ContainmentAlgorithm::kCanonicalEnumeration;
  /// `kResourceExhausted` when the engine budget ran out before the answer
  /// was certain; `contained` is then meaningless.
  Outcome outcome = Outcome::kDecided;
  /// Which resource ran out (kNone while decided): steps, deadline, tracked
  /// memory, or a caller's `EngineContext::Cancel()`.
  ExhaustionReason reason = ExhaustionReason::kNone;
};

/// Options controlling the fallback canonical-model procedure.
struct ContainmentOptions {
  /// Chain-length bound for canonical models.  kSafe uses |q|+1, which we
  /// prove sufficient by a counting argument; kAggressive uses the
  /// Miklau-Suciu style bound (longest wildcard chain of q) + 1.
  enum class Bound { kSafe, kAggressive };
  Bound bound = Bound::kSafe;
  /// If true, the dispatcher may not route to the fragment-specific P
  /// algorithms (used by tests to force the general procedure).
  bool force_canonical = false;
  /// If true (default) the canonical sweep rebuilds each model from the
  /// first changed spine only and re-runs the embedding DP on just the
  /// invalidated columns; if false every model is built and evaluated from
  /// scratch (for A/B benchmarks and agreement tests).
  bool incremental = true;
  /// If true, the canonical sweep never engages the thread pool even when
  /// `ctx->threads() > 1`.  Callers that are *themselves* pool jobs (the
  /// query service's batch fan-out) must set this: `ThreadPool::ParallelFor`
  /// does not support reentrant submission from a worker.
  bool sequential_sweep = false;
  /// If true (default) the embedding DP uses the word-parallel fill kernel
  /// (missing-bits scatter + branch-free leaf columns); if false it uses the
  /// scalar per-candidate kernel.  Both produce bit-identical tables — the
  /// flag exists for A/B benchmarks and the agreement suites
  /// (`tpc_cli --no-word-parallel`).
  bool word_parallel = true;
  /// If true (default) patterns with at most 64 nodes may be lowered to a
  /// flat `MatcherProgram` (src/compile/) executed over the tree's postorder
  /// columns instead of the generic DP fill.  Canonical sweeps compile
  /// unconditionally (one sweep amortizes the compile internally); the
  /// single-tree routes compile only once `program_cache` reports the
  /// pattern hot.  Verdicts are bit-identical either way — the flag exists
  /// for A/B benchmarks and the agreement suites (`tpc_cli --no-compile`).
  bool compiled_matcher = true;
  /// Number of sightings of a `(pattern, pool, mode)` key in
  /// `program_cache` before the single-tree routes pay the compile.
  int32_t compile_threshold = 4;
  /// Optional pool of compiled programs shared across calls (the query
  /// service owns one beside its verdict cache).  Null means: sweeps still
  /// compile per call, single-tree routes never do (no hotness evidence).
  ProgramCache* program_cache = nullptr;
  /// If true (default) `ContainsGroup` — and the query-service batch
  /// grouping and daemon coalescing window built on it — may decide
  /// canonical-route members sharing the enumeration-side pattern over ONE
  /// model enumeration (each canonical tree built once, every undecided
  /// member's matcher run against it).  If false every member is decided by
  /// an independent `Contains` call — the `--no-group-sweep` A/B twin.
  /// Verdicts and per-member attribution are identical either way.
  bool grouped_sweep = true;
};

/// Decides L(p) ⊆ L(q) (weak or strong languages per `mode`) under the
/// budget/instrumentation/parallelism of `ctx`.  `pool` is used to mint
/// fresh labels (⊥, fresh roots); it must be the pool the patterns were
/// interned in.
ContainmentResult Contains(const Tpq& p, const Tpq& q, Mode mode,
                           LabelPool* pool, EngineContext* ctx,
                           const ContainmentOptions& options = {});

/// Engine-default wrapper (unlimited budget, one thread).
ContainmentResult Contains(const Tpq& p, const Tpq& q, Mode mode,
                           LabelPool* pool,
                           const ContainmentOptions& options = {});

/// One member of a grouped containment decision: an evaluation-side pattern
/// plus the context carrying its budget and counters.  Attribution is per
/// member — budget charges (steps and table bytes are booked per
/// evaluation), `ExhaustionReason` and witnesses land on the member's own
/// context, so a faulted or shed member never poisons its groupmates.
struct GroupMember {
  const Tpq* q = nullptr;
  EngineContext* ctx = nullptr;
};

/// Decides L(p) ⊆ L(q_i) for every member against ONE shared
/// enumeration-side pattern p.  Members that the dispatcher routes to a
/// fragment-specific P algorithm are decided exactly as `Contains` would;
/// the canonical-route members are partitioned by chain-length bound and
/// each partition runs the one canonical sweep — each canonical tree of p is
/// built once and evaluated against every still-undecided member, and a
/// member retires at its first counterexample or budget trip (the undecided
/// mask).  Strong mode applies the Observation 2.3 root relabelling once for
/// the whole group.  Shared work (tree builds, enumeration) of a partition
/// with several members is accounted on `group_ctx`, which also provides
/// the thread pool for the chunked parallel sweep; a singleton partition is
/// the solo `CanonicalContainment` call, on the member's own context.
/// Results are indexed like `members`.  With `options.grouped_sweep` false
/// this is exactly one `Contains` call per member (the A/B twin).
std::vector<ContainmentResult> ContainsGroup(
    const Tpq& p, const std::vector<GroupMember>& members, Mode mode,
    LabelPool* pool, EngineContext* group_ctx,
    const ContainmentOptions& options = {});

/// The general canonical-model procedure (sound and complete for all
/// fragments; exponential in the number of descendant edges of p).  This is
/// the canonical sweep of `ContainsGroup` run as a group of one, with `ctx`
/// as its group context: every counter and budget charge lands on `ctx`.
/// Sequentially the sweep is one chunk that runs to the end of the
/// enumeration; with `ctx->threads() > 1` (and a space of at least
/// `parallel_threshold` vectors) the length-vector space is partitioned
/// into chunks swept in parallel, with early exit on the first
/// counterexample.
ContainmentResult CanonicalContainment(const Tpq& p, const Tpq& q, Mode mode,
                                       LabelPool* pool, EngineContext* ctx,
                                       const ContainmentOptions& options = {});

/// Engine-default wrapper.
ContainmentResult CanonicalContainment(const Tpq& p, const Tpq& q, Mode mode,
                                       LabelPool* pool,
                                       const ContainmentOptions& options = {});

/// Theorem 3.2(1): weak containment of a path query p in a TPQ q, in
/// polynomial time.  Precondition: IsPathQuery(p).  The ctx overload may
/// bail out early when the budget is exhausted — check
/// `ctx->budget().Exhausted()` before trusting the answer.
bool PathInTpqContained(const Tpq& p, const Tpq& q, LabelPool* pool,
                        EngineContext* ctx);
bool PathInTpqContained(const Tpq& p, const Tpq& q, LabelPool* pool);

/// Theorem 3.2(2): weak containment of a child-edge-free p in a TPQ q, in
/// polynomial time.  Precondition: p has no child edges.  Budget semantics
/// as for `PathInTpqContained`.
bool ChildFreeInTpqContained(const Tpq& p, const Tpq& q, LabelPool* pool,
                             EngineContext* ctx);
bool ChildFreeInTpqContained(const Tpq& p, const Tpq& q, LabelPool* pool);

/// The chain-length bound used by `CanonicalContainment` for the pair (p,q).
int32_t CanonicalBound(const Tpq& q, ContainmentOptions::Bound bound);

}  // namespace tpc

#endif  // TPC_CONTAIN_CONTAINMENT_H_
