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
//   * otherwise (Thm 3.3, coNP-complete): the type-set route
//     (contain/type_set.h) — one match against p's minimal canonical tree,
//     then q's deterministic automaton folded over p's whole canonical-model
//     space.  The bounded canonical-model enumeration of Miklau & Suciu
//     (exponential in the number of descendant edges of p) decides the same
//     question over the same models; it runs only under `force_canonical`
//     and through `CanonicalContainment`, as the ground truth the other
//     routes are tested against.
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
  kCanonicalEnumeration,  // canonical-model sweep (force_canonical)
  kTypeSet,               // general coNP cell: automaton over p's models
};

struct ContainmentResult {
  bool contained = false;
  /// A tree in L(p) \ L(q) when not contained and the selected procedure
  /// produces witnesses (the canonical-model based procedures and the type
  /// set do; the recursive P algorithms of Theorems 3.2(1)/(2) do not).  The
  /// sweep reports the first counterexample in enumeration order, the type
  /// set some counterexample.
  std::optional<Tree> counterexample;
  /// The spine chain-length vector (one entry per descendant edge of p, in
  /// document order) whose canonical model the counterexample is.  Set
  /// whenever `counterexample` comes from a canonical model — including the
  /// parallel sweep, the type set, the homomorphism route (all-ones vector)
  /// and the single/minimal canonical routes.
  std::optional<std::vector<int32_t>> counterexample_lengths;
  ContainmentAlgorithm algorithm = ContainmentAlgorithm::kCanonicalEnumeration;
  /// `kResourceExhausted` when the engine budget ran out before the answer
  /// was certain; `contained` is then meaningless.
  Outcome outcome = Outcome::kDecided;
  /// Which resource ran out (kNone while decided): steps, deadline, tracked
  /// memory, or a caller's `EngineContext::Cancel()`.
  ExhaustionReason reason = ExhaustionReason::kNone;
};

/// Options controlling the general (coNP) procedures.
struct ContainmentOptions {
  /// Chain-length bound for canonical models (the sweep's and the type
  /// set's model space).  kSafe uses |q|+1, which we prove sufficient by a
  /// counting argument; kAggressive uses the Miklau-Suciu style bound
  /// (longest wildcard chain of q) + 1.
  enum class Bound { kSafe, kAggressive };
  Bound bound = Bound::kSafe;
  /// If true, the dispatcher may not route to the fragment-specific P
  /// algorithms nor to the type set: every decision runs the canonical
  /// sweep (the reference procedure tests and benchmarks check against).
  bool force_canonical = false;
  /// If true, the canonical sweep never engages the thread pool even when
  /// `ctx->threads() > 1`.  Callers that are *themselves* pool jobs (the
  /// query service's batch fan-out) must set this: `ThreadPool::ParallelFor`
  /// does not support reentrant submission from a worker.
  bool sequential_sweep = false;
  /// Optional pool of compiled programs shared across calls (the query
  /// service owns one beside its verdict cache).  Canonical sweeps compile
  /// every member of at most 64 nodes — through the pool when one is wired,
  /// so repeated hot sweeps skip the compile — while the single-tree routes
  /// compile only once the pool reports the pattern hot, and never without
  /// a pool (no hotness evidence).  Larger patterns, cold ones and refused
  /// compiles run the generic DP; verdicts are identical either way.
  ProgramCache* program_cache = nullptr;
  /// The embedding DP's fill is always word-parallel.  A constant, not a
  /// setting: kept readable for the end-to-end benchmark (e2ebench/), which
  /// passes it to `SweepBank::EvalMember`.
  static constexpr bool word_parallel = true;
};

/// Decides L(p) ⊆ L(q) (weak or strong languages per `mode`) under the
/// budget/instrumentation/parallelism of `ctx`.  `pool` supplies the
/// reserved labels (⊥, the root mark); it must be the pool the patterns were
/// interned in.  Behaves exactly as `ContainsGroup` over one member whose
/// context is `ctx`, but without the group's containers.
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
/// enumeration-side pattern p.  Each member runs the same per-member steps
/// as `Contains` — the Observation 2.3 strong fast fail and root relabelling
/// (p relabelled once for the whole group), then the first applicable route
/// in Table 1 order — on its own context; the members share only p.  Under
/// `force_canonical` the members are partitioned by chain-length bound and
/// each partition runs the one canonical sweep: each canonical tree of p is
/// built once and evaluated against every still-undecided member, and a
/// member retires at its first counterexample or budget trip (the undecided
/// mask).  Shared work (tree builds, enumeration) of a partition with
/// several members is accounted on `group_ctx`, which also provides the
/// thread pool for the chunked parallel sweep; a singleton partition is the
/// solo `CanonicalContainment` call, on the member's own context.  Results
/// are indexed like `members`.
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
