// The query-service fast path: a workload-level accelerator in front of the
// containment dispatcher (contain/containment.h).
//
// Real containment workloads repeat themselves — the same handful of
// patterns arrive again and again, syntactically varied — while the
// dispatcher prices every call as if it were novel (the general route is
// coNP).  The service exploits the repetition in five layers, the first
// four of which can be switched off for A/B runs:
//
//   1. *Canonical hashing* (pattern/tpq_hash.h): both patterns are
//      minimized (contain/minimize.h, memoized per raw hash) and hashed
//      bottom-up with sorted child digests, so child-order permutations and
//      redundant-subtree variants of one query collide on purpose.
//   2. *Verdict cache* (service/verdict_cache.h): a sharded, byte-bounded
//      LRU from (p_hash, q_hash, mode, bound) to the verdict plus the
//      counterexample length certificate.  Refutation hits are replayed
//      against the actual pair before being served; results computed under
//      an exhausted budget are never stored.
//   3. *Prefilter cascade*: a homomorphism q → p accepts containment early
//      (sound in every fragment, Miklau & Suciu), and a small set of probe
//      canonical models — the minimal tree, the all-ones tree, and
//      previously successful counterexample vectors pooled per q-hash —
//      refutes early, both long before the exponential sweep.
//   4. *Batching*: `ContainsBatch` folds exact duplicates (one decision
//      serves all copies) and fans the residue out over the context's
//      thread pool, with each worker forced onto sequential sweeps
//      (`ContainmentOptions::sequential_sweep`) because `ParallelFor` does
//      not reenter.  Pairs that survive every fast-path layer are then
//      *grouped* by (enumeration-side pattern, mode) and decided through
//      `tpc::ContainsGroup`, which enumerates the shared pattern's
//      canonical models once for the whole group (a group of one is a solo
//      decision; `ContainsGroupFor` is the daemon-side entry for its
//      coalescing window).
//   5. *Pattern compilation* (src/compile/): minimized patterns seen
//      `kProgramHotThreshold` times, and every swept one, are lowered to
//      flat matcher programs pooled beside the verdict cache and shared with
//      the dispatcher (`ContainmentOptions::program_cache`), so probes and
//      sweeps on repeated patterns skip the generic DP fill.  Always on:
//      verdicts are identical with or without a program, and patterns over
//      64 nodes simply stay on the generic DP.
//
// Every accepted/refuted/cached shortcut is sound — DESIGN.md ("Query
// service fast path") gives the argument per layer — so verdicts are
// identical to the uncached dispatcher's on decided instances.

#ifndef TPC_SERVICE_QUERY_SERVICE_H_
#define TPC_SERVICE_QUERY_SERVICE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "base/label.h"
#include "compile/program_cache.h"
#include "contain/containment.h"
#include "engine/engine.h"
#include "pattern/tpq.h"
#include "pattern/tpq_hash.h"
#include "persist/snapshot.h"
#include "service/verdict_cache.h"
#include "service/verdict_lattice.h"

namespace tpc {

/// Construction-time knobs of a `QueryService`.
struct ServiceOptions {
  /// Minimize + hash + verdict-cache layer (switch off for A/B runs; also
  /// skips minimization, so cold numbers stay honest).
  bool use_cache = true;
  /// Homomorphism-accept and probe-refute layer.
  bool use_prefilters = true;
  /// Subsumption-lattice layer (service/verdict_lattice.h): answer cache
  /// misses by stitching cached contained edges (transitivity) or by
  /// replaying a neighbour's borrowed counterexample witness.  Off for A/B
  /// runs (`tpc_cli --no-lattice`); recording continues either way so the
  /// pattern registry stays complete for snapshot persistence.
  bool use_lattice = true;
  /// Byte bound of the lattice (nodes + edges + stored witnesses).
  int64_t lattice_bytes = 1 << 20;
  /// Shards of the verdict cache (contention knob, not capacity).
  size_t cache_shards = 8;
  /// Byte bound of the verdict cache, accounted against the context budget.
  /// It also bounds, each on its own, the minimize memo and the probe book
  /// (one entry per distinct pattern), which are flushed whole when the next
  /// entry would pass it.
  int64_t cache_bytes = 4 << 20;
  /// Max remembered counterexample length vectors per (q-hash, mode).
  size_t probe_pool_limit = 4;
  /// Byte bound of the compiled-program pool (src/compile/), which sits
  /// beside the verdict cache and serves the dispatcher's sweeps, the
  /// single-tree routes, the probe cascade and the mapped-tree check.
  int64_t program_cache_bytes = 1 << 20;
  /// Options forwarded to the underlying dispatcher (bound is part of the
  /// cache key).
  ContainmentOptions containment;
};

/// A long-lived containment front end over one `LabelPool` + `EngineContext`
/// pair.  Thread-compatible from outside (callers serialize `Contains` /
/// `ContainsBatch` per service); internally `ContainsBatch` runs its own
/// workers, and all shared state (cache, memo, probe book, label pool) is
/// synchronized for them.  `ContainsFor` — the serve daemon's entry point —
/// may additionally be called concurrently from many threads, each with its
/// own per-request context, relying on exactly that synchronization.
/// Save/LoadSnapshot still serialize against everything.
class QueryService {
 public:
  QueryService(LabelPool* pool, EngineContext* ctx,
               const ServiceOptions& options = {});

  /// Sightings of a minimized pattern (per pool generation and mode) before
  /// the single-tree paths pay its compile; sweeps compile on first sight.
  static constexpr int32_t kProgramHotThreshold = 4;

  struct BatchItem {
    Tpq p;
    Tpq q;
    Mode mode = Mode::kWeak;
  };

  /// Decides L(p) ⊆ L(q) through the fast path.  Verdict-equivalent to
  /// `tpc::Contains(p, q, mode, pool, ctx, options.containment)` whenever
  /// that call decides.
  ContainmentResult Contains(const Tpq& p, const Tpq& q, Mode mode);

  /// `Contains` under a caller-provided per-request context: the decision's
  /// budget, stats and scratch come from `request_ctx` while the shared
  /// accelerator state (verdict cache, lattice, minimize memo, probe book,
  /// program pool) stays owned by — and byte-charged to — the service's own
  /// context.  This is the serve daemon's entry point: each worker owns one
  /// context, arms it with the tenant's quota, and calls here concurrently
  /// with the other workers (the shared layers are synchronized; sweeps are
  /// forced sequential, so a single-threaded `request_ctx` is the intended
  /// shape).  Do not pass the service's own context from two threads.
  ContainmentResult ContainsFor(const Tpq& p, const Tpq& q, Mode mode,
                                EngineContext* request_ctx);

  /// One member of a `ContainsGroupFor` call: a pair plus the per-request
  /// context carrying its (already armed) budget.  `p`/`q` must stay alive
  /// for the duration of the call.
  struct GroupQuery {
    const Tpq* p = nullptr;
    const Tpq* q = nullptr;
    Mode mode = Mode::kWeak;
    EngineContext* ctx = nullptr;
  };

  /// `ContainsFor` over a coalesced group (the daemon's scheduler window).
  /// Every member runs the full per-pair fast path on its own context;
  /// members that all layers fail to answer are then grouped by
  /// (enumeration-side pattern, mode) and decided through
  /// `tpc::ContainsGroup` — one canonical-model enumeration for the whole
  /// group, with per-member budget charges, exhaustion attribution,
  /// witnesses and cache/lattice insertion exactly as if decided alone.
  /// Results are indexed like `queries`.  Callable concurrently from many
  /// worker threads under the same contract as `ContainsFor`.
  std::vector<ContainmentResult> ContainsGroupFor(
      const std::vector<GroupQuery>& queries);

  /// Decides every item: folds exact duplicates (counted in
  /// `EngineStats::batch_deduped`) and fans unique items out over the
  /// context's thread pool when `ctx->threads() > 1`.  Results are in item
  /// order; duplicates share the representative's verdict (and a copy of
  /// its counterexample).
  std::vector<ContainmentResult> ContainsBatch(
      const std::vector<BatchItem>& items);

  /// Persists the warm tier — verdict cache, minimized-pattern pool,
  /// refutation counterexample trees, hot program keys — to `path`
  /// (atomically; src/persist/snapshot.h).  Requires the cache layer.
  /// False with `*error` on refusal or I/O failure; an aborted save never
  /// leaves a partial file behind.  Serialize with Contains/ContainsBatch.
  bool SaveSnapshot(const std::string& path, std::string* error);

  /// Warm-starts from `path`: maps the snapshot, re-fences every entry on
  /// the live pool generation and recomputed 128-bit digests, seeds the
  /// verdict cache, lattice, probe book, minimize memo and program-pool
  /// hotness, and keeps the mapping alive so cached refutations can be
  /// validated zero-copy against the mapped counterexample trees.  False
  /// with `*error` on a corrupt/truncated/version-skewed file (the service
  /// then simply stays cold).  Serialize with Contains/ContainsBatch.
  bool LoadSnapshot(const std::string& path, std::string* error);

  const ServiceOptions& options() const { return options_; }
  EngineContext* context() { return ctx_; }

 private:
  struct MinimizedEntry {
    Tpq pattern;
    uint64_t hash = 0;   // canonical hash of `pattern` (== digest.lo)
    TpqDigest digest;    // wide digest of `pattern` (lattice/snapshot key)
  };
  struct ProbeKey {
    uint64_t q_hash = 0;
    Mode mode = Mode::kWeak;
    bool operator==(const ProbeKey& o) const {
      return q_hash == o.q_hash && mode == o.mode;
    }
  };
  struct ProbeKeyHash {
    size_t operator()(const ProbeKey& k) const {
      return static_cast<size_t>(
          (k.q_hash ^ (static_cast<uint64_t>(k.mode) << 63)) *
          0x9e3779b97f4a7c15ULL);
    }
  };

  /// Minimizes `pattern` under `mode` and hashes the result, memoized on
  /// the raw canonical hash.  Budget-exhausted minimizations are returned
  /// (still equivalent — see MinimizeTpq) but not memoized.  The work is
  /// charged to `ctx` (the per-request context); the memo bytes stay on the
  /// service budget.
  std::shared_ptr<const MinimizedEntry> Minimized(
      const Tpq& pattern, Mode mode, const ContainmentOptions& options,
      EngineContext* ctx);

  /// One pair's decision state: what `FinishDecision` records a verdict
  /// under, and — once `active` — a pair the fast path could not answer,
  /// captured so the batch/group layers can decide it together with others
  /// sharing its enumeration-side pattern.  `p`/`q` point at the minimized
  /// patterns (kept alive by `pm`/`qm`) or the caller's originals when the
  /// cache layer is off.
  struct PendingDecision {
    bool active = false;
    const Tpq* p = nullptr;
    const Tpq* q = nullptr;
    std::shared_ptr<const MinimizedEntry> pm, qm;
    Mode mode = Mode::kWeak;
    VerdictKey key;
    bool have_key = false;
    uint64_t q_probe_hash = 0;
    bool have_probe_hash = false;
    ContainmentOptions options;
  };

  /// A deferred decision plus where its result goes and which context the
  /// member's decision runs under.
  struct PendingRef {
    PendingDecision* d = nullptr;
    ContainmentResult* result = nullptr;
    EngineContext* ctx = nullptr;
  };

  /// The full per-pair pipeline; `in_worker` forces sequential sweeps.
  /// `ctx` carries the budget/stats/scratch of this decision — the service's
  /// own context for Contains/ContainsBatch, the caller's for ContainsFor.
  /// The decision state is captured in a `PendingDecision` (`defer`, when
  /// non-null) before any layer runs.  With a non-null `defer`, a pair that
  /// survives every fast-path layer is *not* dispatched: `defer` is marked
  /// active and the returned placeholder must be replaced by
  /// `DecideDeferred`.
  ContainmentResult DecideOne(const Tpq& p, const Tpq& q, Mode mode,
                              bool in_worker, EngineContext* ctx,
                              PendingDecision* defer = nullptr);

  /// Records a decided verdict — probe book, verdict cache, lattice — for
  /// every exit that settles a pair without a cache hit: the lattice stitch
  /// and witness borrow, the prefilter accept and refute, and the
  /// dispatcher (inline or deferred).  Returns `result` unchanged.
  ContainmentResult FinishDecision(const PendingDecision& d,
                                   ContainmentResult result,
                                   EngineContext* ctx);

  /// Groups the deferred residue by (enumeration-side pattern, mode) —
  /// hash-bucketed, guarded by structural equality so a hash collision
  /// degrades to separate groups — and decides each group through
  /// `tpc::ContainsGroup` on `group_ctx`, finishing every member's result
  /// in place.  `parallel_groups` fans independent groups out over the
  /// service context's pool (only valid when the deferred options force
  /// sequential sweeps).
  void DecideDeferred(std::vector<PendingRef>* refs, EngineContext* group_ctx,
                      bool parallel_groups);

  std::vector<std::vector<int32_t>> ProbesFor(const ProbeKey& key);
  void RecordProbe(const ProbeKey& key, const std::vector<int32_t>& lengths);

  /// Seeds the minimize memo with an already-minimized pattern (snapshot
  /// load), so warm requests whose raw form is already minimal skip the
  /// minimization pass entirely.
  void SeedMinimized(const Tpq& pattern, const TpqDigest& digest, Mode mode);

  /// Inserts a memo entry under `minimize_mu_`, flushing the memo first when
  /// the entry would pass the `cache_bytes` bound.
  void MemoInsertLocked(uint64_t memo_key,
                        std::shared_ptr<const MinimizedEntry> entry);

  LabelPool* pool_;
  EngineContext* ctx_;
  ServiceOptions options_;
  VerdictLruCache cache_;
  ProgramCache programs_;
  std::unique_ptr<VerdictLattice> lattice_;

  // Warm-start state (LoadSnapshot): the mapped snapshot plus the verdict
  // keys whose counterexample trees it serves zero-copy.  Written only
  // under the caller-serialization contract; read-only during decisions.
  std::unique_ptr<SnapshotReader> mapped_snapshot_;
  std::unordered_map<VerdictKey, uint32_t, VerdictKeyHash> mapped_trees_;

  std::mutex minimize_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<const MinimizedEntry>>
      minimize_memo_;
  TrackedBytes memo_tracked_;

  std::mutex probe_mu_;
  std::unordered_map<ProbeKey, std::vector<std::vector<int32_t>>, ProbeKeyHash>
      probe_book_;
  TrackedBytes probe_tracked_;
};

}  // namespace tpc

#endif  // TPC_SERVICE_QUERY_SERVICE_H_
