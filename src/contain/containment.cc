#include "contain/containment.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "compile/matcher_program.h"
#include "compile/program_cache.h"
#include "compile/sweep_bank.h"
#include "contain/homomorphism.h"
#include "match/embedding.h"
#include "pattern/canonical.h"
#include "pattern/normalize.h"
#include "pattern/tpq_hash.h"

namespace tpc {

// engine/stats.h mirrors the dispatcher enum by index; keep them in sync.
static_assert(static_cast<int>(ContainmentAlgorithm::kCanonicalEnumeration) ==
                  kNumDispatchAlgorithms - 1,
              "kDispatchAlgorithmNames must mirror ContainmentAlgorithm");

int32_t CanonicalBound(const Tpq& q, ContainmentOptions::Bound bound) {
  if (bound == ContainmentOptions::Bound::kAggressive) {
    return LongestWildcardChain(q) + 1;
  }
  // Safe bound: |q|+1 ensures that, among the B+1 "gaps" of a bottom-label
  // chain, at least one is not straddled by any child-edge-connected piece
  // of q, so chains longer than B can be pumped (see DESIGN.md).
  return q.size() + 1;
}

namespace {

bool Matches(const Tpq& q, const Tree& t, Mode mode, EngineStats* stats,
             bool word_parallel) {
  Matcher matcher(q, t, stats, word_parallel);
  return mode == Mode::kStrong ? matcher.MatchesStrong()
                               : matcher.MatchesWeak();
}

ProgramKey KeyFor(const Tpq& q, Mode mode, LabelPool* pool) {
  return ProgramKey{CanonicalTpqHash(q), pool->generation(),
                    static_cast<uint32_t>(mode)};
}

/// Compiled program for a canonical-enumeration sweep.  Sweeps compile
/// unconditionally (one sweep executes the program across the whole
/// length-vector space, amortizing the compile internally), but still go
/// through `options.program_cache` when one is wired so repeated hot sweeps
/// skip the compile and later single-tree requests start warm.  Null means:
/// use the generic DP (disabled, >64 nodes, or the soft compile charge was
/// refused — never an error, never an exhausted budget).
std::shared_ptr<const MatcherProgram> SweepProgram(
    const Tpq& q, Mode mode, LabelPool* pool, EngineContext* ctx,
    const ContainmentOptions& options) {
  if (!options.compiled_matcher || !MatcherProgram::Compilable(q)) {
    return nullptr;
  }
  ProgramCache* cache = options.program_cache;
  if (cache == nullptr) {
    // Uncached program: lives for this sweep only, charged to this context.
    return MatcherProgram::Compile(q, &ctx->budget(), &ctx->stats());
  }
  const ProgramKey key = KeyFor(q, mode, pool);
  bool should_compile = false;
  if (auto program = cache->Get(key, &should_compile)) return program;
  auto program =
      MatcherProgram::Compile(q, cache->budget(), &ctx->stats());
  if (program != nullptr) {
    ctx->stats().program_cache_evictions.fetch_add(
        cache->Put(key, program), std::memory_order_relaxed);
  }
  return program;
}

/// Compiled program for the single-tree routes (minimal/single canonical).
/// Here a compile only pays off across *calls*, so it is gated on the
/// cache's hotness threshold: no cache, or a key that has not been seen
/// `compile_threshold` times, means the generic DP.
std::shared_ptr<const MatcherProgram> HotProgram(
    const Tpq& q, Mode mode, LabelPool* pool, EngineContext* ctx,
    const ContainmentOptions& options) {
  ProgramCache* cache = options.program_cache;
  if (!options.compiled_matcher || cache == nullptr ||
      !MatcherProgram::Compilable(q)) {
    return nullptr;
  }
  const ProgramKey key = KeyFor(q, mode, pool);
  bool should_compile = false;
  auto program = cache->Get(key, &should_compile);
  if (program != nullptr || !should_compile) return program;
  program = MatcherProgram::Compile(q, cache->budget(), &ctx->stats());
  if (program != nullptr) {
    ctx->stats().program_cache_evictions.fetch_add(
        cache->Put(key, program), std::memory_order_relaxed);
  }
  return program;
}

/// `Matches` with the compiled fast path in front: when the pattern is hot
/// a pooled `ProgramExec` answers from the flat program; otherwise (or when
/// the soft scratch charge is refused) the generic matcher decides.
bool MatchesRouted(const Tpq& q, const Tree& t, Mode mode, LabelPool* pool,
                   EngineContext* ctx, const ContainmentOptions& options) {
  if (auto program = HotProgram(q, mode, pool, ctx, options)) {
    auto exec = ctx->scratch().Acquire<ProgramExec>();
    if (exec->ChargeRun(t, &ctx->budget())) {
      const MatcherProgram::ExecResult r =
          exec->Run(*program, t, &ctx->stats());
      return mode == Mode::kStrong ? r.strong : r.weak;
    }
  }
  return Matches(q, t, mode, &ctx->stats(), options.word_parallel);
}

/// Returns a copy of `q` with the root label replaced.
Tpq WithRootLabel(const Tpq& q, LabelId label) {
  Tpq out = q;
  out.SetLabel(0, label);
  return out;
}

/// Per-canonical-tree budget cost: one step to build the tree plus the size
/// of the embedding DP.
int64_t TreeCost(const Tpq& q, const Tree& t) {
  return 1 + static_cast<int64_t>(q.size()) * t.size();
}

/// Stamps a result as resource-exhausted with the budget's recorded reason.
/// A kNone reason here means the exhaustion came from a work-volume check
/// that bypassed the budget; report it as kSteps.
void MarkExhausted(ContainmentResult* result, EngineContext* ctx) {
  result->outcome = Outcome::kResourceExhausted;
  const ExhaustionReason r = ctx->budget().reason();
  result->reason = r == ExhaustionReason::kNone ? ExhaustionReason::kSteps : r;
}

/// One member of a canonical sweep, after normalization (and, for strong
/// mode, the Observation 2.3 relabelling) has been applied.
struct SweepMember {
  size_t slot = 0;          // index into the caller's results array
  const Tpq* qn = nullptr;  // normalized evaluation-side pattern
  EngineContext* ctx = nullptr;
};

/// The canonical-model sweep (Thm 3.3) for members sharing p and one
/// chain-length bound.  Each canonical tree of p is built once and evaluated
/// against every still-undecided member through a `SweepBank`; a member
/// retires at its first counterexample or budget trip (the undecided mask),
/// and the sweep stops once every member has retired.  Per member, the
/// budget charges (TreeCost, then executor table bytes, in enumeration
/// order) are exactly those of a sweep of that member alone, so exhaustion
/// attribution does not depend on grouping; shared work (tree builds) is
/// accounted once, on `group_ctx`, which also drives the parallel gate.  A
/// solo decision is a group of one whose `group_ctx` is its own context.
void CanonicalSweep(const Tpq& p, const std::vector<SweepMember>& members,
                    Mode mode, int32_t bound, LabelPool* pool,
                    EngineContext* group_ctx,
                    const ContainmentOptions& options,
                    std::vector<ContainmentResult>* results) {
  for (const SweepMember& m : members) {
    (*results)[m.slot].algorithm = ContainmentAlgorithm::kCanonicalEnumeration;
  }
  const LabelId bottom = pool->Bottom();
  const size_t num_edges = DescendantEdges(p).size();
  const size_t n = members.size();
  EngineStats& gstats = group_ctx->stats();
  // One immutable program per member, shared by every chunk's bank.
  std::vector<std::shared_ptr<const MatcherProgram>> programs(n);
  for (size_t i = 0; i < n; ++i) {
    programs[i] =
        SweepProgram(*members[i].qn, mode, pool, members[i].ctx, options);
  }
  std::vector<std::atomic<bool>> undecided(n);
  for (std::atomic<bool>& u : undecided) {
    u.store(true, std::memory_order_relaxed);
  }
  std::atomic<int64_t> live{static_cast<int64_t>(n)};
  // Retires member `i` and returns how many members are still live, or -1
  // when another chunk retired `i` first: only the winner of the exchange
  // may write the member's result slot.  A retirement is "early" when at
  // least one groupmate keeps sweeping without it.
  auto retire = [&](size_t i) -> int64_t {
    if (!undecided[i].exchange(false, std::memory_order_acq_rel)) return -1;
    const int64_t left = live.fetch_sub(1, std::memory_order_acq_rel) - 1;
    if (left > 0) {
      gstats.group_members_retired_early.fetch_add(1,
                                                   std::memory_order_relaxed);
    }
    return left;
  };

  // Decides the length vectors [begin, end) of the enumeration order for
  // every undecided member, stopping early once none is left.  Builder,
  // bank and scratch tree live for the whole chunk, so with
  // `options.incremental` every tree after the chunk's first rebuilds only
  // the suffix from the first changed spine and refills only the
  // invalidated DP columns.
  auto sweep_chunk = [&](uint64_t begin, uint64_t end) {
    CanonicalLengthEnumerator lengths(num_edges, bound);
    lengths.SeekTo(begin);
    CanonicalTreeBuilder builder(p, bottom);
    SweepBank bank;
    for (size_t i = 0; i < n; ++i) bank.AddMember(members[i].qn, programs[i]);
    Tree scratch;
    for (uint64_t t = begin; live.load(std::memory_order_relaxed) > 0; ++t) {
      gstats.canonical_trees_enumerated.fetch_add(1, std::memory_order_relaxed);
      const size_t first_changed = lengths.first_changed();
      const bool suffix_only = t > begin && options.incremental &&
                               first_changed < builder.num_spines();
      if (suffix_only) {
        builder.BuildSuffix(lengths.lengths(), first_changed, &scratch);
        gstats.trees_rebuilt_from_spine.fetch_add(1, std::memory_order_relaxed);
      } else {
        builder.BuildFull(lengths.lengths(), &scratch);
      }
      const NodeId stable_limit =
          suffix_only ? builder.spine_start(first_changed) : 0;
      int64_t evaluated = 0;
      for (size_t i = 0; i < n; ++i) {
        if (!undecided[i].load(std::memory_order_relaxed)) continue;
        const SweepMember& m = members[i];
        ContainmentResult& r = (*results)[m.slot];
        if (!m.ctx->budget().Charge(TreeCost(*m.qn, scratch)) ||
            !bank.ChargeMember(i, scratch, &m.ctx->budget())) {
          if (retire(i) >= 0) MarkExhausted(&r, m.ctx);
          continue;
        }
        ++evaluated;
        if (bank.EvalMember(i, scratch, suffix_only, stable_limit,
                            mode == Mode::kStrong, options.word_parallel,
                            &m.ctx->stats())) {
          continue;
        }
        const int64_t left = retire(i);
        if (left < 0) continue;
        r.contained = false;
        r.counterexample_lengths = lengths.lengths();
        // The last live member takes the scratch tree (this chunk stops
        // here); otherwise groupmates keep sweeping on it, so copy.
        if (left == 0) {
          r.counterexample = std::move(scratch);
        } else {
          r.counterexample = scratch;
        }
      }
      if (evaluated > 1) {
        gstats.trees_shared_per_decision.fetch_add(evaluated - 1,
                                                   std::memory_order_relaxed);
      }
      if (t + 1 == end || !lengths.Next()) return;
    }
  };

  // Parallelize only when the space is big enough to amortize the chunk
  // bookkeeping.  Spaces too large to linearize in 64 bits run sequentially
  // (no budget finishes them anyway) — and so do totals near the int64/uint64
  // edge, where the chunk-count arithmetic below would wrap and sweep only a
  // sliver of the space.  The sequential sweep is one chunk with no upper
  // end: it runs until the enumerator is exhausted.
  const std::optional<uint64_t> total =
      CanonicalLengthEnumerator(num_edges, bound).TotalCountExact();
  const uint64_t chunk =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::max<int64_t>(
                                0, group_ctx->config().parallel_chunk)));
  const uint64_t max_parallel_total =
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) - chunk;
  if (!options.sequential_sweep && group_ctx->threads() > 1 &&
      total.has_value() &&
      *total >= static_cast<uint64_t>(group_ctx->config().parallel_threshold) &&
      *total <= max_parallel_total) {
    const uint64_t num_chunks = (*total + chunk - 1) / chunk;
    group_ctx->pool().ParallelFor(
        static_cast<int64_t>(num_chunks), [&](int64_t chunk_index) {
          const uint64_t begin = static_cast<uint64_t>(chunk_index) * chunk;
          sweep_chunk(begin, std::min(begin + chunk, *total));
        });
  } else {
    sweep_chunk(0, std::numeric_limits<uint64_t>::max());
  }

  // ParallelFor's return synchronizes with every worker; members still
  // undecided matched every canonical model.
  for (size_t i = 0; i < n; ++i) {
    if (undecided[i].load(std::memory_order_relaxed)) {
      (*results)[members[i].slot].contained = true;
    }
  }
}

ContainmentResult ContainsImpl(const Tpq& p, const Tpq& q, Mode mode,
                               LabelPool* pool, EngineContext* ctx,
                               const ContainmentOptions& options) {
  assert(!p.empty() && !q.empty());
  EngineStats& stats = ctx->stats();
  if (mode == Mode::kStrong) {
    // Observation 2.3, schema-free case.  If q's root is a letter that p's
    // root cannot be forced to match, strong containment fails outright
    // (witness: any canonical tree of p).  Otherwise relabel both roots with
    // the pool's root mark (a letter in neither pattern) and decide weak
    // containment.
    if (!q.IsWildcard(0) && (p.IsWildcard(0) || p.Label(0) != q.Label(0))) {
      ContainmentResult result;
      result.contained = false;
      result.counterexample =
          MinimalCanonicalTree(p, pool->Bottom());
      result.counterexample_lengths =
          std::vector<int32_t>(DescendantEdges(p).size(), 0);
      result.algorithm = ContainmentAlgorithm::kMinimalCanonical;
      return result;
    }
    LabelId root_mark = pool->RootMark();
    ContainmentResult result =
        ContainsImpl(WithRootLabel(p, root_mark),
                     WithRootLabel(q, root_mark), Mode::kWeak, pool, ctx,
                     options);
    if (result.counterexample.has_value() && !p.IsWildcard(0)) {
      // Translate the counterexample back: its root carries the root mark
      // introduced by the reduction; restore p's root label (still outside
      // L_s(q): any strong embedding of q would induce one of the relabeled
      // pattern into the relabeled tree).
      result.counterexample->SetLabel(0, p.Label(0));
    }
    return result;
  }

  Tpq qn = Normalize(q);
  Fragment fp = FragmentOf(p);
  Fragment fq = FragmentOf(qn);

  if (!options.force_canonical) {
    if (!fq.wildcard) {
      // For wildcard-free q, an embedding into the canonical tree of p with
      // every descendant chain instantiated by one ⊥ node can never touch a
      // ⊥ node, so containment is exactly the existence of a homomorphism
      // q -> p (Miklau & Suciu; the Theorem 3.1 region).
      ContainmentResult result;
      result.algorithm = ContainmentAlgorithm::kHomomorphism;
      stats.homomorphism_checks.fetch_add(1, std::memory_order_relaxed);
      if (!ctx->budget().Charge(
              static_cast<int64_t>(qn.size()) * p.size())) {
        MarkExhausted(&result, ctx);
        return result;
      }
      // The dispatcher can route many pairs here back to back (benchmarks,
      // minimization loops); a pooled scratch keeps the DP tables alive
      // across calls while scoping their retention — and their tracked-byte
      // charge — to this context rather than to the thread.
      auto scratch = ctx->scratch().Acquire<HomomorphismScratch>();
      if (!scratch->ChargeTables(qn, p, &ctx->budget())) {
        MarkExhausted(&result, ctx);
        return result;
      }
      result.contained =
          HomomorphismExists(qn, p, /*root_to_root=*/false, scratch.get());
      if (!result.contained) {
        std::vector<int32_t> ones(DescendantEdges(p).size(), 1);
        result.counterexample =
            CanonicalTree(p, ones, pool->Bottom());
        result.counterexample_lengths = std::move(ones);
      }
      return result;
    }
    if (!fq.child_edges) {
      // Theorem 3.2(3): for child-edge-free q, the minimal canonical tree of
      // p decides containment (Appendix B.1.4: embeddings transfer from the
      // minimal canonical tree to every canonical tree along `corr`, which
      // preserves labels and ancestorship — all q needs).
      ContainmentResult result;
      result.algorithm = ContainmentAlgorithm::kMinimalCanonical;
      Tree t = MinimalCanonicalTree(p, pool->Bottom());
      stats.canonical_trees_enumerated.fetch_add(1,
                                                 std::memory_order_relaxed);
      if (!ctx->budget().Charge(TreeCost(qn, t))) {
        MarkExhausted(&result, ctx);
        return result;
      }
      result.contained =
          MatchesRouted(qn, t, Mode::kWeak, pool, ctx, options);
      if (!result.contained) {
        result.counterexample = std::move(t);
        result.counterexample_lengths =
            std::vector<int32_t>(DescendantEdges(p).size(), 0);
      }
      return result;
    }
    if (!fp.descendant_edges) {
      // Theorems 3.1(2) / 3.2(4): p has a unique canonical tree.
      ContainmentResult result;
      result.algorithm = ContainmentAlgorithm::kSingleCanonical;
      Tree t = MinimalCanonicalTree(p, pool->Bottom());
      stats.canonical_trees_enumerated.fetch_add(1,
                                                 std::memory_order_relaxed);
      if (!ctx->budget().Charge(TreeCost(qn, t))) {
        MarkExhausted(&result, ctx);
        return result;
      }
      result.contained =
          MatchesRouted(qn, t, Mode::kWeak, pool, ctx, options);
      if (!result.contained) {
        result.counterexample = std::move(t);
        result.counterexample_lengths =
            std::vector<int32_t>(DescendantEdges(p).size(), 0);
      }
      return result;
    }
    if (IsPathQuery(p)) {
      // Theorem 3.2(1).
      ContainmentResult result;
      result.algorithm = ContainmentAlgorithm::kPathInTpq;
      result.contained = PathInTpqContained(p, qn, pool, ctx);
      if (ctx->budget().Exhausted()) MarkExhausted(&result, ctx);
      return result;
    }
    if (!fp.child_edges) {
      // Theorem 3.2(2).
      ContainmentResult result;
      result.algorithm = ContainmentAlgorithm::kChildFreeInTpq;
      result.contained = ChildFreeInTpqContained(p, qn, pool, ctx);
      if (ctx->budget().Exhausted()) MarkExhausted(&result, ctx);
      return result;
    }
  }
  return CanonicalContainment(p, qn, Mode::kWeak, pool, ctx, options);
}

}  // namespace

ContainmentResult CanonicalContainment(const Tpq& p, const Tpq& q, Mode mode,
                                       LabelPool* pool, EngineContext* ctx,
                                       const ContainmentOptions& options) {
  std::vector<ContainmentResult> results(1);
  CanonicalSweep(p, {SweepMember{0, &q, ctx}}, mode,
                 CanonicalBound(q, options.bound), pool, ctx, options,
                 &results);
  return std::move(results[0]);
}

ContainmentResult CanonicalContainment(const Tpq& p, const Tpq& q, Mode mode,
                                       LabelPool* pool,
                                       const ContainmentOptions& options) {
  return CanonicalContainment(p, q, mode, pool, &EngineContext::Default(),
                              options);
}

ContainmentResult Contains(const Tpq& p, const Tpq& q, Mode mode,
                           LabelPool* pool, EngineContext* ctx,
                           const ContainmentOptions& options) {
  ContainmentResult result = ContainsImpl(p, q, mode, pool, ctx, options);
  ctx->stats().dispatch[static_cast<int>(result.algorithm)].fetch_add(
      1, std::memory_order_relaxed);
  return result;
}

ContainmentResult Contains(const Tpq& p, const Tpq& q, Mode mode,
                           LabelPool* pool,
                           const ContainmentOptions& options) {
  return Contains(p, q, mode, pool, &EngineContext::Default(), options);
}

std::vector<ContainmentResult> ContainsGroup(
    const Tpq& p, const std::vector<GroupMember>& members, Mode mode,
    LabelPool* pool, EngineContext* group_ctx,
    const ContainmentOptions& options) {
  std::vector<ContainmentResult> results(members.size());
  if (members.empty()) return results;
  assert(!p.empty());
  if (!options.grouped_sweep || members.size() == 1) {
    for (size_t i = 0; i < members.size(); ++i) {
      results[i] =
          Contains(p, *members[i].q, mode, pool, members[i].ctx, options);
    }
    return results;
  }

  // Weak-phase work list: normalization and (for strong mode) the
  // Observation 2.3 root relabelling applied once for the whole group.
  struct WeakItem {
    size_t slot;
    Tpq qn;
    EngineContext* ctx;
  };
  std::vector<WeakItem> weak;
  weak.reserve(members.size());
  std::optional<Tpq> p_weak_storage;
  const Tpq* pw = &p;
  if (mode == Mode::kStrong) {
    const LabelId root_mark = pool->RootMark();
    p_weak_storage.emplace(WithRootLabel(p, root_mark));
    pw = &*p_weak_storage;
    for (size_t i = 0; i < members.size(); ++i) {
      const Tpq& q = *members[i].q;
      assert(!q.empty());
      if (!q.IsWildcard(0) && (p.IsWildcard(0) || p.Label(0) != q.Label(0))) {
        // Strong containment fails outright (Observation 2.3): witness any
        // canonical tree of p — the solo dispatcher's fast fail.
        ContainmentResult& r = results[i];
        r.contained = false;
        r.counterexample = MinimalCanonicalTree(p, pool->Bottom());
        r.counterexample_lengths =
            std::vector<int32_t>(DescendantEdges(p).size(), 0);
        r.algorithm = ContainmentAlgorithm::kMinimalCanonical;
        continue;
      }
      weak.push_back(
          {i, Normalize(WithRootLabel(q, root_mark)), members[i].ctx});
    }
  } else {
    for (size_t i = 0; i < members.size(); ++i) {
      assert(!members[i].q->empty());
      weak.push_back({i, Normalize(*members[i].q), members[i].ctx});
    }
  }

  // Route each member as the solo dispatcher would; only members landing on
  // the general canonical procedure can share a sweep, and only with
  // members of equal chain-length bound (the bound depends on q).
  const Fragment fp = FragmentOf(*pw);
  const bool p_canonical =
      fp.descendant_edges && !IsPathQuery(*pw) && fp.child_edges;
  std::vector<SweepMember> sweepable;
  std::vector<int32_t> sweep_bounds;
  for (WeakItem& w : weak) {
    const Fragment fq = FragmentOf(w.qn);
    const bool canonical_route =
        options.force_canonical ||
        (fq.wildcard && fq.child_edges && p_canonical);
    if (!canonical_route) {
      results[w.slot] =
          ContainsImpl(*pw, w.qn, Mode::kWeak, pool, w.ctx, options);
      continue;
    }
    // `weak` no longer grows here, so &w.qn stays valid below.
    sweepable.push_back({w.slot, &w.qn, w.ctx});
    sweep_bounds.push_back(CanonicalBound(w.qn, options.bound));
  }

  // Sub-partition the canonical members by bound; each partition shares one
  // enumeration.  A singleton partition is a solo decision: its shared work
  // lands on the member's own context, exactly as `CanonicalContainment`.
  std::vector<std::pair<int32_t, std::vector<SweepMember>>> partitions;
  for (size_t i = 0; i < sweepable.size(); ++i) {
    bool placed = false;
    for (auto& part : partitions) {
      if (part.first == sweep_bounds[i]) {
        part.second.push_back(sweepable[i]);
        placed = true;
        break;
      }
    }
    if (!placed) partitions.push_back({sweep_bounds[i], {sweepable[i]}});
  }
  EngineStats& gstats = group_ctx->stats();
  for (auto& part : partitions) {
    EngineContext* sweep_ctx = part.second[0].ctx;
    if (part.second.size() > 1) {
      sweep_ctx = group_ctx;
      gstats.sweep_groups_formed.fetch_add(1, std::memory_order_relaxed);
      gstats.sweep_group_members.fetch_add(
          static_cast<int64_t>(part.second.size()), std::memory_order_relaxed);
    }
    CanonicalSweep(*pw, part.second, Mode::kWeak, part.first, pool, sweep_ctx,
                   options, &results);
  }

  if (mode == Mode::kStrong && !p.IsWildcard(0)) {
    // Translate the weak-phase counterexamples back (see ContainsImpl).
    for (const WeakItem& w : weak) {
      if (results[w.slot].counterexample.has_value()) {
        results[w.slot].counterexample->SetLabel(0, p.Label(0));
      }
    }
  }

  for (size_t i = 0; i < members.size(); ++i) {
    members[i].ctx->stats().dispatch[static_cast<int>(results[i].algorithm)]
        .fetch_add(1, std::memory_order_relaxed);
  }
  return results;
}

bool PathInTpqContained(const Tpq& p, const Tpq& q, LabelPool* pool) {
  return PathInTpqContained(p, q, pool, &EngineContext::Default());
}

bool ChildFreeInTpqContained(const Tpq& p, const Tpq& q, LabelPool* pool) {
  return ChildFreeInTpqContained(p, q, pool, &EngineContext::Default());
}

}  // namespace tpc
