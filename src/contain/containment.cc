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
#include "contain/type_set.h"
#include "pattern/canonical.h"
#include "pattern/normalize.h"
#include "pattern/tpq_hash.h"

namespace tpc {

// engine/stats.h mirrors the dispatcher enum by index; keep them in sync.
static_assert(static_cast<int>(ContainmentAlgorithm::kTypeSet) ==
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

/// Compiled program for `q`, or null for the generic DP (>64 nodes, cold,
/// or the soft compile charge was refused — never an error, never an
/// exhausted budget).  A canonical-enumeration `sweep` compiles
/// unconditionally (one sweep executes the program across the whole
/// length-vector space, amortizing the compile internally), through
/// `options.program_cache` when one is wired so repeated hot sweeps skip the
/// compile and later single-tree requests start warm.  The single-tree
/// routes only pay off across *calls*, so they compile once the cache
/// reports the pattern hot, and never without a cache.
std::shared_ptr<const MatcherProgram> ProgramFor(
    const Tpq& q, Mode mode, LabelPool* pool, EngineContext* ctx,
    const ContainmentOptions& options, bool sweep) {
  if (options.program_cache == nullptr) {
    // Uncached program: lives for this sweep only, charged to this context.
    return sweep ? MatcherProgram::Compile(q, &ctx->budget(), &ctx->stats())
                 : nullptr;
  }
  const ProgramKey key{CanonicalTpqHash(q), pool->generation(),
                       static_cast<uint32_t>(mode)};
  return options.program_cache->Fetch(q, key, /*force=*/sweep,
                                      &ctx->stats());
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
    programs[i] = ProgramFor(*members[i].qn, mode, pool, members[i].ctx,
                             options, /*sweep=*/true);
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
  // bank and scratch tree live for the whole chunk, so the chunk's first
  // tree is its only full build: every later one rebuilds only the suffix
  // from the first changed spine and refills only the invalidated DP
  // columns.
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
      const bool suffix_only =
          t > begin && first_changed < builder.num_spines();
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
                            mode == Mode::kStrong, /*ignored=*/true,
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
    // One claimer per pool thread, each taking chunks from a shared cursor
    // only while a member is live: once every member has retired, no
    // further chunk is claimed, so no builder or bank is built for it.
    const uint64_t num_chunks = (*total + chunk - 1) / chunk;
    std::atomic<uint64_t> next_chunk{0};
    group_ctx->pool().ParallelFor(group_ctx->threads(), [&](int64_t) {
      while (live.load(std::memory_order_relaxed) > 0) {
        const uint64_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
        if (c >= num_chunks) return;
        const uint64_t begin = c * chunk;
        sweep_chunk(begin, std::min(begin + chunk, *total));
      }
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

/// The enumeration side of a decision after the Observation 2.3 reduction
/// (schema-free case), shared by every member decided against one p.  In
/// strong mode, if q's root is a letter that p's root cannot be forced to
/// match, strong containment fails outright (witness: any canonical tree of
/// p); otherwise both roots are relabelled with the pool's root mark (a
/// letter in neither pattern) and weak containment decides.  Weak mode
/// passes p through.  The root mark is fetched — and p relabelled — once,
/// on the first member that needs the weak phase.
class WeakPhase {
 public:
  WeakPhase(const Tpq& p, Mode mode, LabelPool* pool)
      : p_(p), strong_(mode == Mode::kStrong), pool_(pool) {}

  /// True when strong containment in `q` fails outright; `result` then
  /// holds the decision.
  bool FastFail(const Tpq& q, ContainmentResult* result) const {
    if (!strong_ || q.IsWildcard(0) ||
        (!p_.IsWildcard(0) && p_.Label(0) == q.Label(0))) {
      return false;
    }
    result->contained = false;
    result->counterexample = MinimalCanonicalTree(p_, pool_->Bottom());
    result->counterexample_lengths =
        std::vector<int32_t>(DescendantEdges(p_).size(), 0);
    result->algorithm = ContainmentAlgorithm::kMinimalCanonical;
    return true;
  }

  /// The weak-phase enumeration-side pattern.
  const Tpq& WeakP() {
    if (!strong_) return p_;
    if (!relabelled_.has_value()) {
      relabelled_.emplace(WithRootLabel(p_, RootMark()));
    }
    return *relabelled_;
  }

  /// Fragment of `WeakP()`.
  const Fragment& fragment() {
    if (!fragment_.has_value()) fragment_ = FragmentOf(WeakP());
    return *fragment_;
  }

  /// The weak-phase evaluation-side pattern: `q`, root-relabelled in strong
  /// mode, normalized.
  Tpq WeakQ(const Tpq& q) {
    return strong_ ? Normalize(WithRootLabel(q, RootMark())) : Normalize(q);
  }

  /// Translates a weak-phase counterexample back: its root carries the root
  /// mark introduced by the reduction; restore p's root label (still outside
  /// L_s(q): any strong embedding of q would induce one of the relabelled
  /// pattern into the relabelled tree).
  void TranslateBack(ContainmentResult* result) const {
    if (strong_ && result->counterexample.has_value() && !p_.IsWildcard(0)) {
      result->counterexample->SetLabel(0, p_.Label(0));
    }
  }

 private:
  LabelId RootMark() {
    if (root_mark_ == kNoLabel) root_mark_ = pool_->RootMark();
    return root_mark_;
  }

  const Tpq& p_;
  const bool strong_;
  LabelPool* const pool_;
  LabelId root_mark_ = kNoLabel;
  std::optional<Tpq> relabelled_;
  std::optional<Fragment> fragment_;
};

/// Matches qn against p's minimal canonical tree (every chain empty).
/// Returns whether it matched, recording the tree as `result`'s
/// counterexample when it did not; nullopt (and `result` marked exhausted)
/// when the budget refused.  With `compile`, q's program is compiled (and
/// pooled, given a program cache) even before q is hot, as for a sweep: on
/// the coNP family's refuted pairs the compile plus one compiled run costs
/// less than the generic DP.
std::optional<bool> MatchMinimalCanonical(const Tpq& p, const Tpq& qn,
                                          LabelPool* pool, EngineContext* ctx,
                                          const ContainmentOptions& options,
                                          bool compile,
                                          ContainmentResult* result) {
  Tree t = MinimalCanonicalTree(p, pool->Bottom());
  ctx->stats().canonical_trees_enumerated.fetch_add(1,
                                                    std::memory_order_relaxed);
  const std::optional<bool> matched =
      MatchTree(qn, ProgramFor(qn, Mode::kWeak, pool, ctx, options,
                               compile).get(),
                t, /*strong=*/false, ctx);
  if (!matched.has_value()) {
    MarkExhausted(result, ctx);
  } else if (!*matched) {
    result->counterexample = std::move(t);
    result->counterexample_lengths =
        std::vector<int32_t>(DescendantEdges(p).size(), 0);
  }
  return matched;
}

/// Decides weak containment of the weak-phase pair (p, qn) by the first
/// fragment-specific P procedure that applies, in Table 1 route order:
/// homomorphism, minimal canonical, single canonical, path-in-TPQ,
/// child-free-in-TPQ.  False (and `result` untouched) when only the general
/// route applies or `options.force_canonical` demands the sweep.
bool DecideByRoute(const Tpq& p, const Fragment& fp, const Tpq& qn,
                   LabelPool* pool, EngineContext* ctx,
                   const ContainmentOptions& options,
                   ContainmentResult* result) {
  if (options.force_canonical) return false;
  EngineStats& stats = ctx->stats();
  const Fragment fq = FragmentOf(qn);
  if (!fq.wildcard) {
    // For wildcard-free q, an embedding into the canonical tree of p with
    // every descendant chain instantiated by one ⊥ node can never touch a
    // ⊥ node, so containment is exactly the existence of a homomorphism
    // q -> p (Miklau & Suciu; the Theorem 3.1 region).
    result->algorithm = ContainmentAlgorithm::kHomomorphism;
    stats.homomorphism_checks.fetch_add(1, std::memory_order_relaxed);
    if (!ctx->budget().Charge(static_cast<int64_t>(qn.size()) * p.size())) {
      MarkExhausted(result, ctx);
      return true;
    }
    // The dispatcher can route many pairs here back to back (benchmarks,
    // minimization loops); a pooled scratch keeps the DP tables alive
    // across calls while scoping their retention — and their tracked-byte
    // charge — to this context rather than to the thread.
    auto scratch = ctx->scratch().Acquire<HomomorphismScratch>();
    if (!scratch->ChargeTables(qn, p, &ctx->budget())) {
      MarkExhausted(result, ctx);
      return true;
    }
    result->contained =
        HomomorphismExists(qn, p, /*root_to_root=*/false, scratch.get());
    if (!result->contained) {
      std::vector<int32_t> ones(DescendantEdges(p).size(), 1);
      result->counterexample = CanonicalTree(p, ones, pool->Bottom());
      result->counterexample_lengths = std::move(ones);
    }
    return true;
  }
  if (!fq.child_edges || !fp.descendant_edges) {
    // Theorem 3.2(3): for child-edge-free q, the minimal canonical tree of
    // p decides containment (Appendix B.1.4: embeddings transfer from the
    // minimal canonical tree to every canonical tree along `corr`, which
    // preserves labels and ancestorship — all q needs).  Theorems 3.1(2) /
    // 3.2(4): a descendant-free p has a unique canonical tree.
    result->algorithm = !fq.child_edges
                            ? ContainmentAlgorithm::kMinimalCanonical
                            : ContainmentAlgorithm::kSingleCanonical;
    if (std::optional<bool> matched =
            MatchMinimalCanonical(p, qn, pool, ctx, options,
                                  /*compile=*/false, result)) {
      result->contained = *matched;
    }
    return true;
  }
  const bool path = IsPathQuery(p);
  if (path || !fp.child_edges) {
    // Theorem 3.2(1) for a path query p, Theorem 3.2(2) for a child-edge-
    // free one.
    result->algorithm = path ? ContainmentAlgorithm::kPathInTpq
                             : ContainmentAlgorithm::kChildFreeInTpq;
    result->contained = path ? PathInTpqContained(p, qn, pool, ctx)
                             : ChildFreeInTpqContained(p, qn, pool, ctx);
    if (ctx->budget().Exhausted()) MarkExhausted(result, ctx);
    return true;
  }
  return false;
}

/// The general route (kTypeSet) for the weak-phase pair (p, qn): the
/// minimal canonical tree first, so refutations stay one match, then q's
/// automaton folded over p's canonical models at qn's chain-length bound.
void TypeSetRoute(const Tpq& p, const Tpq& qn, LabelPool* pool,
                  EngineContext* ctx, const ContainmentOptions& options,
                  ContainmentResult* result) {
  result->algorithm = ContainmentAlgorithm::kTypeSet;
  const std::optional<bool> matched =
      MatchMinimalCanonical(p, qn, pool, ctx, options, /*compile=*/true,
                            result);
  if (matched != true) return;  // refuted or exhausted
  TypeSetDecision d = TypeSetContainment(
      p, qn, CanonicalBound(qn, options.bound), pool->Bottom(), ctx);
  if (d.outcome != Outcome::kDecided) {
    MarkExhausted(result, ctx);
    return;
  }
  result->contained = d.contained;
  if (!d.contained) {
    result->counterexample =
        CanonicalTree(p, d.counterexample_lengths, pool->Bottom());
    result->counterexample_lengths = std::move(d.counterexample_lengths);
  }
}

/// One member up to the general route: the strong fast fail, then the P
/// routes.  Returns nullopt when `result` holds the member's decision
/// (translated back to strong mode); otherwise the member's weak-phase
/// pattern, for the type set (or, under `force_canonical`, the canonical
/// sweep) to decide.
std::optional<Tpq> DecideBeforeSweep(WeakPhase* side, const Tpq& q,
                                     LabelPool* pool, EngineContext* ctx,
                                     const ContainmentOptions& options,
                                     ContainmentResult* result) {
  assert(!q.empty());
  if (side->FastFail(q, result)) return std::nullopt;
  Tpq qn = side->WeakQ(q);
  if (!DecideByRoute(side->WeakP(), side->fragment(), qn, pool, ctx, options,
                     result)) {
    return qn;
  }
  side->TranslateBack(result);
  return std::nullopt;
}

/// Books the member's decision in the dispatcher's route counters.
void CountDispatch(const ContainmentResult& result, EngineContext* ctx) {
  ctx->stats().dispatch[static_cast<int>(result.algorithm)].fetch_add(
      1, std::memory_order_relaxed);
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
  assert(!p.empty());
  WeakPhase side(p, mode, pool);
  ContainmentResult result;
  if (std::optional<Tpq> qn =
          DecideBeforeSweep(&side, q, pool, ctx, options, &result)) {
    if (options.force_canonical) {
      // A group of one: the singleton partition of `ContainsGroup`.
      result = CanonicalContainment(side.WeakP(), *qn, Mode::kWeak, pool, ctx,
                                    options);
    } else {
      TypeSetRoute(side.WeakP(), *qn, pool, ctx, options, &result);
    }
    side.TranslateBack(&result);
  }
  CountDispatch(result, ctx);
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
  WeakPhase side(p, mode, pool);
  // Under `force_canonical`, the members only the canonical sweep can
  // decide, partitioned by chain-length bound (it depends on q): each
  // partition shares one enumeration.
  std::vector<Tpq> swept;
  swept.reserve(members.size());  // SweepMember::qn points into it
  std::vector<std::pair<int32_t, std::vector<SweepMember>>> partitions;
  for (size_t i = 0; i < members.size(); ++i) {
    std::optional<Tpq> qn = DecideBeforeSweep(
        &side, *members[i].q, pool, members[i].ctx, options, &results[i]);
    if (!qn.has_value()) continue;
    if (!options.force_canonical) {
      TypeSetRoute(side.WeakP(), *qn, pool, members[i].ctx, options,
                   &results[i]);
      side.TranslateBack(&results[i]);
      continue;
    }
    swept.push_back(std::move(*qn));
    const int32_t bound = CanonicalBound(swept.back(), options.bound);
    auto part = std::find_if(partitions.begin(), partitions.end(),
                             [bound](const auto& pt) {
                               return pt.first == bound;
                             });
    if (part == partitions.end()) {
      part = partitions.insert(partitions.end(), {bound, {}});
    }
    part->second.push_back({i, &swept.back(), members[i].ctx});
  }
  EngineStats& gstats = group_ctx->stats();
  for (auto& [bound, part] : partitions) {
    // A singleton partition is a solo decision: its shared work lands on the
    // member's own context, exactly as in `Contains`.
    EngineContext* sweep_ctx = part[0].ctx;
    if (part.size() > 1) {
      sweep_ctx = group_ctx;
      gstats.sweep_groups_formed.fetch_add(1, std::memory_order_relaxed);
      gstats.sweep_group_members.fetch_add(static_cast<int64_t>(part.size()),
                                           std::memory_order_relaxed);
    }
    CanonicalSweep(side.WeakP(), part, Mode::kWeak, bound, pool, sweep_ctx,
                   options, &results);
    for (const SweepMember& m : part) side.TranslateBack(&results[m.slot]);
  }
  for (size_t i = 0; i < members.size(); ++i) {
    CountDispatch(results[i], members[i].ctx);
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
