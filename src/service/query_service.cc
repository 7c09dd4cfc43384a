#include "service/query_service.h"

#include <atomic>
#include <cstddef>
#include <utility>

#include "compile/sweep_bank.h"
#include "contain/homomorphism.h"
#include "contain/minimize.h"
#include "pattern/canonical.h"
#include "pattern/tpq_hash.h"

namespace tpc {
namespace {

ContainmentResult ExhaustedResult(EngineContext* ctx) {
  ContainmentResult result;
  result.outcome = Outcome::kResourceExhausted;
  const ExhaustionReason r = ctx->budget().reason();
  result.reason = r == ExhaustionReason::kNone ? ExhaustionReason::kSteps : r;
  return result;
}

}  // namespace

QueryService::QueryService(LabelPool* pool, EngineContext* ctx,
                           const ServiceOptions& options)
    : pool_(pool),
      ctx_(ctx),
      options_(options),
      cache_(options.cache_shards, options.cache_bytes, &ctx->budget(),
             &VerdictEntryCost),
      programs_(options.cache_shards, options.program_cache_bytes,
                kProgramHotThreshold, &ctx->budget()) {
  // All tracked shims release into ctx's budget on destruction, so the
  // service must not outlive its context.
  memo_tracked_.Attach(&ctx->budget());
  probe_tracked_.Attach(&ctx->budget());
  if (options_.use_cache) {
    // Built whenever the cache layer is: even with `use_lattice` off the
    // lattice records verdicts (cheap), because it doubles as the pattern
    // registry snapshot persistence resolves cache keys through.
    lattice_ = std::make_unique<VerdictLattice>(options_.lattice_bytes,
                                                &ctx->budget());
  }
}

std::shared_ptr<const QueryService::MinimizedEntry> QueryService::Minimized(
    const Tpq& pattern, Mode mode, const ContainmentOptions& options,
    EngineContext* ctx) {
  // The memo key is the raw canonical hash (mode-salted: minimization under
  // weak and strong may differ) folded with the pool generation — hashes
  // are relative to one pool's id assignment, so a memo built against a
  // replaced pool must miss rather than serve a stale minimization.  Like
  // the verdict cache's "contained" entries, hits are trusted on the 64-bit
  // hash; see DESIGN.md.
  const uint64_t memo_key =
      CanonicalTpqHash(pattern) ^
      (mode == Mode::kStrong ? 0x94d049bb133111ebULL : 0) ^
      (pool_->generation() * 0xd6e8feb86659fd93ULL);
  {
    std::lock_guard<std::mutex> lock(minimize_mu_);
    auto it = minimize_memo_.find(memo_key);
    if (it != minimize_memo_.end()) return it->second;
  }
  auto entry = std::make_shared<MinimizedEntry>();
  entry->pattern = MinimizeTpq(pattern, mode, pool_, ctx, options);
  // One bottom-up pass yields both lanes; the lo lane *is* CanonicalTpqHash.
  entry->digest = CanonicalTpqDigest(entry->pattern);
  entry->hash = entry->digest.lo;
  // A budget-exhausted minimization is equivalent but possibly incomplete;
  // keep it out of the memo so a later, funded request re-minimizes.
  if (!ctx->budget().Exhausted()) {
    std::lock_guard<std::mutex> lock(minimize_mu_);
    auto it = minimize_memo_.find(memo_key);
    if (it != minimize_memo_.end()) return it->second;
    MemoInsertLocked(memo_key, entry);
  }
  return entry;
}

void QueryService::MemoInsertLocked(
    uint64_t memo_key, std::shared_ptr<const MinimizedEntry> entry) {
  const int64_t bytes = 96 + static_cast<int64_t>(entry->pattern.size()) * 32;
  // One entry per distinct raw pattern: a stream that never repeats would
  // grow the memo without end, so flush it whole at the cache's bound.
  if (memo_tracked_.charged() + bytes > options_.cache_bytes) {
    minimize_memo_.clear();
    memo_tracked_.ReleaseAll();
  }
  if (memo_tracked_.Charge(bytes)) {
    minimize_memo_.emplace(memo_key, std::move(entry));
  } else {
    memo_tracked_.Release(bytes);
  }
}

std::vector<std::vector<int32_t>> QueryService::ProbesFor(
    const ProbeKey& key) {
  std::lock_guard<std::mutex> lock(probe_mu_);
  auto it = probe_book_.find(key);
  if (it == probe_book_.end()) return {};
  return it->second;
}

void QueryService::RecordProbe(const ProbeKey& key,
                               const std::vector<int32_t>& lengths) {
  const int64_t bytes =
      48 + static_cast<int64_t>(lengths.size()) * sizeof(int32_t);
  std::lock_guard<std::mutex> lock(probe_mu_);
  // One book per distinct refuted q: flushed whole at the cache's bound,
  // like the minimize memo.
  if (probe_tracked_.charged() + bytes > options_.cache_bytes) {
    probe_book_.clear();
    probe_tracked_.ReleaseAll();
  }
  if (!probe_tracked_.Charge(bytes)) {
    probe_tracked_.Release(bytes);
    return;
  }
  auto& recorded = probe_book_[key];
  for (const auto& existing : recorded) {
    if (existing == lengths) {
      probe_tracked_.Release(bytes);
      return;
    }
  }
  recorded.insert(recorded.begin(), lengths);
  if (recorded.size() > options_.probe_pool_limit) {
    probe_tracked_.Release(
        48 + static_cast<int64_t>(recorded.back().size()) * sizeof(int32_t));
    recorded.pop_back();
  }
}

void QueryService::SeedMinimized(const Tpq& pattern, const TpqDigest& digest,
                                 Mode mode) {
  // Mirror of the Minimized() memo insertion, for patterns a snapshot
  // already stores in minimized form (minimization is idempotent, so the
  // raw-hash key of an already-minimal pattern is its own digest lo lane).
  const uint64_t memo_key =
      digest.lo ^ (mode == Mode::kStrong ? 0x94d049bb133111ebULL : 0) ^
      (pool_->generation() * 0xd6e8feb86659fd93ULL);
  auto entry = std::make_shared<MinimizedEntry>();
  entry->pattern = pattern;
  entry->hash = digest.lo;
  entry->digest = digest;
  std::lock_guard<std::mutex> lock(minimize_mu_);
  if (minimize_memo_.find(memo_key) != minimize_memo_.end()) return;
  MemoInsertLocked(memo_key, std::move(entry));
}

ContainmentResult QueryService::DecideOne(const Tpq& p, const Tpq& q,
                                          Mode mode, bool in_worker,
                                          EngineContext* ctx,
                                          PendingDecision* defer) {
  // The decision state, captured before any layer runs: every exit that
  // settles the pair records it through `FinishDecision`, and a pair that
  // survives every fast-path layer is dispatched right here or deferred
  // into a grouped sweep with others sharing p.
  PendingDecision local;
  PendingDecision& d = defer != nullptr ? *defer : local;
  d.options = options_.containment;
  if (in_worker) d.options.sequential_sweep = true;
  // Share the program pool with the dispatcher: its sweeps publish compiled
  // patterns here and its single-tree routes consult the hotness tracker.
  d.options.program_cache = &programs_;
  d.mode = mode;
  d.p = &p;
  d.q = &q;
  const ContainmentOptions& options = d.options;
  EngineStats& stats = ctx->stats();
  if (options_.use_cache) {
    d.pm = Minimized(p, mode, options, ctx);
    d.qm = Minimized(q, mode, options, ctx);
    d.p = &d.pm->pattern;
    d.q = &d.qm->pattern;
    d.key = VerdictKey{d.pm->hash, d.qm->hash, mode, options.bound,
                       pool_->generation()};
    d.have_key = true;
    d.q_probe_hash = d.qm->hash;
    d.have_probe_hash = true;
  } else if (options_.use_prefilters) {
    // No cache layer: the probe book still wants a q identity.
    d.q_probe_hash = CanonicalTpqHash(q);
    d.have_probe_hash = true;
  }
  const Tpq& pp = *d.p;
  const Tpq& qq = *d.q;
  const VerdictKey& key = d.key;
  // The pooled program of a minimized pattern (the hotness-gated path of
  // the probe cascade and the mapped-tree validation).
  auto pooled = [&](const Tpq& pattern, uint64_t hash) {
    return programs_.Fetch(pattern,
                           ProgramKey{hash, pool_->generation(),
                                      static_cast<uint32_t>(mode)},
                           /*force=*/false, &stats);
  };

  if (d.have_key) {
    if (std::optional<VerdictEntry> hit = cache_.Get(key)) {
      if (hit->contained || !hit->counterexample_lengths.has_value()) {
        // Positive (and witness-less negative) verdicts are served on hash
        // trust alone; see the soundness discussion in verdict_cache.h.
        stats.cache_hits.fetch_add(1, std::memory_order_relaxed);
        ContainmentResult result;
        result.contained = hit->contained;
        result.algorithm = hit->algorithm;
        return result;
      }
      std::vector<int32_t> lengths = *hit->counterexample_lengths;
      lengths.resize(DescendantEdges(pp).size(), 1);
      // Mapped-tree fast path: when the refutation's canonical
      // counterexample tree came in with a snapshot, validate it zero-copy
      // against the mapped columns instead of rebuilding the canonical
      // tree.  Sound without any trust in the file: the mapped tree is
      // checked to be in L(p) and outside L(q) right here, and *any* such
      // tree refutes p ⊑ q whatever the cache key hashed to.
      if (mapped_snapshot_ != nullptr) {
        auto mt = mapped_trees_.find(key);
        if (mt != mapped_trees_.end()) {
          const TreeView tv = mapped_snapshot_->TreeAt(mt->second);
          std::shared_ptr<const MatcherProgram> p_prog =
              pooled(pp, d.pm->hash);
          std::shared_ptr<const MatcherProgram> q_prog =
              pooled(qq, d.qm->hash);
          if (p_prog != nullptr && q_prog != nullptr) {
            const bool strong = mode == Mode::kStrong;
            const std::optional<bool> p_ok =
                MatchTree(*p_prog, tv, strong, ctx);
            const std::optional<bool> q_ok =
                p_ok == true ? MatchTree(*q_prog, tv, strong, ctx)
                             : std::nullopt;
            if (q_ok == false) {
              stats.snapshot_trees_mapped.fetch_add(1,
                                                    std::memory_order_relaxed);
              stats.cache_hits.fetch_add(1, std::memory_order_relaxed);
              ContainmentResult result;
              result.contained = false;
              result.counterexample_lengths = std::move(lengths);
              result.algorithm = hit->algorithm;
              return result;
            }
            // The mapped tree did not certify (p missed it, q matched it, or
            // a charge was refused): fall through to the ordinary replay,
            // which decides from scratch.
          }
        }
      }
      std::optional<Tree> replay =
          ReplayRefutation(pp, qq, mode, lengths, pool_, ctx);
      if (replay.has_value()) {
        stats.cache_hits.fetch_add(1, std::memory_order_relaxed);
        ContainmentResult result;
        result.contained = false;
        result.counterexample = std::move(*replay);
        result.counterexample_lengths = std::move(lengths);
        result.algorithm = hit->algorithm;
        return result;
      }
      if (ctx->budget().Exhausted()) return ExhaustedResult(ctx);
      // The cached witness did not transfer (key collision); fall through
      // to the live pipeline.
    }
  }

  // Subsumption-lattice layer: on a cache miss, try to *derive* the verdict
  // from neighbouring cached verdicts before running any decision
  // procedure.  Stitching walks validated "contained" edges forward only
  // (p ⊑ r, r ⊑ q ⇒ p ⊑ q by transitivity); borrowing replays a
  // neighbour's counterexample lengths through ReplayRefutation, which
  // rebuilds the induced canonical tree of the *live* p — so neither path
  // can be fooled by a digest collision.  Derived verdicts are cached, so
  // the derivation happens once per pair.
  if (d.have_key && lattice_ != nullptr && options_.use_lattice &&
      !ctx->budget().Exhausted()) {
    if (lattice_->Stitch(d.pm->digest, d.qm->digest, mode, options.bound,
                         key.pool_generation, &ctx->budget())) {
      stats.lattice_stitch_hits.fetch_add(1, std::memory_order_relaxed);
      ContainmentResult result;
      result.contained = true;
      result.algorithm = ContainmentAlgorithm::kCanonicalEnumeration;
      // Recording the edge short-circuits future stitches of this pair to
      // one hop.
      return FinishDecision(d, std::move(result), ctx);
    }
    if (ctx->budget().Exhausted()) return ExhaustedResult(ctx);
    const size_t num_edges = DescendantEdges(pp).size();
    std::vector<std::vector<int32_t>> candidates = lattice_->BorrowCandidates(
        d.pm->digest, d.qm->digest, mode, options.bound, key.pool_generation,
        VerdictLattice::kWitnessLimit);
    for (std::vector<int32_t>& lengths : candidates) {
      lengths.resize(num_edges, 1);
      std::optional<Tree> replay =
          ReplayRefutation(pp, qq, mode, lengths, pool_, ctx);
      if (replay.has_value()) {
        stats.witness_borrow_refutes.fetch_add(1, std::memory_order_relaxed);
        ContainmentResult result;
        result.contained = false;
        result.counterexample = std::move(*replay);
        result.counterexample_lengths = std::move(lengths);
        result.algorithm = ContainmentAlgorithm::kCanonicalEnumeration;
        return FinishDecision(d, std::move(result), ctx);
      }
      if (ctx->budget().Exhausted()) return ExhaustedResult(ctx);
    }
  }

  if (options_.use_prefilters && !ctx->budget().Exhausted()) {
    // Accept filter: a homomorphism q -> p witnesses containment in every
    // fragment (root-to-root for the strong flavour), skipping the general
    // route for the contained majority of repeated workloads.
    bool budget_ok =
        ctx->budget().Charge(static_cast<int64_t>(qq.size()) * pp.size());
    if (budget_ok) {
      stats.homomorphism_checks.fetch_add(1, std::memory_order_relaxed);
      auto scratch = ctx->scratch().Acquire<HomomorphismScratch>();
      budget_ok = scratch->ChargeTables(qq, pp, &ctx->budget());
      if (budget_ok &&
          HomomorphismExists(qq, pp, /*root_to_root=*/mode == Mode::kStrong,
                             scratch.get())) {
        stats.prefilter_accepts.fetch_add(1, std::memory_order_relaxed);
        ContainmentResult result;
        result.contained = true;
        result.algorithm = ContainmentAlgorithm::kHomomorphism;
        return FinishDecision(d, std::move(result), ctx);
      }
    }
    if (budget_ok) {
      // Refute filter: every canonical tree of p is in L_w(p) and L_s(p),
      // so q failing to match one refutes containment outright.  Probe the
      // two cheap extremes plus length vectors that refuted this q before.
      const size_t num_edges = DescendantEdges(pp).size();
      std::vector<std::vector<int32_t>> probes;
      probes.emplace_back(num_edges, 0);
      probes.emplace_back(num_edges, 1);
      if (d.have_probe_hash) {
        for (std::vector<int32_t>& recorded :
             ProbesFor(ProbeKey{d.q_probe_hash, mode})) {
          recorded.resize(num_edges, 1);
          probes.push_back(std::move(recorded));
        }
      }
      // Compiled probe path: the probe loop evaluates one minimized q
      // against a handful of canonical trees — exactly the single-tree
      // shape the program pool's hotness threshold gates, so only patterns
      // seen often enough pay the compile.
      std::shared_ptr<const MatcherProgram> program =
          pooled(qq, d.have_probe_hash ? d.q_probe_hash : CanonicalTpqHash(qq));
      for (std::vector<int32_t>& lengths : probes) {
        Tree t = CanonicalTree(pp, lengths, pool_->Bottom());
        stats.canonical_trees_enumerated.fetch_add(1,
                                                   std::memory_order_relaxed);
        const std::optional<bool> matches =
            MatchTree(qq, program.get(), t, mode == Mode::kStrong, ctx);
        if (!matches.has_value()) {
          budget_ok = false;
          break;
        }
        if (!*matches) {
          stats.prefilter_refutes.fetch_add(1, std::memory_order_relaxed);
          ContainmentResult result;
          result.contained = false;
          result.algorithm = ContainmentAlgorithm::kCanonicalEnumeration;
          result.counterexample = std::move(t);
          result.counterexample_lengths = std::move(lengths);
          return FinishDecision(d, std::move(result), ctx);
        }
      }
    }
    if (!budget_ok) return ExhaustedResult(ctx);
  }

  // Every fast-path layer passed: the pair needs the real dispatcher.
  if (defer != nullptr) {
    d.active = true;
    return ContainmentResult{};
  }
  return FinishDecision(d, tpc::Contains(pp, qq, mode, pool_, ctx, options),
                        ctx);
}

ContainmentResult QueryService::FinishDecision(const PendingDecision& d,
                                               ContainmentResult result,
                                               EngineContext* ctx) {
  EngineStats& stats = ctx->stats();
  if (result.outcome == Outcome::kDecided) {
    if (result.counterexample_lengths.has_value() && d.have_probe_hash) {
      RecordProbe(ProbeKey{d.q_probe_hash, d.mode},
                  *result.counterexample_lengths);
    }
    if (d.have_key) {
      VerdictEntry entry;
      entry.contained = result.contained;
      entry.algorithm = result.algorithm;
      // The entry takes the result's own vector and the caller a copy.
      // `VerdictEntryCost` charges capacity, so which vector the cache holds
      // (a probe vector resized in place keeps its spare capacity) decides
      // the entry's byte charge and with it the cache's evictions.
      entry.counterexample_lengths = std::move(result.counterexample_lengths);
      result.counterexample_lengths = entry.counterexample_lengths;
      stats.cache_evictions.fetch_add(cache_.Put(d.key, std::move(entry)),
                                      std::memory_order_relaxed);
      if (lattice_ != nullptr) {
        lattice_->Record(*d.p, d.pm->digest, *d.q, d.qm->digest, d.mode,
                         d.options.bound, d.key.pool_generation,
                         result.contained,
                         result.counterexample_lengths.has_value()
                             ? &*result.counterexample_lengths
                             : nullptr);
      }
    }
  }
  // Exhausted results are deliberately never cached: a partial sweep's
  // verdict is not a verdict.
  return result;
}

void QueryService::DecideDeferred(std::vector<PendingRef>* refs,
                                  EngineContext* group_ctx,
                                  bool parallel_groups) {
  // Group by (p identity, mode).  Buckets key on the enumeration-side
  // pattern's canonical hash; within a bucket the representative pattern is
  // compared structurally, so a hash collision degrades to a separate group
  // — never to a wrong grouping.
  struct Group {
    Mode mode;
    const Tpq* p;
    std::vector<PendingRef> members;
  };
  std::vector<Group> groups;
  std::unordered_map<uint64_t, std::vector<size_t>> by_hash;
  for (PendingRef& r : *refs) {
    const uint64_t p_hash =
        r.d->pm != nullptr ? r.d->pm->hash : CanonicalTpqHash(*r.d->p);
    std::vector<size_t>& bucket = by_hash[p_hash];
    bool placed = false;
    for (size_t gi : bucket) {
      Group& g = groups[gi];
      if (g.mode == r.d->mode && *g.p == *r.d->p) {
        g.members.push_back(r);
        placed = true;
        break;
      }
    }
    if (!placed) {
      bucket.push_back(groups.size());
      groups.push_back(Group{r.d->mode, r.d->p, {r}});
    }
  }
  auto decide_group = [this, group_ctx](Group& g) {
    std::vector<GroupMember> members;
    members.reserve(g.members.size());
    for (PendingRef& r : g.members) members.push_back({r.d->q, r.ctx});
    std::vector<ContainmentResult> results = tpc::ContainsGroup(
        *g.p, members, g.mode, pool_, group_ctx, g.members[0].d->options);
    for (size_t i = 0; i < g.members.size(); ++i) {
      *g.members[i].result = FinishDecision(
          *g.members[i].d, std::move(results[i]), g.members[i].ctx);
    }
  };
  if (parallel_groups && groups.size() > 1 && ctx_->threads() > 1) {
    ctx_->pool().ParallelFor(static_cast<int64_t>(groups.size()),
                             [&](int64_t gi) {
                               decide_group(groups[static_cast<size_t>(gi)]);
                             });
  } else {
    for (Group& g : groups) decide_group(g);
  }
}

ContainmentResult QueryService::Contains(const Tpq& p, const Tpq& q,
                                         Mode mode) {
  return DecideOne(p, q, mode, /*in_worker=*/false, ctx_);
}

ContainmentResult QueryService::ContainsFor(const Tpq& p, const Tpq& q,
                                            Mode mode,
                                            EngineContext* request_ctx) {
  // in_worker: the caller is (by contract) one of many concurrent threads,
  // so sweeps must stay sequential exactly as in the batch fan-out.
  return DecideOne(p, q, mode, /*in_worker=*/true, request_ctx);
}

std::vector<ContainmentResult> QueryService::ContainsGroupFor(
    const std::vector<GroupQuery>& queries) {
  std::vector<ContainmentResult> results(queries.size());
  if (queries.empty()) return results;
  std::vector<PendingDecision> pending(queries.size());
  std::vector<PendingRef> refs;
  // Shared sweep work (tree builds, enumeration) is accounted on the first
  // deferred member's context — the group's "leader" request.
  EngineContext* group_ctx = nullptr;
  for (size_t i = 0; i < queries.size(); ++i) {
    const GroupQuery& gq = queries[i];
    results[i] = DecideOne(*gq.p, *gq.q, gq.mode, /*in_worker=*/true, gq.ctx,
                           &pending[i]);
    if (pending[i].active) {
      if (group_ctx == nullptr) group_ctx = gq.ctx;
      refs.push_back({&pending[i], &results[i], gq.ctx});
    }
  }
  // The caller is one worker thread: groups decide serially on it.
  if (!refs.empty()) {
    DecideDeferred(&refs, group_ctx, /*parallel_groups=*/false);
  }
  return results;
}

std::vector<ContainmentResult> QueryService::ContainsBatch(
    const std::vector<BatchItem>& items) {
  std::vector<ContainmentResult> results(items.size());
  if (items.empty()) return results;

  // Fold exact repeats before any real work: zipf-style workloads repeat
  // pairs verbatim, and one decision serves every copy.  (Dedup is by raw
  // canonical hash — the same 64-bit trust as the cache key; minimization-
  // equivalent variants are folded later by the verdict cache instead.)
  struct DedupKey {
    uint64_t p_hash;
    uint64_t q_hash;
    Mode mode;
    bool operator==(const DedupKey& o) const {
      return p_hash == o.p_hash && q_hash == o.q_hash && mode == o.mode;
    }
  };
  struct DedupKeyHash {
    size_t operator()(const DedupKey& k) const {
      uint64_t h = k.p_hash * 0x9e3779b97f4a7c15ULL;
      h ^= k.q_hash + (h << 6) + (h >> 2);
      h ^= static_cast<uint64_t>(k.mode);
      return static_cast<size_t>(h * 0xbf58476d1ce4e5b9ULL);
    }
  };
  std::unordered_map<DedupKey, size_t, DedupKeyHash> slot_of;
  std::vector<size_t> representative;  // unique slot -> item index
  std::vector<size_t> owner(items.size());
  int64_t folded = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    DedupKey k{CanonicalTpqHash(items[i].p), CanonicalTpqHash(items[i].q),
               items[i].mode};
    auto [it, inserted] = slot_of.emplace(k, representative.size());
    if (inserted) {
      representative.push_back(i);
    } else {
      ++folded;
    }
    owner[i] = it->second;
  }
  ctx_->stats().batch_deduped.fetch_add(folded, std::memory_order_relaxed);

  std::vector<ContainmentResult> unique_results(representative.size());
  // Pairs the fast path cannot answer are deferred in stage 1 and decided in
  // stage 2, where items sharing an enumeration-side pattern run one
  // canonical-model sweep together.
  std::vector<PendingDecision> pending(representative.size());
  const bool parallel = ctx_->threads() > 1 && representative.size() > 1;
  if (parallel) {
    // Workers force sequential sweeps: ParallelFor must not reenter.
    ctx_->pool().ParallelFor(
        static_cast<int64_t>(representative.size()), [&](int64_t u) {
          const BatchItem& item = items[representative[static_cast<size_t>(u)]];
          unique_results[static_cast<size_t>(u)] =
              DecideOne(item.p, item.q, item.mode, /*in_worker=*/true, ctx_,
                        &pending[static_cast<size_t>(u)]);
        });
  } else {
    for (size_t u = 0; u < representative.size(); ++u) {
      const BatchItem& item = items[representative[u]];
      unique_results[u] = DecideOne(item.p, item.q, item.mode,
                                    /*in_worker=*/false, ctx_, &pending[u]);
    }
  }
  std::vector<PendingRef> refs;
  for (size_t u = 0; u < representative.size(); ++u) {
    if (pending[u].active) {
      refs.push_back({&pending[u], &unique_results[u], ctx_});
    }
  }
  // Independent groups fan out only when stage 1 already forced sequential
  // sweeps onto the deferred options.
  if (!refs.empty()) DecideDeferred(&refs, ctx_, parallel);
  for (size_t i = 0; i < items.size(); ++i) {
    results[i] = unique_results[owner[i]];
  }
  return results;
}

bool QueryService::SaveSnapshot(const std::string& path, std::string* error) {
  if (!options_.use_cache || lattice_ == nullptr) {
    if (error != nullptr) *error = "snapshot: save requires the cache layer";
    return false;
  }
  // The bottom label of persisted counterexample trees must be interned
  // *before* the label section is frozen, so every tree label is in-file.
  const LabelId bottom = pool_->Fresh("_snapbot");
  const uint64_t generation = pool_->generation();
  SnapshotWriter writer(&ctx_->budget());
  if (!writer.SetLabels(*pool_)) {
    if (error != nullptr) *error = "snapshot: label-section charge refused";
    return false;
  }

  std::vector<std::pair<VerdictKey, VerdictEntry>> entries;
  cache_.ForEach([&entries](const VerdictKey& k, const VerdictEntry& e) {
    entries.emplace_back(k, e);
  });

  // Cache keys are 64-bit hashes; the lattice maps them back to the
  // minimized patterns the file stores verbatim.  Unresolvable or
  // lane-ambiguous hashes drop their entries — persisting under the wrong
  // pattern would be unsound, skipping is merely cold.
  std::unordered_map<uint64_t, uint32_t> pattern_index;
  std::unordered_map<uint64_t, Tpq> pattern_of;
  auto index_of = [&](uint64_t hash) -> std::optional<uint32_t> {
    if (auto it = pattern_index.find(hash); it != pattern_index.end()) {
      return it->second;
    }
    std::optional<std::pair<Tpq, TpqDigest>> found = lattice_->FindByHash(hash, generation);
    if (!found.has_value()) return std::nullopt;
    std::optional<uint32_t> idx =
        writer.AddPattern(found->first, found->second);
    if (!idx.has_value()) return std::nullopt;
    pattern_index.emplace(hash, *idx);
    pattern_of.emplace(hash, std::move(found->first));
    return idx;
  };

  for (const auto& [key, entry] : entries) {
    // One budget step per entry: cancellation or step faults abort the save
    // before any file exists — never a partial snapshot.
    if (!ctx_->budget().Charge(1)) {
      if (error != nullptr) *error = "snapshot: save aborted (budget)";
      return false;
    }
    if (key.pool_generation != generation) continue;
    const std::optional<uint32_t> pi = index_of(key.p_hash);
    const std::optional<uint32_t> qi = index_of(key.q_hash);
    if (!pi.has_value() || !qi.has_value()) continue;
    SnapshotVerdict v;
    v.p_index = *pi;
    v.q_index = *qi;
    v.mode_tag = static_cast<uint8_t>(key.mode);
    v.bound_tag = static_cast<uint8_t>(key.bound);
    v.contained = entry.contained;
    v.algorithm_tag = static_cast<uint8_t>(entry.algorithm);
    if (!entry.contained && entry.counterexample_lengths.has_value()) {
      std::vector<int32_t> lengths = *entry.counterexample_lengths;
      const Tpq& pm = pattern_of.at(key.p_hash);
      lengths.resize(DescendantEdges(pm).size(), 1);
      // Materialize the counterexample canonical tree so a warm start can
      // validate the refutation zero-copy against the mapped columns.
      Tree t = CanonicalTree(pm, lengths, bottom);
      if (std::optional<uint32_t> ti = writer.AddTree(t)) {
        v.tree_index = static_cast<int32_t>(*ti);
      }
      v.witness = std::move(lengths);
    }
    writer.AddVerdict(v);  // a refused entry is simply absent from the file
  }

  for (const ProgramKey& pk : programs_.HotKeys()) {
    if (pk.pool_generation != generation) continue;
    const std::optional<uint32_t> idx = index_of(pk.pattern_hash);
    if (!idx.has_value()) continue;
    writer.AddHotProgram(SnapshotHotProgram{*idx, pk.mode_tag});
  }
  return writer.WriteTo(path, error);
}

bool QueryService::LoadSnapshot(const std::string& path, std::string* error) {
  if (!options_.use_cache || lattice_ == nullptr) {
    if (error != nullptr) *error = "snapshot: load requires the cache layer";
    return false;
  }
  auto reader = std::make_unique<SnapshotReader>();
  if (!reader->Open(path, &ctx_->budget(), error)) return false;
  EngineStats& stats = ctx_->stats();
  const uint64_t generation = pool_->generation();

  // Intern the snapshot's spellings into the live pool.  When the live ids
  // come out identical (the fresh-pool warm-start case), the mapped trees'
  // label columns are valid against the live pool and can serve zero-copy.
  std::vector<LabelId> remap(reader->label_count());
  bool identity = true;
  for (uint32_t i = 0; i < reader->label_count(); ++i) {
    remap[i] = pool_->Intern(reader->LabelAt(i));
    identity = identity && remap[i] == i;
  }

  struct LoadedPattern {
    Tpq tpq;
    TpqDigest digest;
    bool ok = false;
  };
  std::vector<LoadedPattern> pats(reader->pattern_count());
  for (uint32_t i = 0; i < reader->pattern_count(); ++i) {
    if (!ctx_->budget().Charge(1)) {
      if (error != nullptr) *error = "snapshot: load aborted (budget)";
      return false;
    }
    const SnapshotReader::PatternRecord& rec = reader->PatternAt(i);
    // The wide-digest equality re-check: recompute both 64-bit lanes in the
    // file's own id space and compare with the stored digest, so a record
    // whose structure silently drifted from its digest never seeds a key.
    if (!VerifySnapshotPatternDigest(rec)) continue;
    std::optional<Tpq> q = BuildSnapshotTpq(rec, remap);
    if (!q.has_value()) continue;
    pats[i].tpq = std::move(*q);
    pats[i].digest = CanonicalTpqDigest(pats[i].tpq);
    pats[i].ok = true;
  }

  // Stage every accepted verdict first, commit only after all charged loops
  // pass: a budget abort anywhere in the scan must leave the service exactly
  // as cold as before — never with a partially seeded cache or lattice.
  struct StagedVerdict {
    VerdictKey key;
    VerdictEntry entry;
    uint32_t p_index = 0;
    uint32_t q_index = 0;
    int32_t tree_index = -1;
  };
  std::vector<StagedVerdict> staged;
  for (uint32_t i = 0; i < reader->verdict_count(); ++i) {
    if (!ctx_->budget().Charge(1)) {
      if (error != nullptr) *error = "snapshot: load aborted (budget)";
      return false;
    }
    const SnapshotReader::VerdictRecord& rec = reader->VerdictAt(i);
    if (rec.mode_tag > 1 || rec.bound_tag > 1 ||
        rec.algorithm_tag >= kNumDispatchAlgorithms) {
      continue;
    }
    const LoadedPattern& pl = pats[rec.p_index];
    const LoadedPattern& ql = pats[rec.q_index];
    if (!pl.ok || !ql.ok) continue;
    const Mode mode = static_cast<Mode>(rec.mode_tag);
    const auto bound = static_cast<ContainmentOptions::Bound>(rec.bound_tag);
    StagedVerdict sv;
    sv.key = VerdictKey{pl.digest.lo, ql.digest.lo, mode, bound, generation};
    sv.p_index = rec.p_index;
    sv.q_index = rec.q_index;
    sv.entry.contained = rec.contained;
    sv.entry.algorithm = static_cast<ContainmentAlgorithm>(rec.algorithm_tag);
    if (!rec.contained && rec.witness_len > 0) {
      std::vector<int32_t> lengths(rec.witness,
                                   rec.witness + rec.witness_len);
      bool sane = true;
      for (int32_t len : lengths) sane = sane && len >= 0;
      if (sane) sv.entry.counterexample_lengths = std::move(lengths);
    }
    if (sv.entry.counterexample_lengths.has_value() && rec.tree_index >= 0 &&
        identity) {
      sv.tree_index = rec.tree_index;
    }
    staged.push_back(std::move(sv));
  }

  // Commit phase: no budget charges from here on, so the adoption below is
  // all-or-nothing with respect to injected faults.  (Individual Put/Record
  // refusals under byte pressure still just drop that entry — the usual
  // accelerator semantics, not a partial-file hazard.)
  std::unordered_map<VerdictKey, uint32_t, VerdictKeyHash> mapped;
  for (StagedVerdict& sv : staged) {
    const LoadedPattern& pl = pats[sv.p_index];
    const LoadedPattern& ql = pats[sv.q_index];
    const Mode mode = sv.key.mode;
    if (sv.entry.counterexample_lengths.has_value()) {
      RecordProbe(ProbeKey{ql.digest.lo, mode},
                  *sv.entry.counterexample_lengths);
      if (sv.tree_index >= 0) {
        mapped.emplace(sv.key, static_cast<uint32_t>(sv.tree_index));
      }
    }
    lattice_->Record(pl.tpq, pl.digest, ql.tpq, ql.digest, mode, sv.key.bound,
                     generation, sv.entry.contained,
                     sv.entry.counterexample_lengths.has_value()
                         ? &*sv.entry.counterexample_lengths
                         : nullptr);
    SeedMinimized(pl.tpq, pl.digest, mode);
    SeedMinimized(ql.tpq, ql.digest, mode);
    stats.cache_evictions.fetch_add(cache_.Put(sv.key, std::move(sv.entry)),
                                    std::memory_order_relaxed);
  }

  for (uint32_t i = 0; i < reader->hot_program_count(); ++i) {
    const SnapshotHotProgram& rec = reader->HotProgramAt(i);
    const LoadedPattern& pl = pats[rec.pattern_index];
    if (!pl.ok || rec.mode_tag > 1) continue;
    programs_.Warm(ProgramKey{pl.digest.lo, generation, rec.mode_tag});
  }

  // Adopt the mapping last: the fast path only ever sees a fully-loaded
  // snapshot, and an aborted load above leaves the service merely cold.
  mapped_snapshot_ = std::move(reader);
  mapped_trees_ = std::move(mapped);
  return true;
}

}  // namespace tpc
