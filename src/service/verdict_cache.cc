#include "service/verdict_cache.h"

#include <utility>

#include "compile/sweep_bank.h"
#include "pattern/canonical.h"
#include "pattern/normalize.h"

namespace tpc {

int64_t VerdictEntryCost(const VerdictKey& key, const VerdictEntry& entry) {
  int64_t bytes = static_cast<int64_t>(sizeof(VerdictKey)) +
                  static_cast<int64_t>(sizeof(VerdictEntry)) +
                  // LRU node + index slot overhead, flat-rate estimate.
                  96;
  if (entry.counterexample_lengths.has_value()) {
    bytes += static_cast<int64_t>(entry.counterexample_lengths->capacity()) *
             static_cast<int64_t>(sizeof(int32_t));
  }
  return bytes;
}

std::optional<Tree> ReplayRefutation(const Tpq& p, const Tpq& q, Mode mode,
                                     std::vector<int32_t> lengths,
                                     LabelPool* pool, EngineContext* ctx) {
  // Adapt the certificate to the actual pattern: under a key collision the
  // cached vector may have the wrong arity, and *any* canonical tree of p
  // that q fails to match is a sound refutation, so padding with 1 (a one-⊥
  // chain) keeps the probe well-formed instead of rejecting it.
  lengths.resize(DescendantEdges(p).size(), 1);
  Tree t = CanonicalTree(p, lengths, pool->Bottom());
  ctx->stats().canonical_trees_enumerated.fetch_add(1,
                                                    std::memory_order_relaxed);
  const std::optional<bool> matches = MatchTree(
      Normalize(q), /*program=*/nullptr, t, mode == Mode::kStrong, ctx);
  if (matches != false) return std::nullopt;  // matched, or budget refused
  // t is a canonical tree of p, hence in both L_w(p) and L_s(p); q failing
  // to match it under `mode` makes t a counterexample no collision can fake.
  return t;
}

}  // namespace tpc
