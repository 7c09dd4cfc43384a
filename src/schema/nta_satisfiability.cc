#include "schema/nta_satisfiability.h"

#include <cassert>
#include <set>
#include <vector>

#include "automata/path_complement.h"

namespace tpc {

SchemaDecision ContainedViaConpRoute(const Tpq& p, const Tpq& q, Mode mode,
                                     const Dtd& dtd, LabelPool* pool,
                                     EngineContext* ctx,
                                     const EngineLimits& limits,
                                     const SchemaEngineOptions& options) {
  assert(IsPathQuery(q));
  std::set<LabelId> sigma_set(dtd.alphabet().begin(), dtd.alphabet().end());
  for (NodeId v = 0; v < q.size(); ++v) {
    if (!q.IsWildcard(v)) sigma_set.insert(q.Label(v));
  }
  for (NodeId v = 0; v < p.size(); ++v) {
    if (!p.IsWildcard(v)) sigma_set.insert(p.Label(v));
  }
  std::vector<LabelId> sigma(sigma_set.begin(), sigma_set.end());
  Nta product = Nta::Intersect(dtd.Automaton(),
                               ComplementOfPathQueryNta(q, sigma, mode));
  EngineStats& stats = ctx->stats();
  stats.nta_states_built.fetch_add(product.num_states(),
                                   std::memory_order_relaxed);
  stats.nta_transitions_built.fetch_add(
      static_cast<int64_t>(product.transitions().size()),
      std::memory_order_relaxed);
  SchemaDecision out =
      SatisfiableWithNta(p, mode, product, pool, ctx, limits, options);
  out.yes = !out.yes;  // contained iff no witness of p ∧ d ∧ ¬q
  return out;
}

// Legacy entry points: same algorithms against the process-default context.

SchemaDecision ContainedViaConpRoute(const Tpq& p, const Tpq& q, Mode mode,
                                     const Dtd& dtd, LabelPool* pool,
                                     const EngineLimits& limits) {
  return ContainedViaConpRoute(p, q, mode, dtd, pool,
                               &EngineContext::Default(), limits);
}

}  // namespace tpc
