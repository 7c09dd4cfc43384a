// A naive reference for the canonical-model sweep (Thm 3.3), shared by the
// sweep agreement suites.  It shares none of the engine's sweep machinery:
// no tree builder or suffix rebuilds, no DP column reuse, no compiled
// programs, no word-parallel kernel, no grouping.

#ifndef TPC_TESTS_REFERENCE_SWEEP_H_
#define TPC_TESTS_REFERENCE_SWEEP_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "base/label.h"
#include "contain/containment.h"
#include "match/embedding.h"
#include "pattern/canonical.h"
#include "pattern/normalize.h"
#include "pattern/tpq.h"
#include "tree/tree.h"

namespace tpc {

/// Walks the length vectors of p's descendant edges up to `max_len` (by
/// default the safe bound |q|+1) in enumeration order, builds each
/// canonical tree from scratch and decides it with a fresh scalar-kernel
/// `Matcher`.  Returns the first counterexample's length vector, or nullopt
/// when q matches every canonical model (contained).  Strong mode matches
/// root-to-root on p's own models, which is what the engine's Observation
/// 2.3 relabelling decides.
inline std::optional<std::vector<int32_t>> NaiveFirstCounterexample(
    const Tpq& p, const Tpq& q, Mode mode, LabelPool* pool,
    int32_t max_len = 0) {
  const LabelId bot = pool->Fresh("_oracle_bot");
  CanonicalLengthEnumerator lengths(
      DescendantEdges(p).size(),
      max_len > 0 ? max_len : static_cast<int32_t>(q.size()) + 1);
  do {
    const Tree t = CanonicalTree(p, lengths.lengths(), bot);
    Matcher matcher(q, t, /*stats=*/nullptr, /*word_parallel=*/false);
    const bool matched =
        mode == Mode::kStrong ? matcher.MatchesStrong() : matcher.MatchesWeak();
    if (!matched) return lengths.lengths();
  } while (lengths.Next());
  return std::nullopt;
}

/// The chain-length bound the engine sweeps (p, q) under: `CanonicalBound`
/// of the weak-phase evaluation pattern — q normalized, its root relabelled
/// with a letter in strong mode (Observation 2.3).
inline int32_t EngineSweepBound(const Tpq& q, Mode mode,
                                ContainmentOptions::Bound bound,
                                LabelPool* pool) {
  Tpq weak = q;
  if (mode == Mode::kStrong) weak.SetLabel(0, pool->Intern("_oracle_root"));
  return CanonicalBound(Normalize(weak), bound);
}

}  // namespace tpc

#endif  // TPC_TESTS_REFERENCE_SWEEP_H_
