// Reference oracles shared by the matcher and sweep agreement suites.  They
// share none of the engine's evaluation machinery: no bitsets, no postorder
// view, no compiled programs, no tree builder or suffix rebuilds, no DP
// column reuse, no grouping.
//
//  * `ReferenceEmbedding` evaluates Definition 2.1 as written: plain `bool`
//    tables over (pattern node, tree node), O(|q|·|t|²) with ancestorship
//    found by walking parent pointers.
//  * `BruteForceMatch` enumerates assignments outright.
//  * `NaiveFirstCounterexample` walks the canonical models of the
//    Theorem 3.3 sweep from scratch and decides each with the tables above.

#ifndef TPC_TESTS_REFERENCE_SWEEP_H_
#define TPC_TESTS_REFERENCE_SWEEP_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "base/label.h"
#include "contain/containment.h"
#include "pattern/canonical.h"
#include "pattern/normalize.h"
#include "pattern/tpq.h"
#include "tree/tree.h"

namespace tpc {

/// True iff `a` is a proper ancestor of `y` in `t`, by walking up from `y`.
inline bool ReferenceProperAncestor(const Tree& t, NodeId a, NodeId y) {
  for (NodeId z = t.Parent(y); z != kNoNode; z = t.Parent(z)) {
    if (z == a) return true;
  }
  return false;
}

/// The embedding relation of Definition 2.1, cell by cell.
struct ReferenceTables {
  /// sat[v][x]: subquery(v) embeds with v mapped to tree node x.
  std::vector<std::vector<bool>> sat;
  /// below[v][x]: subquery(v) embeds with v mapped somewhere in subtree(x).
  std::vector<std::vector<bool>> below;
};

/// Fills the tables bottom-up over the pattern (children have larger ids
/// than their parents): v sits at x when the labels agree and every
/// child-edge child of v sits at some child of x, every descendant-edge
/// child at some proper descendant of x.
inline ReferenceTables ReferenceEmbedding(const Tpq& q, const Tree& t) {
  const size_t nq = static_cast<size_t>(q.size());
  const size_t nt = static_cast<size_t>(t.size());
  ReferenceTables r;
  r.sat.assign(nq, std::vector<bool>(nt, false));
  r.below.assign(nq, std::vector<bool>(nt, false));
  for (NodeId v = q.size() - 1; v >= 0; --v) {
    for (NodeId x = 0; x < t.size(); ++x) {
      bool ok = q.IsWildcard(v) || q.Label(v) == t.Label(x);
      for (NodeId c = q.FirstChild(v); ok && c != kNoNode;
           c = q.NextSibling(c)) {
        bool found = false;
        for (NodeId y = 0; y < t.size() && !found; ++y) {
          const bool placed = q.Edge(c) == EdgeKind::kChild
                                  ? t.Parent(y) == x
                                  : ReferenceProperAncestor(t, x, y);
          found = placed && r.sat[c][y];
        }
        ok = found;
      }
      r.sat[v][x] = ok;
    }
    for (NodeId x = 0; x < t.size(); ++x) {
      for (NodeId y = 0; y < t.size(); ++y) {
        if (r.sat[v][y] && (y == x || ReferenceProperAncestor(t, x, y))) {
          r.below[v][x] = true;
          break;
        }
      }
    }
  }
  return r;
}

/// True iff `t` is in L_w(q), or in L_s(q) with `strong` (root to root).
inline bool ReferenceMatches(const Tpq& q, const Tree& t, bool strong) {
  if (q.empty() || t.empty()) return false;
  const ReferenceTables r = ReferenceEmbedding(q, t);
  return strong ? r.sat[0][0] : r.below[0][0];
}

/// Brute force: does an embedding exist?  Enumerates assignments.
inline bool BruteForceMatch(const Tpq& q, const Tree& t, bool strong) {
  std::vector<NodeId> map(q.size(), kNoNode);
  auto enumerate = [&](auto&& self, NodeId v) -> bool {
    if (v == q.size()) return true;
    for (NodeId x = 0; x < t.size(); ++x) {
      if (v == 0 && strong && x != 0) continue;
      if (!q.IsWildcard(v) && q.Label(v) != t.Label(x)) continue;
      if (v != 0) {
        NodeId px = map[q.Parent(v)];
        if (q.Edge(v) == EdgeKind::kChild) {
          if (t.Parent(x) != px) continue;
        } else {
          if (!ReferenceProperAncestor(t, px, x)) continue;
        }
      }
      map[v] = x;
      if (self(self, v + 1)) return true;
    }
    return false;
  };
  return enumerate(enumerate, 0);
}

/// Walks the length vectors of p's descendant edges up to `max_len` (by
/// default the safe bound |q|+1) in enumeration order, builds each
/// canonical tree from scratch and decides it with `ReferenceMatches`.
/// Returns the first counterexample's length vector, or nullopt when q
/// matches every canonical model (contained).  Strong mode matches
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
    if (!ReferenceMatches(q, t, mode == Mode::kStrong)) {
      return lengths.lengths();
    }
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
