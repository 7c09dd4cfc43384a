// The type-set decision for the coNP cell of Table 1 (Theorem 3.3).
//
// The canonical-model procedure decides L_w(p) ⊆ L_w(q) by matching q
// against every canonical tree of p whose descendant chains hold 0..B
// ⊥-nodes: (B+1)^k trees for k descendant edges.  q's deterministic
// bottom-up automaton (automata/tpq_det.h) assigns every tree node a state
// (Sat, Below) that depends only on the node's label and the unions of its
// children's states, so the enumeration factors through the automaton: the
// set of states q reaches at a node of p, over all canonical trees, folds
// bottom-up over p.
//
//   * A child edge passes the child's state set through.
//   * A descendant edge adds 0..B ⊥-wraps (the transition on label ⊥).
//   * A node takes the pairwise unions of its children's edge sets, then
//     applies the transition on its own label (⊥ for a wildcard).
//
// p ⊆ q iff every state reachable at p's root has Below(0) set.  The fold is
// monotone in the children's unions and non-acceptance is downward closed,
// so each set keeps only its ⊆-minimal states (an antichain): a dropped
// state always has a kept state below it, reached by real choices.  Each
// kept state remembers how it was derived — which state of each child edge,
// and how many ⊥-wraps — so a non-accepting root state unwinds into the
// chain-length vector of a canonical counterexample.  See DESIGN.md,
// "Type-set route".

#ifndef TPC_CONTAIN_TYPE_SET_H_
#define TPC_CONTAIN_TYPE_SET_H_

#include <cstdint>
#include <vector>

#include "base/label.h"
#include "engine/engine.h"
#include "pattern/tpq.h"

namespace tpc {

struct TypeSetDecision {
  /// kResourceExhausted when the budget refused a step or the state table's
  /// bytes; `contained` and `counterexample_lengths` are then meaningless.
  Outcome outcome = Outcome::kDecided;
  bool contained = false;
  /// When not contained: one chain length per descendant edge of p (in
  /// `DescendantEdges` order, each in 0..bound) whose canonical tree is
  /// outside L_w(q).  Some counterexample, not the first in enumeration
  /// order.
  std::vector<int32_t> counterexample_lengths;
};

/// Decides L_w(p) ⊆ L_w(q) over the canonical models of p with chains of at
/// most `bound` ⊥-nodes labelled `bottom` — the model space of the
/// canonical sweep at that bound.  `bottom` must be a letter outside q.
/// Charges one step per materialized state and per union pair to `ctx`'s
/// budget, plus one per eight items an antichain insertion compares
/// against, and the state table through a `TrackedBytes` scratch leased
/// from `ctx`; bumps `type_set_states` / `type_set_unions` once at the end.
TypeSetDecision TypeSetContainment(const Tpq& p, const Tpq& q, int32_t bound,
                                   LabelId bottom, EngineContext* ctx);

}  // namespace tpc

#endif  // TPC_CONTAIN_TYPE_SET_H_
