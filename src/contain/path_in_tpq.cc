// Theorem 3.2(1): weak containment of PQ(/,//,*) in TPQ(/,//,*) in
// polynomial time, following Lemmas B.1 and B.2 of the paper.
//
// The algorithm recurses on islands.  Writing p = w // p' with w the topmost
// island (a child-edge word) and t_w its unique canonical tree:
//   * if the topmost island of q does not embed into t_w, then (Lemma B.1)
//     L_w(p) ⊆ L_w(q) iff L_w(*^{|w|}(p')) ⊆ L_w(q);
//   * otherwise, with m the minimal depth at which q's topmost island embeds
//     into t_w, containment holds iff for every island root x hanging below
//     q's topmost island, L_w(cut^{m+d(x)}(p)) ⊆ L_w(subquery(x))
//     (Lemma B.2).
// All subproblems have the form (wildcard-prefixed suffix of p, island root
// of q), so memoization keeps the recursion polynomial.

#include <cassert>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "contain/containment.h"
#include "match/embedding.h"
#include "pattern/canonical.h"
#include "pattern/normalize.h"

namespace tpc {
namespace {

/// Extracts the topmost island of `q`'s subquery at `x` as a standalone
/// child-edge pattern, and lists the descendant-edge children hanging below
/// it together with their depths relative to `x`.
struct TopIsland {
  Tpq pattern;                      // the island, child edges only
  std::vector<NodeId> below;        // island roots hanging below, ids in q
  std::vector<int32_t> below_depth; // depth of each, relative to x
};

TopIsland ExtractTopIsland(const Tpq& q, NodeId x) {
  TopIsland out;
  // Walk the island via child edges, building the island pattern in step.
  std::vector<std::pair<NodeId, NodeId>> queue;  // (q node, island parent)
  out.pattern.AddRoot(q.Label(x));
  std::map<NodeId, int32_t> rel_depth;
  rel_depth[x] = 0;
  queue.emplace_back(x, 0);
  for (size_t i = 0; i < queue.size(); ++i) {
    auto [v, island_node] = queue[i];
    for (NodeId c = q.FirstChild(v); c != kNoNode; c = q.NextSibling(c)) {
      if (q.Edge(c) == EdgeKind::kChild) {
        NodeId copy =
            out.pattern.AddChild(island_node, q.Label(c), EdgeKind::kChild);
        rel_depth[c] = rel_depth[v] + 1;
        queue.emplace_back(c, copy);
      } else {
        out.below.push_back(c);
        out.below_depth.push_back(rel_depth[v] + 1);
      }
    }
  }
  return out;
}

class PathInTpqSolver {
 public:
  PathInTpqSolver(const Tpq& q, LabelPool* pool, EngineContext* ctx)
      : q_(Normalize(q)), pool_(pool), ctx_(ctx),
        bottom_(pool->Bottom()) {}

  /// Decides L_w(p) ⊆ L_w(subquery_q(x)) for a path query p.  Bails out
  /// (returning false) once the engine budget is exhausted; the dispatcher
  /// translates that into Outcome::kResourceExhausted.
  bool Solve(const Tpq& p, NodeId x) {
    auto key = std::make_pair(p.ToString(*pool_), x);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    bool result = Compute(p, x);
    memo_.emplace(std::move(key), result);
    return result;
  }

 private:
  bool Compute(const Tpq& p, NodeId x) {
    assert(IsPathQuery(p));
    if (!ctx_->budget().Charge(1 + p.size() + q_.size())) return false;
    // Find the first descendant edge along the path; path node ids are
    // consecutive along the chain.
    int32_t first_desc = -1;
    for (NodeId v = 1; v < p.size(); ++v) {
      if (p.Edge(v) == EdgeKind::kDescendant) {
        first_desc = v;
        break;
      }
    }
    if (first_desc < 0) {
      // p is a single island: it has a unique canonical tree.
      Tree t = MinimalCanonicalTree(p, bottom_);
      return MatchesWeak(q_.Subquery(x), t, &ctx_->stats());
    }
    int32_t w_len = first_desc;  // |w|: nodes 0 .. first_desc-1
    // The canonical tree of w is the word t_w.
    Tree t_w;
    for (NodeId v = 0; v < w_len; ++v) {
      LabelId label = p.IsWildcard(v) ? bottom_ : p.Label(v);
      if (v == 0) {
        t_w.AddRoot(label);
      } else {
        t_w.AddChild(v - 1, label);
      }
    }
    TopIsland top = ExtractTopIsland(q_, x);
    Matcher matcher(top.pattern, t_w, &ctx_->stats());
    int32_t m = -1;
    for (NodeId i = 0; i < t_w.size(); ++i) {
      if (matcher.SatAt(0, i)) {
        m = i;
        break;
      }
    }
    if (m < 0) {
      // Lemma B.1: q's topmost island cannot use the letters of w; drop w.
      Tpq rest = PrependWildcards(p.Subquery(first_desc), w_len);
      return Solve(rest, x);
    }
    // Lemma B.2: recurse below the topmost island of q.
    for (size_t i = 0; i < top.below.size(); ++i) {
      int32_t cut = m + top.below_depth[i];
      assert(cut <= w_len);
      if (!Solve(p.Subquery(cut), top.below[i])) return false;
    }
    return true;
  }

  Tpq q_;
  LabelPool* pool_;
  EngineContext* ctx_;
  LabelId bottom_;
  std::map<std::pair<std::string, NodeId>, bool> memo_;
};

}  // namespace

bool PathInTpqContained(const Tpq& p, const Tpq& q, LabelPool* pool,
                        EngineContext* ctx) {
  assert(IsPathQuery(p));
  return PathInTpqSolver(q, pool, ctx).Solve(p, 0);
}

}  // namespace tpc
