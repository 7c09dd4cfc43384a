// Weak and strong embeddings of tree pattern queries into trees
// (Definition 2.1 and Figure 1 of the paper).
//
// `MatcherWorkspace` runs a bottom-up dynamic program over (pattern node,
// tree node) pairs in O(|q| * |t| * ceil(|q|/64)) time, with the per-tree-node
// DP rows packed into uint64 bitset words over pattern nodes.  Rows are laid
// out in *postorder* (via `Tree::View()`), so the fill is one linear sweep
// over contiguous columns: children of the node at postorder position `i`
// occupy the span `[i - subtree_size + 1, i - 1]` and are folded with
// whole-word ORs before `i` itself is computed.
//
// The fill is *word-parallel*: it never tests candidates one by one.  It
// computes the set of unsatisfied requirement bits in whole words —
// `missing = targets & ~acc` — and scatters each missing bit to a `failed`
// bit on its pattern parent; a row is then `labels_ok & ~failed`.  Leaf
// columns skip the fold entirely: `labels_ok & ~internal_mask` (a pattern
// node with children can never embed at a tree leaf).  Work per column:
// O(words + #missing bits).  This is the generic kernel: it serves every
// pattern size, and src/compile/ runs the single-word (<= 64-node) patterns
// it has compiled; tests/reference_sweep.h holds the bitset-free oracle.
//
// The workspace keeps its tables alive across evaluations, so the
// canonical-sweep hot loops run allocation-free, and `EvalIncremental`
// refills only the postorder suffix invalidated by a spine-suffix rebuild
// (the changed tail plus the ancestor path of the cut), reusing all others.
//
// `Matcher` is the one-shot wrapper (evaluates in the constructor) for
// callers that read the tables (node selection, witnesses).  Budgeted
// single-tree decisions go through `MatchTree` (compile/sweep_bank.h),
// which charges and pools this workspace.

#ifndef TPC_MATCH_EMBEDDING_H_
#define TPC_MATCH_EMBEDDING_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "engine/stats.h"
#include "engine/tracked.h"
#include "pattern/tpq.h"
#include "tree/tree.h"

namespace tpc {

/// Reusable embedding evaluator.  One workspace serves many (pattern, tree)
/// evaluations; buffers grow to the largest instance seen and are never
/// freed, so enumeration sweeps allocate only on their first few iterations.
/// Not thread-safe: use one workspace per sweep worker.
class MatcherWorkspace {
 public:
  MatcherWorkspace() = default;

  /// Accounts the bytes an evaluation of `q` against `t` will occupy — the
  /// DP tables plus the tree's columnar storage (creation-order and derived
  /// postorder columns) — through `budget` (high-water: a reused workspace
  /// charges only growth beyond the largest instance seen).  Returns false
  /// when the budget refuses — the caller should then report memory
  /// exhaustion instead of calling `Eval*`.  Sweep loops call this once per
  /// tree, before the evaluation.
  bool ChargeTables(const Tpq& q, const Tree& t, Budget* budget) {
    tracked_.Attach(budget);
    const int64_t words =
        static_cast<int64_t>((q.size() + 63) / 64);
    return tracked_.Reserve(2 * static_cast<int64_t>(t.size()) * words *
                                static_cast<int64_t>(sizeof(uint64_t)) +
                            t.ColumnBytes());
  }

  /// Evaluates `q` against `t` from scratch.  The pattern-side tables are
  /// rebuilt only when `q` is not the pattern of the previous evaluation.
  /// With a non-null `stats`, reports one attempted embedding,
  /// `|q| * |t|` DP cells filled, and the kernel counters
  /// (`dp_words_folded`, `dp_rows_skipped`).
  void EvalFull(const Tpq& q, const Tree& t, EngineStats* stats = nullptr);

  /// Re-evaluates after an incremental tree rebuild.  Precondition: the
  /// previous `Eval*` call on this workspace used the same `q` and the same
  /// tree object, whose nodes with id < `stable_limit` (ids, labels and
  /// subtree structure) are unchanged — exactly what
  /// `CanonicalTreeBuilder::BuildSuffix` guarantees with
  /// `stable_limit = spine_start(first_changed)`.  For such DFS-built trees
  /// the unchanged nodes that are not ancestors of the cut keep their
  /// postorder positions and form the postorder prefix
  /// `[0, stable_limit - depth(stable_limit))`; only the suffix after it —
  /// the rebuilt tail plus the ancestor path of the cut — is recomputed.
  /// Every reused column is reported via `EngineStats::dp_cells_reused`.
  void EvalIncremental(const Tpq& q, const Tree& t, NodeId stable_limit,
                       EngineStats* stats = nullptr);

  /// True iff `t` is in the weak language L_w(q).
  bool MatchesWeak() const;

  /// True iff `t` is in the strong language L_s(q) (root maps to root).
  bool MatchesStrong() const;

  /// True iff subquery(v) embeds with `v` mapped to tree node `x`.
  bool SatAt(NodeId v, NodeId x) const {
    return (sat_[RowOffset(view_.PostOf(x)) + (static_cast<size_t>(v) >> 6)] >>
            (static_cast<size_t>(v) & 63)) &
           1;
  }

  /// True iff subquery(v) embeds with `v` mapped somewhere in subtree(x).
  bool SatBelow(NodeId v, NodeId x) const {
    return (desc_[RowOffset(view_.PostOf(x)) + (static_cast<size_t>(v) >> 6)] >>
            (static_cast<size_t>(v) & 63)) &
           1;
  }

  /// Extracts a weak (or strong) embedding if one exists: a mapping from
  /// pattern nodes to tree nodes.  Returns std::nullopt if no embedding.
  std::optional<std::vector<NodeId>> Witness(bool strong) const;

 private:
  // Rows are indexed by *postorder position*; translate node ids through
  // `view_.PostOf` at the API boundary (SatAt / SatBelow).
  size_t RowOffset(int32_t post) const {
    return static_cast<size_t>(post) * words_;
  }
  void BindPattern(const Tpq& q);
  void ComputeColumn(int32_t i);
  void PrepareTables(const Tree& t);
  const uint64_t* LabelMask(LabelId label) const;
  void ExtractAt(NodeId v, NodeId x, std::vector<NodeId>* map) const;

  const Tpq* q_ = nullptr;
  uint64_t bound_fingerprint_ = 0;  // structural hash of *q_ at bind time
  const Tree* t_ = nullptr;
  TreeView view_;     // postorder index of t_, captured at Eval* time
  size_t words_ = 0;  // ceil(|q| / 64) bitset words per DP row

  // Pattern-side tables, rebuilt on BindPattern.
  std::vector<uint64_t> wildcard_mask_;  // wildcard pattern nodes
  std::vector<uint64_t> label_mask_store_;   // per-letter masks, |wildcard'd
  std::unordered_map<LabelId, size_t> label_mask_offset_;
  // The requirement sets, transposed: a pattern node missing from the
  // child/descendant accumulator *fails its parent*, so the scatter needs
  // each node's edge kind (targets masks) and its parent's bit address.
  std::vector<uint64_t> child_targets_;  // nodes with a child edge to parent
  std::vector<uint64_t> desc_targets_;   // nodes with a descendant edge
  std::vector<uint64_t> internal_mask_;  // pattern nodes with >= 1 child
  std::vector<uint32_t> parent_word_;    // v -> word index of Parent(v)'s bit
  std::vector<uint64_t> parent_mask_;    // v -> single-bit mask of Parent(v)

  // Tree-side tables: the row at postorder position i holds bits
  // {v : ...} packed into `words_` words.
  std::vector<uint64_t> sat_;   // subquery(v) embeds at the node at post i
  std::vector<uint64_t> desc_;  // OR of sat_ over the subtree span of i

  // Column scratch (accumulators over the children of the current node,
  // and the failed-parent bits of the scatter).
  std::vector<uint64_t> acc_child_;
  std::vector<uint64_t> acc_desc_;
  std::vector<uint64_t> failed_;

  // Per-evaluation kernel counters, flushed to EngineStats once per Eval*.
  int64_t words_folded_ = 0;
  int64_t rows_skipped_ = 0;

  // High-water accounting for the sat_/desc_ tables (see ChargeTables).
  TrackedBytes tracked_;
};

/// Evaluates one pattern against one tree.  Cheap to construct; the dynamic
/// program runs once in the constructor.
class Matcher {
 public:
  /// With a non-null `stats`, reports one attempted embedding and the number
  /// of DP cells filled.
  Matcher(const Tpq& q, const Tree& t, EngineStats* stats = nullptr) {
    ws_.EvalFull(q, t, stats);
  }

  bool MatchesWeak() const { return ws_.MatchesWeak(); }
  bool MatchesStrong() const { return ws_.MatchesStrong(); }
  bool SatAt(NodeId v, NodeId x) const { return ws_.SatAt(v, x); }
  bool SatBelow(NodeId v, NodeId x) const { return ws_.SatBelow(v, x); }
  std::optional<std::vector<NodeId>> Witness(bool strong) const {
    return ws_.Witness(strong);
  }

 private:
  MatcherWorkspace ws_;
};

/// Convenience wrappers.  The `stats` overloads count the embedding attempt
/// and its DP cells.
bool MatchesWeak(const Tpq& q, const Tree& t);
bool MatchesStrong(const Tpq& q, const Tree& t);
bool MatchesWeak(const Tpq& q, const Tree& t, EngineStats* stats);
bool MatchesStrong(const Tpq& q, const Tree& t, EngineStats* stats);

}  // namespace tpc

#endif  // TPC_MATCH_EMBEDDING_H_
