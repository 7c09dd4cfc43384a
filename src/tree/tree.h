// Node-labelled, rooted, unranked, ordered trees (Section 2.1 of the paper),
// stored as postorder-indexable columnar arrays.
//
// Trees are stored as a struct-of-arrays arena: node 0 is the root and every
// node records its parent, first child and next sibling in parallel columns.
// Nodes are created parents-before-children, which many algorithms exploit:
// iterating node ids `size()-1..0` visits children before parents
// (bottom-up).  Builders that emit depth-first (document) order — the
// canonical-model builder, the tree parser — additionally get contiguous
// subtree id ranges, which `TruncateTo` relies on.
//
// On top of the creation-order columns the tree maintains a *postorder
// index*: derived columns mapping node ids to postorder positions and back,
// with per-position subtree sizes and labels.  In postorder coordinates the
// subtree of the node at position `i` is exactly the contiguous span
// `[i - subtree_size + 1, i]`, so bottom-up dynamic programs (the embedding
// matcher, NTA runs) stream the tree linearly instead of chasing
// first-child/next-sibling pointers, and ancestor tests become O(1) span
// inclusions.  `TreeView` exposes the index as raw spans.
//
// The index is computed lazily by `View()`.  Truncations and appends keep
// it *resumable*: `TruncateTo(cut)` keeps every position left of the first
// removed node's span, and `AddChild(parent, ...)` every position below
// `parent`'s, so the next `View()` keeps the finished subtrees in that
// postorder prefix and re-indexes only the rest — for the canonical sweep's
// truncate-then-append-below-the-open-path, just the open path and the
// rebuilt suffix.  Repeated mutations resume from the lowest surviving
// prefix; an append below a finished node just lowers it.  `SetLabel`,
// `Clear`, `AddRoot` and `Graft` fall back to a full rebuild.  Either way
// the columns are identical to a from-scratch index.
//
// `View()` is lazy and cached: the *first* call after a mutation writes the
// cache, so it is not safe to race.  Callers that share a const tree across
// threads must call `View()` (or run any evaluation) once before publishing
// the tree; every subsequent concurrent `View()` is a pure read.

#ifndef TPC_TREE_TREE_H_
#define TPC_TREE_TREE_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "base/label.h"

namespace tpc {

/// Index of a node within a `Tree`.
using NodeId = int32_t;

inline constexpr NodeId kNoNode = -1;

/// Read-only raw-span view of a tree's columns plus its postorder index.
/// Invalidated by any mutation of the owning tree (re-obtain via
/// `Tree::View()`); cheap to copy (pointers + size).
///
/// Two coordinate systems coexist: *node ids* (creation order, what the
/// `Tree` API speaks) and *postorder positions* `0..size()-1` (leaves before
/// parents, root last).  `PostOf` / `NodeAtPost` translate between them.
class TreeView {
 public:
  int32_t size() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// Postorder position of node `v`.
  int32_t PostOf(NodeId v) const { return post_of_[v]; }
  /// Node id occupying postorder position `i`.
  NodeId NodeAtPost(int32_t i) const { return node_at_post_[i]; }
  /// Number of nodes in the subtree rooted at the node at position `i`.
  int32_t SubtreeSizeAtPost(int32_t i) const { return size_at_post_[i]; }
  /// Number of nodes in `subtree(v)`.
  int32_t SubtreeSize(NodeId v) const { return size_at_post_[post_of_[v]]; }
  /// Label of the node at postorder position `i`.
  LabelId LabelAtPost(int32_t i) const { return label_at_post_[i]; }
  /// Parent of node `v` (kNoNode for the root).
  NodeId Parent(NodeId v) const { return parent_[v]; }
  LabelId Label(NodeId v) const { return labels_[v]; }

  /// First position of the subtree span ending at position `i`:
  /// `subtree` = `[SpanBegin(i), i]`, with `i` the subtree's root.
  int32_t SpanBegin(int32_t i) const { return i - size_at_post_[i] + 1; }

  /// O(1) ancestorship via span inclusion: `v` is in `subtree(a)` iff its
  /// postorder position falls inside a's span.
  bool IsAncestorOrSelf(NodeId a, NodeId v) const {
    int32_t pa = post_of_[a];
    int32_t pv = post_of_[v];
    return SpanBegin(pa) <= pv && pv <= pa;
  }
  bool IsProperAncestor(NodeId a, NodeId v) const {
    return a != v && IsAncestorOrSelf(a, v);
  }

  /// Iterates the child *roots* of the subtree span ending at `i`, right to
  /// left: the last child's root sits at `i-1`, and each previous sibling's
  /// root is found by skipping the intervening subtree span.  Usage:
  ///   for (int32_t c = view.LastChild(i); c >= view.SpanBegin(i);
  ///        c = view.PrevSibling(c)) { ... }
  int32_t LastChild(int32_t i) const { return i - 1; }
  int32_t PrevSibling(int32_t c) const { return c - size_at_post_[c]; }

  // Raw spans (length `size()`), for kernels that index directly.
  const LabelId* labels() const { return labels_; }
  const NodeId* parent() const { return parent_; }
  const int32_t* post_of() const { return post_of_; }
  const NodeId* node_at_post() const { return node_at_post_; }
  const int32_t* size_at_post() const { return size_at_post_; }
  const LabelId* label_at_post() const { return label_at_post_; }

 private:
  friend class Tree;
  const LabelId* labels_ = nullptr;
  const NodeId* parent_ = nullptr;
  const int32_t* post_of_ = nullptr;
  const NodeId* node_at_post_ = nullptr;
  const int32_t* size_at_post_ = nullptr;
  const LabelId* label_at_post_ = nullptr;
  int32_t n_ = 0;
};

/// A finite node-labelled ordered tree.
///
/// Invariants: node 0 is the root; `Parent(v) < v` for every non-root node;
/// children of each node are ordered by creation (left to right).
class Tree {
 public:
  Tree() = default;

  /// Creates a one-node tree labelled `root_label`.
  explicit Tree(LabelId root_label) { AddRoot(root_label); }

  /// Adds the root.  Precondition: the tree is empty.  Returns node 0.
  NodeId AddRoot(LabelId label);

  /// Removes every node but keeps the arena capacity, so a tree can serve
  /// as a reusable scratch buffer in enumeration hot loops.
  void Clear() {
    labels_.clear();
    parents_.clear();
    first_child_.clear();
    next_sibling_.clear();
    last_child_.clear();
    InvalidateIndex();
  }

  /// Adds a new rightmost child of `parent`.  Returns its id.
  NodeId AddChild(NodeId parent, LabelId label);

  /// Removes every node with id >= `new_size`, keeping the arena capacity.
  /// Precondition: nodes were added in depth-first (document) order, so that
  /// every subtree occupies a contiguous id range — then the removed ids are
  /// whole subtrees and the only dangling links are on the ancestor path of
  /// the cut, which this repairs in O(depth).  `CanonicalTreeBuilder` emits
  /// trees this way; trees built in other orders must not be truncated.
  /// Debug builds validate the precondition (`IsDfsOrdered`) and abort on
  /// violation instead of silently corrupting sibling links.  The next
  /// `View()` resumes the postorder index from the cut (file header).
  void TruncateTo(int32_t new_size);

  /// Grafts a copy of `subtree` as a new rightmost child of `parent`
  /// (or as the root if the tree is empty and `parent == kNoNode`).
  /// Returns the id of the copied root.
  NodeId Graft(NodeId parent, const Tree& subtree, NodeId subtree_root = 0);

  int32_t size() const { return static_cast<int32_t>(labels_.size()); }
  bool empty() const { return labels_.empty(); }

  LabelId Label(NodeId v) const { return labels_[v]; }
  void SetLabel(NodeId v, LabelId label) {
    labels_[v] = label;
    InvalidateIndex();  // the postorder label column mirrors labels_
  }
  NodeId Parent(NodeId v) const { return parents_[v]; }
  NodeId FirstChild(NodeId v) const { return first_child_[v]; }
  NodeId NextSibling(NodeId v) const { return next_sibling_[v]; }
  bool IsLeaf(NodeId v) const { return first_child_[v] == kNoNode; }

  /// The postorder index over the current tree, computed on first use after
  /// a mutation — resumed or rebuilt, see the file header — and cached (see
  /// also the thread-safety note there).  Returned by value — a handful of
  /// span pointers — so the view survives copies/moves of the `Tree`; its
  /// *pointers* are invalidated by the next mutation (or destruction) of
  /// this tree.
  TreeView View() const {
    if (columns_version_ != version_) IndexPostorder();
    TreeView view;
    view.labels_ = labels_.data();
    view.parent_ = parents_.data();
    view.post_of_ = post_of_.data();
    view.node_at_post_ = node_at_post_.data();
    view.size_at_post_ = size_at_post_.data();
    view.label_at_post_ = label_at_post_.data();
    view.n_ = size();
    return view;
  }

  /// Bytes occupied by the columnar storage — creation-order columns plus
  /// the derived postorder columns — for `TrackedBytes` accounting by
  /// consumers that evaluate against this tree under a memory budget (the
  /// matcher charges this alongside its DP tables).
  int64_t ColumnBytes() const {
    return static_cast<int64_t>(size()) *
           static_cast<int64_t>(5 * sizeof(NodeId) + 2 * sizeof(LabelId) +
                                2 * sizeof(int32_t));
  }

  /// True iff nodes were created in depth-first (document) order, i.e. every
  /// subtree occupies a contiguous id range.  O(size); the `TruncateTo`
  /// precondition, debug-asserted there.
  bool IsDfsOrdered() const;

  /// Children of `v`, left to right.
  std::vector<NodeId> Children(NodeId v) const;
  int32_t NumChildren(NodeId v) const;

  /// Length of the path from the root to `v` (root has depth 0).
  int32_t Depth(NodeId v) const;

  /// Maximum node depth; -1 for the empty tree.
  int32_t depth() const;

  /// True iff `ancestor` is a proper ancestor of `v`.
  bool IsProperAncestor(NodeId ancestor, NodeId v) const;

  /// Extracts `subtree^t(v)` as a standalone tree.
  Tree Subtree(NodeId v) const;

  /// Structural equality as *ordered* trees.
  bool operator==(const Tree& other) const;

  /// Structural equality as *unordered* trees (sibling order ignored).
  bool EqualsUnordered(const Tree& other) const;

  /// Serializes in term syntax, e.g. `a(b,c(d))`, using `pool` spellings.
  std::string ToString(const LabelPool& pool) const;

 private:
  bool EqualsUnorderedAt(NodeId v, const Tree& other, NodeId w) const;
  void AppendTerm(NodeId v, const LabelPool& pool, std::string* out) const;
  void IndexPostorder() const;
  void InvalidateIndex() {
    resume_cut_ = 0;
    resume_finished_ = 0;
    ++version_;
  }

  // Creation-order columns (index = node id).
  std::vector<LabelId> labels_;
  std::vector<NodeId> parents_;
  std::vector<NodeId> first_child_;
  std::vector<NodeId> next_sibling_;
  std::vector<NodeId> last_child_;  // for O(1) AddChild

  // Derived postorder columns, indexed lazily by View().  `version_` bumps
  // on every mutation; `columns_version_` records the version the cache was
  // built at.  While they differ, the stale columns still hold for every
  // node id below `resume_cut_` (the ids that were indexed and never
  // truncated since) at a position below `resume_finished_`, and the next
  // View() re-indexes only the rest; both 0 means a full rebuild.
  // Mutable: View() is logically const.
  mutable std::vector<int32_t> post_of_;      // node id -> postorder position
  mutable std::vector<NodeId> node_at_post_;  // postorder position -> node id
  mutable std::vector<int32_t> size_at_post_;  // subtree size, by position
  mutable std::vector<LabelId> label_at_post_;  // label, by position
  mutable std::vector<NodeId> dfs_stack_;       // IndexPostorder scratch
  mutable uint64_t columns_version_ = 0;
  uint64_t version_ = 1;
  int32_t resume_cut_ = 0;
  int32_t resume_finished_ = 0;
};

}  // namespace tpc

#endif  // TPC_TREE_TREE_H_
