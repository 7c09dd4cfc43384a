// Canonical trees (canonical models) of a pattern, after Miklau & Suciu [34]
// and Appendix B.1.1 of the paper.
//
// A canonical tree of p is obtained by (a) replacing every wildcard by a
// fresh letter `⊥` and (b) replacing every descendant edge by a chain of
// zero or more `⊥`-nodes followed by a child edge.  Canonical trees
// characterize containment: L_w(p) ⊆ L_w(q) iff every canonical tree of p is
// in L_w(q), and it suffices to consider chains of length at most
// w(q) + 1, where w(q) is the longest run of consecutive wildcard nodes
// connected by child edges in q [34].
//
// The enumeration hot loops of the coNP procedure are *incremental*: the
// length-vector enumerator reports the lowest spine (descendant edge) whose
// chain length changed, and `CanonicalTreeBuilder` lays trees out spine-major
// (document/DFS order), so the tree prefix before the first changed spine
// keeps identical node ids and labels across consecutive iterations and only
// the suffix needs rebuilding.

#ifndef TPC_PATTERN_CANONICAL_H_
#define TPC_PATTERN_CANONICAL_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "base/label.h"
#include "pattern/tpq.h"
#include "tree/tree.h"

namespace tpc {

/// Ids of the pattern nodes whose incoming edge is a descendant edge, in
/// document (DFS) order — the spine order used by `CanonicalTreeBuilder`
/// and by the `lengths` vectors below.  (For patterns whose node ids are
/// already in document order this coincides with id order.)
std::vector<NodeId> DescendantEdges(const Tpq& p);

/// Builds the canonical tree of `p` where the i-th descendant edge (in the
/// `DescendantEdges` order) is expanded by a chain of `lengths[i]` nodes
/// labelled `bottom`, and every wildcard becomes `bottom`.  `lengths.size()`
/// must equal the number of descendant edges of `p`.
Tree CanonicalTree(const Tpq& p, const std::vector<int32_t>& lengths,
                   LabelId bottom);

/// As `CanonicalTree`, but builds into `*out` (cleared first).  The
/// enumeration hot loops reuse one scratch tree this way instead of
/// allocating a fresh arena per length vector.
void CanonicalTreeInto(const Tpq& p, const std::vector<int32_t>& lengths,
                       LabelId bottom, Tree* out);

/// The canonical tree with all chains of length zero.
Tree MinimalCanonicalTree(const Tpq& p, LabelId bottom);

/// Longest run of consecutive wildcard nodes connected by child edges in `q`.
int32_t LongestWildcardChain(const Tpq& q);

/// Spine-major canonical tree construction for the enumeration hot loops.
///
/// The builder fixes the document (DFS) order of the pattern once and always
/// emits canonical-tree nodes in that order, expanding the i-th descendant
/// edge met in document order by `lengths[i]` ⊥-nodes.  Two invariants
/// follow (see DESIGN.md, "Incremental sweep"):
///   * every subtree of the emitted tree occupies a contiguous node-id range
///     (the precondition of `Tree::TruncateTo`);
///   * the tree prefix laid out before the chain of spine s depends only on
///     `lengths[0..s-1]`, so when an enumeration step changes only spines
///     >= s (`CanonicalLengthEnumerator::first_changed`), that prefix keeps
///     identical node ids, labels and structure, and `BuildSuffix` rebuilds
///     just the tail.
class CanonicalTreeBuilder {
 public:
  CanonicalTreeBuilder(const Tpq& p, LabelId bottom);

  /// Number of descendant edges (spines) of the pattern.
  size_t num_spines() const { return spine_dfs_pos_.size(); }

  /// Rebuilds the whole canonical tree for `lengths` into `*out`.
  void BuildFull(const std::vector<int32_t>& lengths, Tree* out);

  /// Truncates `*out` to the prefix unaffected by spines >= `first_changed`
  /// and re-emits the rest; the next `out->View()` then resumes the postorder
  /// index, re-indexing only the open path of the cut and the new suffix.
  /// Precondition: the previous `Build*` call on the same `*out` used lengths
  /// agreeing on every spine < `first_changed`.
  void BuildSuffix(const std::vector<int32_t>& lengths, size_t first_changed,
                   Tree* out);

  /// Tree node id where spine `s`'s chain begins in the last built tree —
  /// the first node whose identity may depend on `lengths[s..]`.  Only valid
  /// after a `Build*` call whose lengths cover spine `s`.
  NodeId spine_start(size_t s) const { return spine_start_[s]; }

 private:
  void Emit(const std::vector<int32_t>& lengths, size_t dfs_begin, Tree* out);

  const Tpq& p_;
  std::vector<LabelId> emit_label_;    // per pattern node; ⊥ for wildcards
  std::vector<NodeId> dfs_order_;      // pattern nodes in document order
  std::vector<size_t> spine_of_dfs_;   // dfs position -> spine index or npos
  std::vector<size_t> spine_dfs_pos_;  // spine -> dfs position of its target
  std::vector<NodeId> image_;          // pattern node -> tree node (persisted
                                       // across builds; prefix entries stay
                                       // valid under suffix rebuilds)
  std::vector<NodeId> spine_start_;    // spine -> first tree id of its chain
  LabelId bottom_;
};

/// Enumerates all length vectors in {0..max_len}^k for the k descendant
/// edges of a pattern.  Usage:
///   CanonicalLengthEnumerator e(k, max_len);
///   do { ... e.lengths() ... } while (e.Next());
///
/// The counter is big-endian: the LAST index is least significant, so
/// consecutive vectors differ only in a suffix of spine indices — the
/// property the incremental sweep relies on.
class CanonicalLengthEnumerator {
 public:
  CanonicalLengthEnumerator(size_t num_edges, int32_t max_len)
      : lengths_(num_edges, 0), max_len_(max_len) {}

  const std::vector<int32_t>& lengths() const { return lengths_; }

  /// Advances to the next vector; returns false after the last one.
  bool Next();

  /// Lowest spine index changed by the last `Next()`; every spine >= this
  /// index may have changed, every spine below it is untouched.  0 after
  /// construction or `SeekTo` (everything counts as fresh).
  size_t first_changed() const { return first_changed_; }

  /// Jumps to the `index`-th vector of the enumeration order (the vector is
  /// a big-endian base-(max_len+1) counter), so the space can be
  /// partitioned into contiguous chunks for parallel sweeps.
  /// Precondition: `index < TotalCountExact()` when the latter is finite.
  void SeekTo(uint64_t index);

  /// Total number of vectors ((max_len+1)^num_edges) as double, for planning.
  double TotalCount() const;

  /// Exact total when it fits in uint64; nullopt on overflow (such spaces
  /// cannot be swept anyway — the budget stops them first).
  std::optional<uint64_t> TotalCountExact() const;

 private:
  std::vector<int32_t> lengths_;
  int32_t max_len_;
  size_t first_changed_ = 0;
};

}  // namespace tpc

#endif  // TPC_PATTERN_CANONICAL_H_
