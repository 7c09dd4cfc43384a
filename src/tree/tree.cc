#include "tree/tree.h"

#include <algorithm>
#include <cassert>

namespace tpc {

NodeId Tree::AddRoot(LabelId label) {
  assert(empty());
  labels_.push_back(label);
  parents_.push_back(kNoNode);
  first_child_.push_back(kNoNode);
  next_sibling_.push_back(kNoNode);
  last_child_.push_back(kNoNode);
  InvalidateIndex();
  return 0;
}

NodeId Tree::AddChild(NodeId parent, LabelId label) {
  assert(parent >= 0 && parent < size());
  NodeId v = size();
  // A new rightmost child of `parent` lands just before `parent` in
  // postorder: every position below `parent`'s stays where it was.
  if (columns_version_ == version_) {
    resume_cut_ = v;
    resume_finished_ = post_of_[parent];
  } else if (parent < resume_cut_) {
    resume_finished_ = std::min(resume_finished_, post_of_[parent]);
  }
  labels_.push_back(label);
  parents_.push_back(parent);
  first_child_.push_back(kNoNode);
  next_sibling_.push_back(kNoNode);
  last_child_.push_back(kNoNode);
  if (first_child_[parent] == kNoNode) {
    first_child_[parent] = v;
  } else {
    next_sibling_[last_child_[parent]] = v;
  }
  last_child_[parent] = v;
  ++version_;
  return v;
}

bool Tree::IsDfsOrdered() const {
  const int32_t n = size();
  if (n <= 1) return true;
  // Subtree sizes and maximum descendant ids in one reverse pass (parents
  // precede children); the layout is depth-first iff every subtree occupies
  // exactly the id range [v, v + size(v)).
  std::vector<int32_t> sz(n, 1);
  std::vector<NodeId> max_id(n);
  for (NodeId v = 0; v < n; ++v) max_id[v] = v;
  for (NodeId v = n - 1; v >= 1; --v) {
    NodeId p = parents_[v];
    sz[p] += sz[v];
    max_id[p] = std::max(max_id[p], max_id[v]);
  }
  for (NodeId v = 0; v < n; ++v) {
    if (max_id[v] != v + sz[v] - 1) return false;
  }
  return true;
}

void Tree::TruncateTo(int32_t new_size) {
  assert(new_size >= 0 && new_size <= size());
  assert(IsDfsOrdered() &&
         "Tree::TruncateTo requires depth-first creation order; truncating "
         "any other layout would cut through subtrees and corrupt links");
  if (new_size == size()) return;
  if (new_size == 0) {
    Clear();
    return;
  }
  labels_.resize(new_size);
  parents_.resize(new_size);
  first_child_.resize(new_size);
  next_sibling_.resize(new_size);
  last_child_.resize(new_size);
  // In depth-first layout the retained nodes whose links can point into the
  // removed suffix are exactly the last retained node and its ancestors: a
  // node's subtree is a contiguous range, so any node with a child or next
  // sibling at id >= new_size has a range straddling the cut.
  NodeId v = new_size - 1;
  first_child_[v] = kNoNode;  // its children, if any, were v+1.. — removed
  last_child_[v] = kNoNode;
  while (v != 0) {
    if (next_sibling_[v] >= new_size) next_sibling_[v] = kNoNode;
    NodeId parent = parents_[v];
    // v is the last retained child of its parent: any later sibling's
    // subtree would start past the cut.
    if (last_child_[parent] >= new_size) last_child_[parent] = v;
    v = parent;
  }
  // The removed ids are node `new_size`'s subtree and everything right of
  // it, so every position left of its span survives — when that node was
  // indexed: the columns are current, or it predates the lowest earlier cut
  // (then the cut also drops every append since, restoring the indexed
  // tree's prefix exactly).  A cut at or above the lowest one removes only
  // appended nodes and keeps the resume point.
  if (columns_version_ == version_ || new_size < resume_cut_) {
    const int32_t pos = post_of_[new_size];
    resume_cut_ = new_size;
    resume_finished_ = pos - size_at_post_[pos] + 1;
  }
  ++version_;
}

void Tree::IndexPostorder() const {
  const int32_t n = size();
  // Positions [0, finished) hold unchanged subtrees and stay as they are;
  // a full rebuild is the case cut = finished = 0.
  const int32_t cut = resume_cut_;
  const int32_t finished = resume_finished_;
  post_of_.resize(n);
  node_at_post_.resize(n);
  size_at_post_.resize(n);
  label_at_post_.resize(n);
  columns_version_ = version_;
  if (n == 0) return;
  // Mirror-preorder emitted at descending positions is postorder: pop v,
  // place it at the highest free slot, push its children left-to-right so
  // subtrees are visited rightmost-first.  Read ascending, the result lists
  // every child subtree left-to-right before its parent.  Finished subtrees
  // (indexed ids whose stale position is below `finished`) are skipped:
  // every ancestor of a re-indexed node is re-indexed too and appends go
  // right of all finished nodes, so the rest lands exactly in
  // [finished, n).
  dfs_stack_.clear();
  dfs_stack_.push_back(0);
  int32_t next = n - 1;
  while (!dfs_stack_.empty()) {
    NodeId v = dfs_stack_.back();
    dfs_stack_.pop_back();
    post_of_[v] = next;
    node_at_post_[next] = v;
    label_at_post_[next] = labels_[v];
    --next;
    for (NodeId c = first_child_[v]; c != kNoNode; c = next_sibling_[c]) {
      if (c >= cut || post_of_[c] >= finished) dfs_stack_.push_back(c);
    }
  }
  assert(next == finished - 1 && "postorder pass must place every node");
  // Subtree sizes in ascending positions (children before parents): a
  // subtree's span starts where its first child's span starts.  No id-order
  // shortcut, so appends need not keep depth-first order.
  for (int32_t i = finished; i < n; ++i) {
    const NodeId c = first_child_[node_at_post_[i]];
    if (c == kNoNode) {
      size_at_post_[i] = 1;
    } else {
      const int32_t pc = post_of_[c];
      size_at_post_[i] = i - pc + size_at_post_[pc];
    }
  }
}

NodeId Tree::Graft(NodeId parent, const Tree& subtree, NodeId subtree_root) {
  NodeId copied_root;
  if (parent == kNoNode) {
    copied_root = AddRoot(subtree.Label(subtree_root));
  } else {
    copied_root = AddChild(parent, subtree.Label(subtree_root));
  }
  // Copy descendants in pre-order; keep a map from source to target ids.
  std::vector<std::pair<NodeId, NodeId>> stack;  // (source node, target parent)
  for (NodeId c = subtree.FirstChild(subtree_root); c != kNoNode;
       c = subtree.NextSibling(c)) {
    stack.emplace_back(c, copied_root);
  }
  // Process in order: use an explicit queue preserving sibling order.
  std::vector<std::pair<NodeId, NodeId>> queue = std::move(stack);
  for (size_t i = 0; i < queue.size(); ++i) {
    auto [src, dst_parent] = queue[i];
    NodeId dst = AddChild(dst_parent, subtree.Label(src));
    for (NodeId c = subtree.FirstChild(src); c != kNoNode;
         c = subtree.NextSibling(c)) {
      queue.emplace_back(c, dst);
    }
  }
  InvalidateIndex();
  return copied_root;
}

std::vector<NodeId> Tree::Children(NodeId v) const {
  std::vector<NodeId> out;
  for (NodeId c = first_child_[v]; c != kNoNode; c = next_sibling_[c]) {
    out.push_back(c);
  }
  return out;
}

int32_t Tree::NumChildren(NodeId v) const {
  int32_t n = 0;
  for (NodeId c = first_child_[v]; c != kNoNode; c = next_sibling_[c]) ++n;
  return n;
}

int32_t Tree::Depth(NodeId v) const {
  int32_t d = 0;
  for (NodeId u = parents_[v]; u != kNoNode; u = parents_[u]) ++d;
  return d;
}

int32_t Tree::depth() const {
  if (empty()) return -1;
  // Node depths can be computed in one pass because parents precede children.
  std::vector<int32_t> depth(size(), 0);
  int32_t max_depth = 0;
  for (NodeId v = 1; v < size(); ++v) {
    depth[v] = depth[parents_[v]] + 1;
    max_depth = std::max(max_depth, depth[v]);
  }
  return max_depth;
}

bool Tree::IsProperAncestor(NodeId ancestor, NodeId v) const {
  // When the postorder index is current this is a span-inclusion test;
  // otherwise walk the parent chain rather than paying an O(n) rebuild for
  // one query.
  if (columns_version_ == version_) {
    return View().IsProperAncestor(ancestor, v);
  }
  for (NodeId u = parents_[v]; u != kNoNode; u = parents_[u]) {
    if (u == ancestor) return true;
  }
  return false;
}

Tree Tree::Subtree(NodeId v) const {
  Tree out;
  out.Graft(kNoNode, *this, v);
  return out;
}

bool Tree::operator==(const Tree& other) const {
  if (size() != other.size()) return false;
  // Node ids are assigned in creation order, which need not coincide for
  // structurally equal trees built differently, so compare recursively in
  // sibling order via an explicit stack.
  if (empty()) return true;
  std::vector<std::pair<NodeId, NodeId>> stack = {{0, 0}};
  while (!stack.empty()) {
    auto [v, w] = stack.back();
    stack.pop_back();
    if (labels_[v] != other.labels_[w]) return false;
    NodeId c1 = first_child_[v];
    NodeId c2 = other.first_child_[w];
    while (c1 != kNoNode && c2 != kNoNode) {
      stack.emplace_back(c1, c2);
      c1 = next_sibling_[c1];
      c2 = other.next_sibling_[c2];
    }
    if (c1 != kNoNode || c2 != kNoNode) return false;
  }
  return true;
}

bool Tree::EqualsUnorderedAt(NodeId v, const Tree& other, NodeId w) const {
  if (labels_[v] != other.labels_[w]) return false;
  std::vector<NodeId> cs1 = Children(v);
  std::vector<NodeId> cs2 = other.Children(w);
  if (cs1.size() != cs2.size()) return false;
  // Greedy bipartite matching by backtracking; fine for the small fan-outs in
  // tests.  Unordered equality is only used for verification, never on hot
  // paths.
  std::vector<bool> used(cs2.size(), false);
  // Recursive lambda over positions of cs1.
  auto match = [&](auto&& self, size_t i) -> bool {
    if (i == cs1.size()) return true;
    for (size_t j = 0; j < cs2.size(); ++j) {
      if (used[j]) continue;
      if (EqualsUnorderedAt(cs1[i], other, cs2[j])) {
        used[j] = true;
        if (self(self, i + 1)) return true;
        used[j] = false;
      }
    }
    return false;
  };
  return match(match, 0);
}

bool Tree::EqualsUnordered(const Tree& other) const {
  if (size() != other.size()) return false;
  if (empty()) return true;
  return EqualsUnorderedAt(0, other, 0);
}

void Tree::AppendTerm(NodeId v, const LabelPool& pool, std::string* out) const {
  out->append(pool.Name(labels_[v]));
  NodeId c = first_child_[v];
  if (c == kNoNode) return;
  out->push_back('(');
  bool first = true;
  for (; c != kNoNode; c = next_sibling_[c]) {
    if (!first) out->push_back(',');
    first = false;
    AppendTerm(c, pool, out);
  }
  out->push_back(')');
}

std::string Tree::ToString(const LabelPool& pool) const {
  if (empty()) return "<empty>";
  std::string out;
  AppendTerm(0, pool, &out);
  return out;
}

}  // namespace tpc
