// Property sweep: the postorder index exposed by `Tree::View()` against
// reference pointer traversals (FirstChild/NextSibling/Parent chains), on
// 1k random trees plus adversarial shapes — deep chains, wide stars, and
// DFS-built trees truncated mid-enumeration — and the resumed index against
// a full rebuild over long truncate-and-append histories.

#include "tree/tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "base/label.h"
#include "gen/random_instances.h"
#include "tree/tree_parser.h"

namespace tpc {
namespace {

/// Reference postorder via the sibling pointers.
void RefPostorder(const Tree& t, NodeId v, std::vector<NodeId>* out) {
  for (NodeId c = t.FirstChild(v); c != kNoNode; c = t.NextSibling(c)) {
    RefPostorder(t, c, out);
  }
  out->push_back(v);
}

int32_t RefSubtreeSize(const Tree& t, NodeId v) {
  int32_t n = 1;
  for (NodeId c = t.FirstChild(v); c != kNoNode; c = t.NextSibling(c)) {
    n += RefSubtreeSize(t, c);
  }
  return n;
}

bool RefAncestorOrSelf(const Tree& t, NodeId a, NodeId v) {
  for (NodeId u = v; u != kNoNode; u = t.Parent(u)) {
    if (u == a) return true;
  }
  return false;
}

/// Asserts every TreeView query agrees with the pointer traversals.
void CheckViewAgainstPointers(const Tree& t) {
  const TreeView view = t.View();
  ASSERT_EQ(view.size(), t.size());
  if (t.empty()) return;
  std::vector<NodeId> post;
  RefPostorder(t, 0, &post);
  ASSERT_EQ(static_cast<int32_t>(post.size()), t.size());
  for (int32_t i = 0; i < t.size(); ++i) {
    ASSERT_EQ(view.NodeAtPost(i), post[i]) << "position " << i;
    ASSERT_EQ(view.PostOf(post[i]), i);
    ASSERT_EQ(view.LabelAtPost(i), t.Label(post[i]));
    ASSERT_EQ(view.Label(post[i]), t.Label(post[i]));
    ASSERT_EQ(view.Parent(post[i]), t.Parent(post[i]));
    const int32_t size = RefSubtreeSize(t, post[i]);
    ASSERT_EQ(view.SubtreeSizeAtPost(i), size);
    ASSERT_EQ(view.SubtreeSize(post[i]), size);
    ASSERT_EQ(view.SpanBegin(i), i - size + 1);
    // Span-jump children, right-to-left, must be exactly Children reversed.
    std::vector<NodeId> span_children;
    for (int32_t c = view.LastChild(i); c >= view.SpanBegin(i);
         c = view.PrevSibling(c)) {
      span_children.push_back(view.NodeAtPost(c));
    }
    std::reverse(span_children.begin(), span_children.end());
    ASSERT_EQ(span_children, t.Children(post[i]));
  }
  // Ancestor queries: all pairs on small trees, a sample on larger ones.
  const int32_t n = t.size();
  const int32_t step = n <= 40 ? 1 : n / 37 + 1;
  for (NodeId a = 0; a < n; a += step) {
    for (NodeId v = 0; v < n; v += step) {
      ASSERT_EQ(view.IsAncestorOrSelf(a, v), RefAncestorOrSelf(t, a, v))
          << "a=" << a << " v=" << v;
      ASSERT_EQ(view.IsProperAncestor(a, v),
                a != v && RefAncestorOrSelf(t, a, v));
      ASSERT_EQ(t.IsProperAncestor(a, v),
                a != v && RefAncestorOrSelf(t, a, v));
    }
  }
}

TEST(TreeViewPropertyTest, RandomTrees) {
  LabelPool pool;
  std::mt19937 rng(20260809);
  RandomTreeOptions topts;
  topts.labels = MakeLabels(3, &pool);
  for (int trial = 0; trial < 1000; ++trial) {
    topts.size = 1 + trial % 40;
    topts.branch_bias = (trial % 10) / 10.0;
    Tree t = RandomTree(topts, &rng);
    CheckViewAgainstPointers(t);
    // A copied tree must serve an equally valid view of its own columns.
    if (trial % 97 == 0) {
      Tree copy = t;
      CheckViewAgainstPointers(copy);
    }
  }
}

TEST(TreeViewPropertyTest, DeepChain) {
  LabelPool pool;
  std::vector<LabelId> labels = MakeLabels(2, &pool);
  Tree chain = ChainTree(labels, 300);
  EXPECT_EQ(chain.depth(), 299);
  EXPECT_TRUE(chain.IsDfsOrdered());
  CheckViewAgainstPointers(chain);
  // In a chain, postorder is the exact reverse of the id order.
  TreeView view = chain.View();
  for (NodeId v = 0; v < chain.size(); ++v) {
    EXPECT_EQ(view.PostOf(v), chain.size() - 1 - v);
  }
}

TEST(TreeViewPropertyTest, WideStar) {
  LabelPool pool;
  std::vector<LabelId> labels = MakeLabels(2, &pool);
  Tree star = StarTree(labels, 300);
  EXPECT_EQ(star.depth(), 1);
  EXPECT_TRUE(star.IsDfsOrdered());
  CheckViewAgainstPointers(star);
  // All 299 leaves precede the root, in sibling order.
  TreeView view = star.View();
  EXPECT_EQ(view.PostOf(0), star.size() - 1);
  for (NodeId v = 1; v < star.size(); ++v) {
    EXPECT_EQ(view.PostOf(v), v - 1);
  }
}

/// Grows a DFS-ordered random tree below `parent` (children contiguous after
/// their parent — the TruncateTo precondition).
void GrowDfs(Tree* t, NodeId parent, int32_t* remaining, std::mt19937* rng,
             const std::vector<LabelId>& labels) {
  std::uniform_int_distribution<int> fanout(0, 3);
  std::uniform_int_distribution<size_t> pick(0, labels.size() - 1);
  int k = fanout(*rng);
  for (int i = 0; i < k && *remaining > 0; ++i) {
    --*remaining;
    NodeId c = t->AddChild(parent, labels[pick(*rng)]);
    GrowDfs(t, c, remaining, rng, labels);
  }
}

TEST(TreeViewPropertyTest, TruncatedTrees) {
  LabelPool pool;
  std::vector<LabelId> labels = MakeLabels(3, &pool);
  std::mt19937 rng(777);
  for (int trial = 0; trial < 200; ++trial) {
    Tree t(labels[0]);
    int32_t remaining = 5 + trial % 30;
    GrowDfs(&t, 0, &remaining, &rng, labels);
    ASSERT_TRUE(t.IsDfsOrdered());
    CheckViewAgainstPointers(t);
    std::uniform_int_distribution<int32_t> cut(1, t.size());
    t.TruncateTo(cut(rng));
    ASSERT_TRUE(t.IsDfsOrdered());
    CheckViewAgainstPointers(t);
    // Regrow after the cut: the view must track the new suffix.
    int32_t more = 1 + trial % 5;
    GrowDfs(&t, t.size() - 1, &more, &rng, labels);
    CheckViewAgainstPointers(t);
  }
}

/// A structurally identical tree built from nothing, so its first `View()`
/// is a full rebuild: ids are re-created in order (parents precede
/// children) and `AddChild` appends rightmost, so sibling order matches too.
Tree FreshCopy(const Tree& t) {
  Tree out;
  for (NodeId v = 0; v < t.size(); ++v) {
    if (v == 0) {
      out.AddRoot(t.Label(0));
    } else {
      out.AddChild(t.Parent(v), t.Label(v));
    }
  }
  return out;
}

/// Asserts `t`'s (possibly resumed) view equals a full rebuild, column by
/// column, and agrees with the pointer traversals.
void CheckViewAgainstRebuild(const Tree& t) {
  const Tree ref = FreshCopy(t);
  const TreeView got = t.View();
  const TreeView want = ref.View();
  ASSERT_EQ(got.size(), want.size());
  for (int32_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.post_of()[i], want.post_of()[i]) << "node " << i;
    ASSERT_EQ(got.node_at_post()[i], want.node_at_post()[i]) << "pos " << i;
    ASSERT_EQ(got.size_at_post()[i], want.size_at_post()[i]) << "pos " << i;
    ASSERT_EQ(got.label_at_post()[i], want.label_at_post()[i]) << "pos " << i;
  }
  CheckViewAgainstPointers(t);
}

/// The resumable index on one long-lived tree: many rounds of truncate (one
/// or several cuts, with or without a view in between), then appends below
/// random open-path nodes — the canonical sweep's pattern — mixed with
/// appends below arbitrary nodes (finished subtrees; these break
/// depth-first order), appends right after a view with no cut, `SetLabel`
/// and `Clear`.  After every round each column must equal a full rebuild.
TEST(TreeViewPropertyTest, ResumedIndexMatchesFullRebuild) {
  LabelPool pool;
  std::vector<LabelId> labels = MakeLabels(3, &pool);
  std::mt19937 rng(4242);
  auto coin = [&rng](int percent) {
    return std::uniform_int_distribution<int>(0, 99)(rng) < percent;
  };
  auto uniform = [&rng](int32_t lo, int32_t hi) {
    return std::uniform_int_distribution<int32_t>(lo, hi)(rng);
  };
  auto label = [&]() { return labels[uniform(0, 2)]; };
  auto grow_fresh = [&](Tree* t) {
    t->Clear();
    t->AddRoot(label());
    int32_t remaining = uniform(0, 40);
    GrowDfs(t, 0, &remaining, &rng, labels);
  };
  // Appends `k` nodes, each below a random ancestor-or-self of the last
  // node (keeps depth-first order) or, with `wild`, below any node.
  auto append = [&](Tree* t, int32_t k, bool wild) {
    for (int32_t i = 0; i < k; ++i) {
      NodeId parent;
      if (wild && coin(30)) {
        parent = uniform(0, t->size() - 1);
      } else {
        std::vector<NodeId> open_path;
        for (NodeId u = t->size() - 1; u != kNoNode; u = t->Parent(u)) {
          open_path.push_back(u);
        }
        parent = open_path[uniform(0, static_cast<int32_t>(open_path.size()) -
                                          1)];
      }
      t->AddChild(parent, label());
    }
  };
  Tree t;
  grow_fresh(&t);
  int non_dfs_rounds = 0;
  for (int round = 0; round < 3000; ++round) {
    if (!t.IsDfsOrdered()) {
      ++non_dfs_rounds;
      grow_fresh(&t);  // TruncateTo needs depth-first order
    }
    if (coin(80)) t.View();
    const int shape = uniform(0, 5);
    if (shape == 0) {
      // Appends after a view, no cut.
      append(&t, uniform(1, 6), /*wild=*/coin(50));
    } else {
      t.TruncateTo(uniform(1, t.size()));
      if (shape == 1) {
        // A second cut before any view: lower, or at/above the first.
        t.TruncateTo(uniform(1, t.size()));
      } else if (shape == 2) {
        // Append, cut again, append: the lowest cut must win.
        append(&t, uniform(1, 4), /*wild=*/false);
        t.TruncateTo(uniform(1, t.size()));
      }
      append(&t, uniform(0, 8), /*wild=*/shape == 3);
    }
    if (coin(5)) t.SetLabel(uniform(0, t.size() - 1), label());
    if (coin(2)) grow_fresh(&t);
    CheckViewAgainstRebuild(t);
    if (HasFatalFailure()) {
      FAIL() << "round " << round << ": " << t.ToString(pool);
    }
  }
  // The wild appends must actually have broken depth-first order.
  EXPECT_GT(non_dfs_rounds, 50);
}

TEST(TreeViewPropertyTest, ClearResetsView) {
  LabelPool pool;
  Tree t = MustParseTree("a(b,c)", &pool);
  EXPECT_EQ(t.View().size(), 3);
  t.Clear();
  EXPECT_EQ(t.View().size(), 0);
  t.AddRoot(pool.Intern("d"));
  EXPECT_EQ(t.View().size(), 1);
  EXPECT_EQ(t.View().PostOf(0), 0);
}

TEST(TreeViewPropertyTest, SetLabelInvalidatesLabelColumn) {
  LabelPool pool;
  Tree t = MustParseTree("a(b,c)", &pool);
  TreeView before = t.View();
  ASSERT_EQ(before.LabelAtPost(t.size() - 1), pool.Intern("a"));
  t.SetLabel(0, pool.Intern("z"));
  EXPECT_EQ(t.View().LabelAtPost(t.size() - 1), pool.Intern("z"));
}

}  // namespace
}  // namespace tpc
