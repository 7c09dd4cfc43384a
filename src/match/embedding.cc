#include "match/embedding.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace tpc {
namespace {

// Structural identity of a pattern, for the rebind guard below.  FNV-1a over
// (size, labels, parents, edge kinds); O(|q|) — noise next to the O(|q|*|t|)
// table fill it guards.
uint64_t PatternFingerprint(const Tpq& q) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(static_cast<uint64_t>(q.size()));
  for (NodeId v = 0; v < q.size(); ++v) {
    mix(static_cast<uint64_t>(q.Label(v)));
    mix(static_cast<uint64_t>(q.Parent(v)) + 1);
    if (v != 0) mix(static_cast<uint64_t>(q.Edge(v)));
  }
  return h;
}

}  // namespace

void MatcherWorkspace::BindPattern(const Tpq& q) {
  q_ = &q;
  bound_fingerprint_ = PatternFingerprint(q);
  words_ = (static_cast<size_t>(q.size()) + 63) / 64;
  wildcard_mask_.assign(words_, 0);
  child_targets_.assign(words_, 0);
  desc_targets_.assign(words_, 0);
  internal_mask_.assign(words_, 0);
  parent_word_.assign(static_cast<size_t>(q.size()), 0);
  parent_mask_.assign(static_cast<size_t>(q.size()), 0);
  label_mask_store_.clear();
  label_mask_offset_.clear();
  for (NodeId v = 0; v < q.size(); ++v) {
    size_t word = static_cast<size_t>(v) >> 6;
    uint64_t bit = uint64_t{1} << (static_cast<size_t>(v) & 63);
    if (v != 0) {
      const bool child_edge = q.Edge(v) == EdgeKind::kChild;
      const size_t p = static_cast<size_t>(q.Parent(v));
      (child_edge ? child_targets_ : desc_targets_)[word] |= bit;
      internal_mask_[p >> 6] |= uint64_t{1} << (p & 63);
      parent_word_[v] = static_cast<uint32_t>(p >> 6);
      parent_mask_[v] = uint64_t{1} << (p & 63);
    }
    if (q.IsWildcard(v)) {
      wildcard_mask_[word] |= bit;
    } else {
      auto [it, inserted] =
          label_mask_offset_.try_emplace(q.Label(v), label_mask_store_.size());
      if (inserted) label_mask_store_.resize(label_mask_store_.size() + words_);
      label_mask_store_[it->second + word] |= bit;
    }
  }
  // A wildcard pattern node matches every tree label: fold the wildcard bits
  // into each per-letter mask so `LabelMask` needs a single lookup.
  for (auto& [label, offset] : label_mask_offset_) {
    for (size_t w = 0; w < words_; ++w) {
      label_mask_store_[offset + w] |= wildcard_mask_[w];
    }
  }
}

const uint64_t* MatcherWorkspace::LabelMask(LabelId label) const {
  auto it = label_mask_offset_.find(label);
  if (it == label_mask_offset_.end()) return wildcard_mask_.data();
  return &label_mask_store_[it->second];
}

void MatcherWorkspace::ComputeColumn(int32_t i) {
  const size_t W = words_;
  const uint64_t* labels_ok = LabelMask(view_.LabelAtPost(i));
  uint64_t* sat_row = &sat_[RowOffset(i)];
  uint64_t* desc_row = &desc_[RowOffset(i)];
  const int32_t subtree = view_.SubtreeSizeAtPost(i);
  if (subtree == 1) {
    // Leaf column, branch-free: no fold, no scatter.  A pattern node with
    // any child requirement cannot embed at a tree leaf.
    const uint64_t* internal = internal_mask_.data();
    for (size_t w = 0; w < W; ++w) {
      sat_row[w] = labels_ok[w] & ~internal[w];
      desc_row[w] = sat_row[w];
    }
    ++rows_skipped_;
    return;
  }
  uint64_t* acc_c = acc_child_.data();
  uint64_t* acc_d = acc_desc_.data();
  uint64_t* failed = failed_.data();
  std::fill_n(acc_c, W, uint64_t{0});
  std::fill_n(acc_d, W, uint64_t{0});
  std::fill_n(failed, W, uint64_t{0});
  // Child subtree roots tile the span [i - subtree + 1, i - 1] and are
  // reached right-to-left by span jumps; their rows were computed earlier in
  // this ascending sweep.
  const int32_t begin = i - subtree + 1;
  for (int32_t c = i - 1; c >= begin; c -= view_.SubtreeSizeAtPost(c)) {
    const uint64_t* child_sat = &sat_[RowOffset(c)];
    const uint64_t* child_desc = &desc_[RowOffset(c)];
    for (size_t w = 0; w < W; ++w) {
      acc_c[w] |= child_sat[w];
      acc_d[w] |= child_desc[w];
    }
    words_folded_ += static_cast<int64_t>(2 * W);
  }
  // Missing-bits scatter: a requirement bit absent from its accumulator
  // fails its pattern *parent* — cost O(W + popcount(missing)) instead of
  // a submask test per candidate, O(popcount(labels) * W).
  for (size_t w = 0; w < W; ++w) {
    uint64_t missing = child_targets_[w] & ~acc_c[w];
    while (missing != 0) {
      int b = std::countr_zero(missing);
      missing &= missing - 1;
      size_t v = (w << 6) + static_cast<size_t>(b);
      failed[parent_word_[v]] |= parent_mask_[v];
    }
    missing = desc_targets_[w] & ~acc_d[w];
    while (missing != 0) {
      int b = std::countr_zero(missing);
      missing &= missing - 1;
      size_t v = (w << 6) + static_cast<size_t>(b);
      failed[parent_word_[v]] |= parent_mask_[v];
    }
  }
  for (size_t w = 0; w < W; ++w) {
    sat_row[w] = labels_ok[w] & ~failed[w];
    desc_row[w] = sat_row[w] | acc_d[w];
  }
}

void MatcherWorkspace::PrepareTables(const Tree& t) {
  t_ = &t;
  view_ = t.View();
  size_t table = static_cast<size_t>(t.size()) * words_;
  sat_.resize(table);
  desc_.resize(table);
  acc_child_.resize(words_);
  acc_desc_.resize(words_);
  failed_.resize(words_);
  words_folded_ = 0;
  rows_skipped_ = 0;
}

void MatcherWorkspace::EvalFull(const Tpq& q, const Tree& t,
                                EngineStats* stats) {
  // Pointer identity alone is unsound for a shared workspace: a temporary
  // (e.g. ReplayRefutation's normalized q) can reoccupy the previous
  // pattern's address with different content, and a stale bind would then
  // evaluate the wrong pattern.  Verify the structure too.
  if (q_ != &q || bound_fingerprint_ != PatternFingerprint(q)) BindPattern(q);
  PrepareTables(t);
  // One linear sweep over postorder positions: every child span precedes its
  // parent, so the fold always reads finished rows.
  const int32_t n = t.size();
  for (int32_t i = 0; i < n; ++i) ComputeColumn(i);
  if (stats != nullptr) {
    stats->embeddings_attempted.fetch_add(1, std::memory_order_relaxed);
    stats->dp_cells_filled.fetch_add(
        static_cast<int64_t>(q.size()) * t.size(), std::memory_order_relaxed);
    stats->dp_words_folded.fetch_add(words_folded_, std::memory_order_relaxed);
    stats->dp_rows_skipped.fetch_add(rows_skipped_, std::memory_order_relaxed);
  }
}

void MatcherWorkspace::EvalIncremental(const Tpq& q, const Tree& t,
                                       NodeId stable_limit,
                                       EngineStats* stats) {
  assert(q_ == &q && t_ == &t && "EvalIncremental needs a prior Eval* on the "
                                 "same pattern and tree object");
  assert(stable_limit >= 0 && stable_limit < t.size());
  assert(t.IsDfsOrdered() && "postorder prefix stability needs DFS order");
  PrepareTables(t);
  // For DFS-built trees the nodes with id < stable_limit that are *not*
  // ancestors of the cut keep their postorder positions across the rebuild
  // and occupy exactly the postorder prefix [0, stable_post): each such
  // node's subtree and left context are unchanged.  The suffix holds the
  // rebuilt tail plus the ancestor path of the cut — precisely the columns
  // the old pointer-chasing scheme recomputed.
  const int32_t stable_post = stable_limit - t.Depth(stable_limit);
  const int32_t n = t.size();
  for (int32_t i = stable_post; i < n; ++i) ComputeColumn(i);
  if (stats != nullptr) {
    const int64_t recomputed = n - stable_post;
    stats->embeddings_attempted.fetch_add(1, std::memory_order_relaxed);
    stats->dp_cells_filled.fetch_add(recomputed * q.size(),
                                     std::memory_order_relaxed);
    stats->dp_cells_reused.fetch_add(
        static_cast<int64_t>(stable_post) * q.size(),
        std::memory_order_relaxed);
    stats->dp_words_folded.fetch_add(words_folded_, std::memory_order_relaxed);
    stats->dp_rows_skipped.fetch_add(rows_skipped_, std::memory_order_relaxed);
  }
}

bool MatcherWorkspace::MatchesWeak() const {
  if (q_ == nullptr || t_ == nullptr || q_->empty() || t_->empty()) {
    return false;
  }
  // Bit (v=0) of the root's row — the root is last in postorder.
  return desc_[RowOffset(view_.size() - 1)] & 1;
}

bool MatcherWorkspace::MatchesStrong() const {
  if (q_ == nullptr || t_ == nullptr || q_->empty() || t_->empty()) {
    return false;
  }
  return sat_[RowOffset(view_.size() - 1)] & 1;
}

void MatcherWorkspace::ExtractAt(NodeId v, NodeId x,
                                 std::vector<NodeId>* map) const {
  assert(SatAt(v, x));
  const Tpq& q = *q_;
  const Tree& t = *t_;
  (*map)[v] = x;
  for (NodeId c = q.FirstChild(v); c != kNoNode; c = q.NextSibling(c)) {
    if (q.Edge(c) == EdgeKind::kChild) {
      for (NodeId y = t.FirstChild(x); y != kNoNode; y = t.NextSibling(y)) {
        if (SatAt(c, y)) {
          ExtractAt(c, y, map);
          break;
        }
      }
    } else {
      // Walk down to the highest node in a child subtree where sat holds.
      NodeId y = kNoNode;
      for (NodeId z = t.FirstChild(x); z != kNoNode; z = t.NextSibling(z)) {
        if (SatBelow(c, z)) {
          y = z;
          break;
        }
      }
      assert(y != kNoNode);
      while (!SatAt(c, y)) {
        NodeId next = kNoNode;
        for (NodeId z = t.FirstChild(y); z != kNoNode; z = t.NextSibling(z)) {
          if (SatBelow(c, z)) {
            next = z;
            break;
          }
        }
        assert(next != kNoNode);
        y = next;
      }
      ExtractAt(c, y, map);
    }
  }
}

std::optional<std::vector<NodeId>> MatcherWorkspace::Witness(
    bool strong) const {
  if (q_ == nullptr || t_ == nullptr || q_->empty() || t_->empty()) {
    return std::nullopt;
  }
  NodeId start = kNoNode;
  if (strong) {
    if (SatAt(0, 0)) start = 0;
  } else {
    // Find any node where the root satisfies, topmost first (node ids are
    // created parents-before-children).
    for (NodeId x = 0; x < t_->size(); ++x) {
      if (SatAt(0, x)) {
        start = x;
        break;
      }
    }
  }
  if (start == kNoNode) return std::nullopt;
  std::vector<NodeId> map(q_->size(), kNoNode);
  ExtractAt(0, start, &map);
  return map;
}

bool MatchesWeak(const Tpq& q, const Tree& t) {
  return Matcher(q, t).MatchesWeak();
}

bool MatchesStrong(const Tpq& q, const Tree& t) {
  return Matcher(q, t).MatchesStrong();
}

bool MatchesWeak(const Tpq& q, const Tree& t, EngineStats* stats) {
  return Matcher(q, t, stats).MatchesWeak();
}

bool MatchesStrong(const Tpq& q, const Tree& t, EngineStats* stats) {
  return Matcher(q, t, stats).MatchesStrong();
}

}  // namespace tpc
