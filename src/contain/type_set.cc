#include "contain/type_set.h"

#include <algorithm>
#include <utility>

#include "automata/tpq_det.h"
#include "engine/tracked.h"
#include "pattern/canonical.h"

namespace tpc {

namespace {

/// How an antichain item was derived.  Union-layer items: `from` is the
/// item of the previous union layer, `via` the child-edge item joined in
/// (the seed layer's single empty item has both -1).  Node-state items:
/// `from` is the union item the transition read, `via` -1.  Descendant-edge
/// items: `from` is the child's node-state item, `via` the number of
/// ⊥-wraps (chain length).  A child edge reuses its node-state items.
struct Back {
  int32_t from = -1;
  int32_t via = -1;
};

/// The state table of one decision, reused across decisions through the
/// context's scratch pool.  Items are (Sat, Below) pairs of 2·W words laid
/// out layer after layer; the open layer is the tail [open_, size()).  An
/// item is immutable once its layer closes, so back-pointers into closed
/// layers stay valid for the whole decision.
class TypeSetTable {
 public:
  static constexpr size_t kScanItemsPerStep = 8;

  /// Starts a decision over states of `words` words per set, charging the
  /// table's retained storage against `budget`.  False when refused.
  bool Reset(int32_t words, Budget* budget) {
    w2_ = 2 * static_cast<size_t>(words);
    items_.clear();
    back_.clear();
    open_ = 0;
    capacity_ = std::min(items_.capacity() / w2_, back_.capacity());
    candidate_.assign(w2_, 0);
    wrapped_.assign(w2_, 0);
    budget_ = budget;
    tracked_.Attach(budget);
    return tracked_.Reserve(Bytes(items_.capacity(), back_.capacity()));
  }

  int32_t size() const { return static_cast<int32_t>(back_.size()); }
  const uint64_t* Item(int32_t i) const { return &items_[i * w2_]; }
  const Back& BackOf(int32_t i) const { return back_[i]; }

  /// Scratch for the next candidate; `Insert` copies it into the table.
  uint64_t* candidate() { return candidate_.data(); }
  uint64_t* wrapped() { return wrapped_.data(); }

  /// Opens a new layer; returns its first item index.
  int32_t Open() {
    open_ = back_.size();
    return size();
  }

  /// Adds `state` to the open layer unless an item there is ⊆ it; drops
  /// the items it is ⊆ of.  The caller charged the candidate; the scan
  /// compares it with every item of the open layer, so `Insert` charges one
  /// more step per `kScanItemsPerStep` of them.  False when the budget
  /// refused the scan or the table's bytes.
  bool Insert(const uint64_t* state, Back back) {
    const size_t layer = back_.size() - open_;
    if (layer >= kScanItemsPerStep &&
        !budget_->Charge(static_cast<int64_t>(layer / kScanItemsPerStep))) {
      return false;
    }
    for (size_t i = open_; i < back_.size(); ++i) {
      if (Subset(&items_[i * w2_], state)) return true;
    }
    size_t keep = open_;
    for (size_t i = open_; i < back_.size(); ++i) {
      if (Subset(state, &items_[i * w2_])) continue;
      if (keep != i) {
        std::copy_n(&items_[i * w2_], w2_, &items_[keep * w2_]);
        back_[keep] = back_[i];
      }
      ++keep;
    }
    items_.resize(keep * w2_);
    back_.resize(keep);
    if (keep == capacity_) {
      // Charge before growing: the doubled capacity, high-water across the
      // scratch's pooled life.
      const size_t grown = std::max<size_t>(64, 2 * capacity_);
      if (!tracked_.Reserve(Bytes(grown * w2_, grown))) return false;
      items_.reserve(grown * w2_);
      back_.reserve(grown);
      capacity_ = grown;
    }
    items_.insert(items_.end(), state, state + w2_);
    back_.push_back(back);
    return true;
  }

 private:
  static int64_t Bytes(size_t words, size_t backs) {
    return static_cast<int64_t>(words * sizeof(uint64_t) +
                                backs * sizeof(Back));
  }

  /// a ⊆ b, componentwise on (Sat, Below).
  bool Subset(const uint64_t* a, const uint64_t* b) const {
    for (size_t k = 0; k < w2_; ++k) {
      if ((a[k] & ~b[k]) != 0) return false;
    }
    return true;
  }

  size_t w2_ = 0;
  Budget* budget_ = nullptr;
  std::vector<uint64_t> items_;
  std::vector<Back> back_;
  size_t open_ = 0;
  size_t capacity_ = 0;  // items the reserved (and charged) storage holds
  std::vector<uint64_t> candidate_;
  std::vector<uint64_t> wrapped_;
  TrackedBytes tracked_;
};

/// An item range [begin, end) of the table.
struct Layer {
  int32_t begin = 0;
  int32_t end = 0;
  int32_t size() const { return end - begin; }
};

}  // namespace

TypeSetDecision TypeSetContainment(const Tpq& p, const Tpq& q, int32_t bound,
                                   LabelId bottom, EngineContext* ctx) {
  const int32_t words = (q.size() + 63) / 64;
  Budget& budget = ctx->budget();
  TypeSetDecision decision;
  int64_t states = 0;
  int64_t unions = 0;
  auto finish = [&](bool exhausted) {
    ctx->stats().type_set_states.fetch_add(states, std::memory_order_relaxed);
    ctx->stats().type_set_unions.fetch_add(unions, std::memory_order_relaxed);
    if (exhausted) decision.outcome = Outcome::kResourceExhausted;
    return std::move(decision);
  };
  auto table = ctx->scratch().Acquire<TypeSetTable>();
  if (!table->Reset(words, &budget)) return finish(true);

  // edge[v]: the states at the top of the edge into v.
  std::vector<Layer> edge(p.size());
  Layer root;
  // Children have larger ids than their parents: a backwards pass is
  // bottom-up.
  for (NodeId v = p.size() - 1; v >= 0; --v) {
    // Pairwise unions of the children's edge sets, seeded with ∅.
    Layer acc{table->Open(), 0};
    std::fill_n(table->candidate(), 2 * words, 0);
    if (!table->Insert(table->candidate(), Back{-1, -1})) return finish(true);
    acc.end = table->size();
    for (NodeId c = p.FirstChild(v); c != kNoNode; c = p.NextSibling(c)) {
      const Layer in = edge[c];
      Layer next{table->Open(), 0};
      for (int32_t a = acc.begin; a < acc.end; ++a) {
        if (!budget.Charge(in.size())) return finish(true);
        unions += in.size();
        for (int32_t e = in.begin; e < in.end; ++e) {
          const uint64_t* x = table->Item(a);
          const uint64_t* y = table->Item(e);
          uint64_t* out = table->candidate();
          for (int32_t k = 0; k < 2 * words; ++k) out[k] = x[k] | y[k];
          if (!table->Insert(out, Back{a, e})) return finish(true);
        }
      }
      next.end = table->size();
      acc = next;
    }
    // The node's own transition.
    const LabelId label = p.IsWildcard(v) ? bottom : p.Label(v);
    if (!budget.Charge(acc.size())) return finish(true);
    states += acc.size();
    Layer own{table->Open(), 0};
    for (int32_t a = acc.begin; a < acc.end; ++a) {
      const uint64_t* x = table->Item(a);
      uint64_t* out = table->candidate();
      TpqTransition(q, label, x, x + words, out, out + words);
      if (!table->Insert(out, Back{a, -1})) return finish(true);
    }
    own.end = table->size();
    if (v == 0) {
      root = own;
      break;
    }
    if (p.Edge(v) == EdgeKind::kChild) {
      edge[v] = own;
      continue;
    }
    // Descendant edge: 0..bound ⊥-wraps above each node state.  A wrap that
    // reproduces its input is a fixpoint, and so are all later ones.
    Layer wraps{table->Open(), 0};
    for (int32_t s = own.begin; s < own.end; ++s) {
      uint64_t* cur = table->candidate();
      uint64_t* out = table->wrapped();
      std::copy_n(table->Item(s), 2 * words, cur);
      if (!table->Insert(cur, Back{s, 0})) return finish(true);
      for (int32_t k = 1; k <= bound; ++k) {
        if (!budget.Charge(1)) return finish(true);
        ++states;
        TpqTransition(q, bottom, cur, cur + words, out, out + words);
        if (std::equal(cur, cur + 2 * words, out)) break;
        if (!table->Insert(out, Back{s, k})) return finish(true);
        std::swap(cur, out);
      }
    }
    wraps.end = table->size();
    edge[v] = wraps;
  }

  int32_t refuted = -1;
  for (int32_t s = root.begin; s < root.end && refuted < 0; ++s) {
    if (!TestWordBit(table->Item(s) + words, 0)) refuted = s;
  }
  decision.contained = refuted < 0;
  if (decision.contained) return finish(false);

  // Unwind the back-pointers from the non-accepting root state.
  const std::vector<NodeId> spines = DescendantEdges(p);
  std::vector<int32_t> spine_of(p.size(), -1);
  for (size_t i = 0; i < spines.size(); ++i) {
    spine_of[spines[i]] = static_cast<int32_t>(i);
  }
  decision.counterexample_lengths.assign(spines.size(), 0);
  std::vector<NodeId> children;
  std::vector<std::pair<NodeId, int32_t>> stack = {{0, refuted}};
  while (!stack.empty()) {
    const auto [v, s] = stack.back();
    stack.pop_back();
    children.clear();
    for (NodeId c = p.FirstChild(v); c != kNoNode; c = p.NextSibling(c)) {
      children.push_back(c);
    }
    // The union layers joined the children in order; walk them backwards.
    int32_t a = table->BackOf(s).from;
    for (size_t j = children.size(); j-- > 0;) {
      const NodeId c = children[j];
      const int32_t e = table->BackOf(a).via;
      a = table->BackOf(a).from;
      if (spine_of[c] < 0) {
        stack.emplace_back(c, e);
      } else {
        decision.counterexample_lengths[spine_of[c]] = table->BackOf(e).via;
        stack.emplace_back(c, table->BackOf(e).from);
      }
    }
  }
  return finish(false);
}

}  // namespace tpc
