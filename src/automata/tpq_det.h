// Lazy deterministic bottom-up automaton of a tree pattern query.
//
// For a TPQ q, the canonical deterministic bottom-up automaton has states
// (Sat, Below) ⊆ Nodes(q) × Nodes(q): at a tree node y, `Sat` is the set of
// pattern nodes x whose subquery strongly embeds at y, and `Below` the set
// whose subquery embeds somewhere in subtree(y).  Both sets are determined
// by y's label and the *unions* of the children's Sat/Below sets (embedding
// requirements are existential and non-injective).
//
// The full automaton has up to 4^|q| states (this is unavoidable: the paper
// shows complementation of TPQ languages is inherently exponential, cf.
// Figure 6), so states are materialized lazily and interned.  This class is
// the workhorse of the general schema-aware decision procedures (Sections
// 4-6): satisfiability, validity and containment with DTDs all reduce to
// reachability analyses over (DTD symbol, pattern state) configurations.

#ifndef TPC_AUTOMATA_TPQ_DET_H_
#define TPC_AUTOMATA_TPQ_DET_H_

#include <cstdint>
#include <map>
#include <vector>

#include "base/label.h"
#include "pattern/tpq.h"

namespace tpc {

/// Tests bit `i` of a packed uint64-word bitset.  The shared primitive of
/// every word-packed set representation in the library (`NodeBitset`,
/// `MatcherWorkspace` rows, `StateSetInterner` arenas, NTA run sets).
inline bool TestWordBit(const uint64_t* words, int32_t i) {
  return (words[i >> 6] >> (i & 63)) & 1;
}

/// Sets bit `i` of a packed uint64-word bitset.
inline void SetWordBit(uint64_t* words, int32_t i) {
  words[i >> 6] |= uint64_t{1} << (i & 63);
}

/// A fixed-width bitset over pattern nodes.
class NodeBitset {
 public:
  NodeBitset() = default;
  explicit NodeBitset(int32_t num_bits)
      : words_((num_bits + 63) / 64, 0) {}

  bool Test(int32_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  void Set(int32_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  void UnionWith(const NodeBitset& other) {
    for (size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
  }
  bool operator==(const NodeBitset&) const = default;
  bool operator<(const NodeBitset& other) const {
    return words_ < other.words_;
  }
  bool None() const {
    for (uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  /// Raw word access for interning (see automata/state_interning.h).
  const uint64_t* words() const { return words_.data(); }
  uint64_t* mutable_words() { return words_.data(); }
  int32_t num_words() const { return static_cast<int32_t>(words_.size()); }

 private:
  std::vector<uint64_t> words_;
};

/// The automaton's transition, uninterned: writes the (Sat, Below) state of
/// a node with `label` whose children's states union to `children_sat` /
/// `children_below` into `sat` / `below`.  Every set is ⌈|q|/64⌉ words; the
/// outputs are overwritten and must not alias the inputs.  Monotone: larger
/// children unions never shrink either output set.
void TpqTransition(const Tpq& q, LabelId label, const uint64_t* children_sat,
                   const uint64_t* children_below, uint64_t* sat,
                   uint64_t* below);

/// Lazily materialized deterministic bottom-up TPQ automaton.
class TpqDetAutomaton {
 public:
  using StateId = int32_t;

  explicit TpqDetAutomaton(const Tpq& q);

  const Tpq& query() const { return q_; }

  /// State of a node with `label` whose children carry `children` states.
  StateId StateFor(LabelId label, const std::vector<StateId>& children);

  /// State of a node with `label` given the unions of children Sat/Below
  /// sets (for callers that accumulate unions incrementally).
  StateId StateForUnion(LabelId label, const NodeBitset& children_sat,
                        const NodeBitset& children_below);

  /// Same, over raw uint64 words (⌈|q|/64⌉ words each) — the engines keep
  /// the unions interned and never materialize `NodeBitset`s in hot loops.
  StateId StateForUnion(LabelId label, const uint64_t* children_sat,
                        const uint64_t* children_below);

  const NodeBitset& Sat(StateId s) const { return states_[s].sat; }
  const NodeBitset& Below(StateId s) const { return states_[s].below; }

  /// True iff a tree reaching this state at its root is in L_s(q) / L_w(q).
  bool AcceptsStrong(StateId s) const { return Sat(s).Test(0); }
  bool AcceptsWeak(StateId s) const { return Below(s).Test(0); }

  /// Number of states materialized so far (grows as StateFor is called);
  /// reported by the Figure-6 style blowup benchmarks.
  int32_t num_materialized() const {
    return static_cast<int32_t>(states_.size());
  }

 private:
  struct State {
    NodeBitset sat;
    NodeBitset below;
  };

  StateId Intern(State state);

  Tpq q_;
  std::vector<State> states_;
  std::map<std::pair<NodeBitset, NodeBitset>, StateId> ids_;
};

}  // namespace tpc

#endif  // TPC_AUTOMATA_TPQ_DET_H_
