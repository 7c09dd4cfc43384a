#include "automata/tpq_det.h"

#include <algorithm>

namespace tpc {

TpqDetAutomaton::TpqDetAutomaton(const Tpq& q) : q_(q) {}

TpqDetAutomaton::StateId TpqDetAutomaton::Intern(State state) {
  auto key = std::make_pair(state.sat, state.below);
  auto it = ids_.find(key);
  if (it != ids_.end()) return it->second;
  StateId id = static_cast<StateId>(states_.size());
  states_.push_back(std::move(state));
  ids_.emplace(std::move(key), id);
  return id;
}

TpqDetAutomaton::StateId TpqDetAutomaton::StateFor(
    LabelId label, const std::vector<StateId>& children) {
  NodeBitset sat_union(q_.size());
  NodeBitset below_union(q_.size());
  for (StateId c : children) {
    sat_union.UnionWith(states_[c].sat);
    below_union.UnionWith(states_[c].below);
  }
  return StateForUnion(label, sat_union, below_union);
}

TpqDetAutomaton::StateId TpqDetAutomaton::StateForUnion(
    LabelId label, const NodeBitset& children_sat,
    const NodeBitset& children_below) {
  return StateForUnion(label, children_sat.words(), children_below.words());
}

TpqDetAutomaton::StateId TpqDetAutomaton::StateForUnion(
    LabelId label, const uint64_t* children_sat,
    const uint64_t* children_below) {
  State state{NodeBitset(q_.size()), NodeBitset(q_.size())};
  TpqTransition(q_, label, children_sat, children_below,
                state.sat.mutable_words(), state.below.mutable_words());
  return Intern(std::move(state));
}

void TpqTransition(const Tpq& q, LabelId label, const uint64_t* children_sat,
                   const uint64_t* children_below, uint64_t* sat,
                   uint64_t* below) {
  const int32_t words = (q.size() + 63) / 64;
  std::fill(sat, sat + words, 0);
  std::fill(below, below + words, 0);
  // A node's Sat bits read only the children's unions, never each other, so
  // one pass over the pattern in any order fills both sets.
  for (NodeId v = q.size() - 1; v >= 0; --v) {
    bool ok = q.IsWildcard(v) || q.Label(v) == label;
    for (NodeId z = q.FirstChild(v); z != kNoNode && ok;
         z = q.NextSibling(z)) {
      ok = q.Edge(z) == EdgeKind::kChild ? TestWordBit(children_sat, z)
                                         : TestWordBit(children_below, z);
    }
    if (ok) SetWordBit(sat, v);
    if (ok || TestWordBit(children_below, v)) SetWordBit(below, v);
  }
}

}  // namespace tpc
