#include "schema/schema_engine.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "automata/nta.h"
#include "automata/state_interning.h"
#include "automata/tpq_det.h"
#include "engine/tracked.h"
#include "schema/nta_satisfiability.h"

namespace tpc {

namespace {

/// `config_ids_` value for a configuration that arrived dominated and was
/// never materialized.  Domination is transitive, so even if its dominator
/// is deactivated later, some active configuration still covers it.
constexpr int32_t kDroppedConfig = -2;

/// One realized configuration: NTA state, node label, deterministic
/// pattern states, the interned ids of those states' Sat/Below sets (what
/// the configuration contributes to a parent's unions), and a derivation
/// for witness reconstruction.  The arena is append-only — antichain
/// pruning only clears `active` — so `children` indices of later
/// derivations stay valid.
struct ConfigRec {
  int32_t state;
  LabelId label;
  int32_t p_state;
  int32_t q_state;
  int32_t p_sat_id, p_below_id;  // ids in the p-side interner
  int32_t q_sat_id, q_below_id;  // ids in the q-side interner
  std::vector<int32_t> children;  // indices of realizing child configs
  bool active = true;
};

/// A realization found by a horizontal search: the accumulated union ids at
/// an accepting horizontal state, plus the children consumed to get there.
/// In parallel rounds these are buffered per transition and merged at the
/// round barrier (resolving det states mutates the lazy automata, which is
/// not thread-safe).
struct Candidate {
  int32_t p_sat_id, p_below_id, q_sat_id, q_below_id;
  std::vector<int32_t> children;
};

/// Horizontal-search node: horizontal NFA state plus the interned union ids
/// of the children consumed so far.
struct HNode {
  int32_t nfa_state;
  int32_t p_sat_id, p_below_id, q_sat_id, q_below_id;
  int32_t from = -1;  // index of predecessor HNode
  int32_t via = -1;   // config index consumed on the way here
};

/// Per-transition search state, persistent across rounds so one saturation
/// round allocates (almost) nothing.  In parallel rounds each transition is
/// owned by exactly one worker; `realized` is written only by the
/// sequential merge phase.  It is kept per transition, not per state:
/// transitions on one state carry different labels, so a shared memo would
/// lose labels.
struct TransitionScratch {
  std::vector<HNode> nodes;
  std::unordered_set<std::array<int32_t, 5>, IntArrayHash<5>> seen;
  std::vector<Candidate> candidates;
  /// Union tuples already merged (or found duplicate) in earlier rounds.
  std::unordered_set<std::array<int32_t, 4>, IntArrayHash<4>> realized;
  /// Union tuples already emitted during the current search.
  std::unordered_set<std::array<int32_t, 4>, IntArrayHash<4>> emitted;
  /// High-water byte accounting for this scratch's search frontier (the
  /// node vector plus its dedup-set entries); capacity is retained across
  /// rounds, so only growth beyond the previous peak is charged.
  TrackedBytes tracked;
  /// `nodes.capacity()` at the last `tracked.Reserve`, so the hot expansion
  /// loop re-charges only when the vector actually reallocates.
  size_t reserved_capacity = 0;
};

/// Approximate retained bytes of a search frontier holding `nodes` HNodes:
/// the vector storage plus one `seen` hash-set entry per node.  Accounting
/// is table-granular by design (DESIGN.md "Failure model") — the goal is
/// that a runaway frontier trips the memory budget, not byte-exact RSS.
int64_t FrontierBytes(size_t nodes) {
  return static_cast<int64_t>(nodes) *
         static_cast<int64_t>(sizeof(HNode) + 5 * sizeof(int32_t) +
                              2 * sizeof(void*));
}

/// The saturation engine: searches for a tree accepted by `nta` that is in
/// L(p) (when p is given) and not in L(q) (when q is given).
class Engine {
 public:
  /// `pool` supplies the filler label of wildcard transitions and may be
  /// null when `nta` has none.
  Engine(const Nta& nta, const Tpq* p, const Tpq* q, Mode mode,
         LabelPool* pool, EngineContext* ctx, const EngineLimits& limits,
         const SchemaEngineOptions& options)
      : nta_(nta), mode_(mode), ctx_(ctx), limits_(limits),
        options_(options), p_side_(p, &ctx->budget()),
        q_side_(q, &ctx->budget()), scratch_(nta.transitions().size()),
        active_by_state_(nta.num_states()),
        tracked_configs_(&ctx->budget()) {
    for (TransitionScratch& s : scratch_) s.tracked.Attach(&ctx->budget());
    const std::vector<Nta::Transition>& transitions = nta.transitions();
    if (std::any_of(transitions.begin(), transitions.end(),
                    [](const Nta::Transition& tr) {
                      return tr.label == kWildcard;
                    })) {
      // A wildcard transition tries the NTA's alphabet, the letters of the
      // patterns, and one filler standing for every other label (they all
      // behave identically).  The pool's reserved ⊥ occurs in no pattern
      // being decided and is minted once, so repeated decisions do not grow
      // the pool.
      std::set<LabelId> labels(nta.alphabet().begin(), nta.alphabet().end());
      for (const Tpq* pattern : {p, q}) {
        if (pattern == nullptr) continue;
        for (NodeId v = 0; v < pattern->size(); ++v) {
          if (!pattern->IsWildcard(v)) labels.insert(pattern->Label(v));
        }
      }
      labels.insert(pool->Bottom());
      wildcard_labels_.assign(labels.begin(), labels.end());
    }
  }

  /// Runs the fixpoint in saturation rounds until a goal configuration is
  /// found (returning its index), the reachable set is exhausted (-1), or a
  /// resource limit is hit (-2, undecided).  Legacy `EngineLimits` caps and
  /// the context budget both funnel into -2.
  int32_t Solve() {
    const int32_t num_transitions = static_cast<int32_t>(scratch_.size());
    const bool parallel = ctx_->threads() > 1 && num_transitions > 1;
    while (true) {
      changed_ = false;
      if (options_.antichain) CompactActiveLists();
      if (parallel) {
        // Search phase: each transition's horizontal search on the pool,
        // with per-transition scratch; workers only read configs_/active
        // lists and create set ids through the (thread-safe) interners.
        ctx_->pool().ParallelFor(num_transitions, [this](int64_t ti) {
          SearchTransition(static_cast<int32_t>(ti), /*merge_inline=*/false);
        });
        // Merge phase (sequential): resolve det states, prune, insert.
        for (int32_t ti = 0; ti < num_transitions; ++ti) {
          for (Candidate& cand : scratch_[ti].candidates) {
            MergeCandidate(ti, std::move(cand));
            if (goal_ >= 0 || cap_hit_) break;
          }
          scratch_[ti].candidates.clear();
          if (goal_ >= 0 || cap_hit_) break;
        }
      } else {
        for (int32_t ti = 0; ti < num_transitions; ++ti) {
          SearchTransition(ti, /*merge_inline=*/true);
          if (goal_ >= 0 || cap_hit_) break;
        }
      }
      if (goal_ >= 0) return goal_;
      if (cap_hit_ || ctx_->budget().Exhausted()) return -2;
      if (!changed_) {
        // A truncated horizontal search may have missed realizable
        // configurations: the fixpoint is then inconclusive.
        return truncated_.load(std::memory_order_relaxed) ? -2 : -1;
      }
    }
  }

  Tree BuildWitness(int32_t index) const {
    Tree t;
    // (config index, parent node in t); breadth-first materialization.
    std::vector<std::pair<int32_t, NodeId>> queue = {{index, kNoNode}};
    for (size_t i = 0; i < queue.size(); ++i) {
      auto [cfg_index, parent] = queue[i];
      const ConfigRec& cfg = configs_[cfg_index];
      NodeId v = parent == kNoNode ? t.AddRoot(cfg.label)
                                   : t.AddChild(parent, cfg.label);
      for (int32_t child : cfg.children) queue.emplace_back(child, v);
    }
    return t;
  }

  int64_t num_configs() const { return static_cast<int64_t>(configs_.size()); }

  /// Deterministic pattern-automaton states materialized across p and q.
  int64_t det_states() const {
    return p_side_.num_materialized() + q_side_.num_materialized();
  }
  int64_t sets_interned() const {
    return p_side_.interner().num_interned() +
           q_side_.interner().num_interned();
  }
  int64_t unions_memoized() const {
    return p_side_.interner().unions_memoized() +
           q_side_.interner().unions_memoized();
  }

 private:
  bool PAccepts(int32_t p_state) const {
    if (!p_side_.present()) return true;
    return mode_ == Mode::kStrong ? p_side_.AcceptsStrong(p_state)
                                  : p_side_.AcceptsWeak(p_state);
  }
  bool QAccepts(int32_t q_state) const {
    if (!q_side_.present()) return false;
    return mode_ == Mode::kStrong ? q_side_.AcceptsStrong(q_state)
                                  : q_side_.AcceptsWeak(q_state);
  }
  /// A final state whose tree is in L(p) and outside L(q).
  bool IsGoal(int32_t state, int32_t p_state, int32_t q_state) const {
    return nta_.final_states()[state] && PAccepts(p_state) &&
           !QAccepts(q_state);
  }

  /// Does config A (same state) subsume config B?  The order is p-up,
  /// q-down: the goal is monotone in P-acceptance and antitone in
  /// Q-acceptance, so a dominator must promise at least as much on the p
  /// side and at most as much on the q side.  (Superset on both coordinates
  /// — the naive reading of "bigger is better" — would prune exactly the
  /// small-q configurations that are the potential counterexamples.)
  /// Labels may differ: horizontal languages consume states, never labels.
  bool Dominates(const ConfigRec& a, int32_t bp_sat, int32_t bp_below,
                 int32_t bq_sat, int32_t bq_below) const {
    const StateSetInterner& pi = p_side_.interner();
    const StateSetInterner& qi = q_side_.interner();
    return pi.Superset(a.p_sat_id, bp_sat) &&
           pi.Superset(a.p_below_id, bp_below) &&
           qi.Superset(bq_sat, a.q_sat_id) &&
           qi.Superset(bq_below, a.q_below_id);
  }
  bool DominatedByNew(int32_t ap_sat, int32_t ap_below, int32_t aq_sat,
                      int32_t aq_below, const ConfigRec& b) const {
    const StateSetInterner& pi = p_side_.interner();
    const StateSetInterner& qi = q_side_.interner();
    return pi.Superset(ap_sat, b.p_sat_id) &&
           pi.Superset(ap_below, b.p_below_id) &&
           qi.Superset(b.q_sat_id, aq_sat) &&
           qi.Superset(b.q_below_id, aq_below);
  }

  /// Drops deactivated ids from the per-state active lists.  Runs between
  /// rounds only — searches iterate these lists by index.
  void CompactActiveLists() {
    for (std::vector<int32_t>& actives : active_by_state_) {
      size_t kept = 0;
      for (int32_t id : actives) {
        if (configs_[id].active) actives[kept++] = id;
      }
      actives.resize(kept);
    }
  }

  /// Accounts the frontier at its new capacity; called only when the node
  /// vector reallocated, so the charge stays off the per-node hot path.
  bool ReserveFrontier(TransitionScratch* s) {
    s->reserved_capacity = s->nodes.capacity();
    return s->tracked.Reserve(FrontierBytes(s->reserved_capacity));
  }

  /// Explores all words of transition `ti`'s horizontal language over the
  /// currently active configurations.  With `merge_inline` (sequential
  /// mode) realizations are merged immediately, so later search nodes
  /// already see them.  Without it (parallel mode) realizations are
  /// buffered as candidates.
  void SearchTransition(int32_t ti, bool merge_inline) {
    const Nfa& nfa = nta_.transitions()[ti].horizontal;
    TransitionScratch& s = scratch_[ti];
    s.nodes.clear();
    s.seen.clear();
    s.emitted.clear();
    s.candidates.clear();
    EngineStats& stats = ctx_->stats();
    StateSetInterner& pi = p_side_.interner();
    StateSetInterner& qi = q_side_.interner();
    const Symbol num_states = static_cast<Symbol>(nta_.num_states());

    auto push = [&](const HNode& node) {
      const std::array<int32_t, 5> key{node.nfa_state, node.p_sat_id,
                                       node.p_below_id, node.q_sat_id,
                                       node.q_below_id};
      if (!s.seen.insert(key).second) return;
      s.nodes.push_back(node);
      stats.horizontal_nodes.fetch_add(1, std::memory_order_relaxed);
    };
    constexpr int32_t kEmpty = StateSetInterner::kEmptySetId;
    push(HNode{nfa.initial, kEmpty, kEmpty, kEmpty, kEmpty, -1, -1});

    for (size_t i = 0; i < s.nodes.size(); ++i) {
      if (static_cast<int64_t>(s.nodes.size()) >=
              limits_.max_horizontal_nodes ||
          !ctx_->budget().Charge(1) ||
          (s.nodes.capacity() != s.reserved_capacity &&
           !ReserveFrontier(&s))) {
        truncated_.store(true, std::memory_order_relaxed);
        return;
      }
      if (merge_inline && (goal_ >= 0 || cap_hit_)) return;
      // Realize a configuration if the horizontal language accepts here.
      if (nfa.accepting[s.nodes[i].nfa_state]) {
        const HNode& node = s.nodes[i];
        const std::array<int32_t, 4> tuple{node.p_sat_id, node.p_below_id,
                                           node.q_sat_id, node.q_below_id};
        if (s.realized.find(tuple) == s.realized.end() &&
            s.emitted.insert(tuple).second) {
          Candidate cand{node.p_sat_id, node.p_below_id, node.q_sat_id,
                         node.q_below_id, {}};
          for (int32_t n = static_cast<int32_t>(i); s.nodes[n].from >= 0;
               n = s.nodes[n].from) {
            cand.children.push_back(s.nodes[n].via);
          }
          std::reverse(cand.children.begin(), cand.children.end());
          if (merge_inline) {
            MergeCandidate(ti, std::move(cand));
            if (goal_ >= 0 || cap_hit_) return;
          } else {
            s.candidates.push_back(std::move(cand));
          }
        }
      }
      // Extend with one more child drawn from the active configurations of
      // the state the horizontal symbol names.  Index-based iteration: an
      // inline merge may append to the list (and this loop then picks the
      // new configuration up immediately).
      for (const auto& [symbol, target] :
           nfa.transitions[s.nodes[i].nfa_state]) {
        if (symbol >= num_states) continue;
        const std::vector<int32_t>& actives = active_by_state_[symbol];
        for (size_t k = 0; k < actives.size(); ++k) {
          const ConfigRec& child = configs_[actives[k]];
          if (!child.active) continue;
          const HNode& cur = s.nodes[i];
          HNode next;
          next.nfa_state = target;
          next.p_sat_id = pi.Union(cur.p_sat_id, child.p_sat_id);
          next.p_below_id = pi.Union(cur.p_below_id, child.p_below_id);
          next.q_sat_id = qi.Union(cur.q_sat_id, child.q_sat_id);
          next.q_below_id = qi.Union(cur.q_below_id, child.q_below_id);
          if (next.p_sat_id < 0 || next.p_below_id < 0 ||
              next.q_sat_id < 0 || next.q_below_id < 0) {
            truncated_.store(true, std::memory_order_relaxed);
            return;
          }
          next.from = static_cast<int32_t>(i);
          next.via = actives[k];
          push(next);
        }
      }
    }
  }

  /// Inserts the candidate once per label of transition `ti` (one label,
  /// or the wildcard candidates).  Sequential (merge phase / inline mode).
  void MergeCandidate(int32_t ti, Candidate cand) {
    if (goal_ >= 0 || cap_hit_) return;
    const std::array<int32_t, 4> tuple{cand.p_sat_id, cand.p_below_id,
                                       cand.q_sat_id, cand.q_below_id};
    if (!scratch_[ti].realized.insert(tuple).second) return;
    const Nta::Transition& tr = nta_.transitions()[ti];
    const bool wildcard = tr.label == kWildcard;
    const LabelId* labels = wildcard ? wildcard_labels_.data() : &tr.label;
    const size_t num_labels = wildcard ? wildcard_labels_.size() : 1;
    for (size_t li = 0; li < num_labels; ++li) {
      std::vector<int32_t> children =
          li + 1 == num_labels ? std::move(cand.children) : cand.children;
      AddConfig(tr.state, labels[li], cand, std::move(children));
      if (goal_ >= 0 || cap_hit_) return;
    }
  }

  /// Resolves the det states of a `label`-node over the candidate's unions,
  /// applies antichain pruning, and inserts the configuration.
  void AddConfig(int32_t state, LabelId label, const Candidate& cand,
                 std::vector<int32_t> children) {
    const int32_t ps = p_side_.Resolve(label, cand.p_sat_id, cand.p_below_id);
    const int32_t qs = q_side_.Resolve(label, cand.q_sat_id, cand.q_below_id);
    const auto key = std::make_tuple(state, label, ps, qs);
    if (config_ids_.find(key) != config_ids_.end()) return;
    const auto [p_sat, p_below] = p_side_.StateSetIds(ps);
    const auto [q_sat, q_below] = q_side_.StateSetIds(qs);
    if (p_sat < 0 || p_below < 0 || q_sat < 0 || q_below < 0) {
      truncated_.store(true, std::memory_order_relaxed);
      return;
    }
    EngineStats& stats = ctx_->stats();
    std::vector<int32_t>& actives = active_by_state_[state];
    if (options_.antichain) {
      for (int32_t id : actives) {
        const ConfigRec& c = configs_[id];
        if (!c.active) continue;
        if (Dominates(c, p_sat, p_below, q_sat, q_below)) {
          // `c` was goal-checked at its own insertion and the goal is
          // monotone along the domination order, so dropping the newcomer
          // cannot lose a goal.
          stats.configs_subsumed.fetch_add(1, std::memory_order_relaxed);
          config_ids_.emplace(key, kDroppedConfig);
          return;
        }
      }
      for (int32_t id : actives) {
        ConfigRec& c = configs_[id];
        if (!c.active) continue;
        if (DominatedByNew(p_sat, p_below, q_sat, q_below, c)) {
          c.active = false;
          stats.configs_subsumed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    const int32_t id = static_cast<int32_t>(configs_.size());
    if (!tracked_configs_.Charge(
            static_cast<int64_t>(sizeof(ConfigRec)) +
            static_cast<int64_t>(children.size() * sizeof(int32_t)))) {
      truncated_.store(true, std::memory_order_relaxed);
      return;
    }
    configs_.push_back(ConfigRec{state, label, ps, qs, p_sat, p_below, q_sat,
                                 q_below, std::move(children), true});
    actives.push_back(id);
    config_ids_.emplace(key, id);
    stats.schema_configurations.fetch_add(1, std::memory_order_relaxed);
    changed_ = true;
    if (IsGoal(state, ps, qs)) {
      goal_ = id;
      return;
    }
    if (num_configs() >= limits_.max_configurations) cap_hit_ = true;
  }

  const Nta& nta_;
  const Mode mode_;
  EngineContext* ctx_;
  EngineLimits limits_;
  SchemaEngineOptions options_;
  DetSide p_side_;
  DetSide q_side_;
  /// Labels a wildcard transition tries (empty when there is none).
  std::vector<LabelId> wildcard_labels_;
  std::vector<TransitionScratch> scratch_;
  std::vector<ConfigRec> configs_;
  /// Per NTA state: arena indices of the configurations the searches may
  /// consume.  Antichain mode keeps each list an antichain of the
  /// domination order (deactivated entries are compacted between rounds).
  std::vector<std::vector<int32_t>> active_by_state_;
  /// (state, label, ps, qs) -> arena index, or kDroppedConfig for a pruned
  /// arrival.
  std::map<std::tuple<int32_t, LabelId, int32_t, int32_t>, int32_t>
      config_ids_;
  /// Bytes of the configuration arena (records + derivation children),
  /// released with the engine.
  TrackedBytes tracked_configs_;
  int32_t goal_ = -1;
  bool changed_ = false;
  bool cap_hit_ = false;
  std::atomic<bool> truncated_{false};
};

/// Runs one engine over `nta` and folds its result into a SchemaDecision,
/// recording the deterministic-state and interner counters in the
/// context's instrumentation block.  The decision's `yes` is "a goal tree
/// exists", or its negation with `yes_when_empty` (validity, containment).
SchemaDecision Decide(const Nta& nta, const Tpq* p, const Tpq* q, Mode mode,
                      LabelPool* pool, EngineContext* ctx,
                      const EngineLimits& limits,
                      const SchemaEngineOptions& options,
                      bool yes_when_empty) {
  Budget::ScopedDeadline deadline(&ctx->budget(), limits.max_milliseconds);
  Engine engine(nta, p, q, mode, pool, ctx, limits, options);
  const int32_t goal = engine.Solve();
  SchemaDecision out;
  out.configurations = engine.num_configs();
  out.decided = goal != -2;
  out.outcome = out.decided ? Outcome::kDecided : Outcome::kResourceExhausted;
  if (!out.decided) {
    // Read the budget's reason here, before the ScopedDeadline unwinds and
    // clears transient exhaustion.  kNone means a legacy cap
    // (configuration / horizontal-node volume) tripped without the budget:
    // report it as the step-like work limit it is.
    const ExhaustionReason r = ctx->budget().reason();
    out.reason = r == ExhaustionReason::kNone ? ExhaustionReason::kSteps : r;
  }
  out.yes = yes_when_empty ? goal == -1 : goal >= 0;
  if (goal >= 0) out.witness = engine.BuildWitness(goal);
  EngineStats& stats = ctx->stats();
  stats.det_states_materialized.fetch_add(engine.det_states(),
                                          std::memory_order_relaxed);
  stats.state_sets_interned.fetch_add(engine.sets_interned(),
                                      std::memory_order_relaxed);
  stats.unions_memoized.fetch_add(engine.unions_memoized(),
                                  std::memory_order_relaxed);
  return out;
}

}  // namespace

SchemaDecision SatisfiableWithDtd(const Tpq& p, Mode mode, const Dtd& dtd,
                                  EngineContext* ctx,
                                  const EngineLimits& limits,
                                  const SchemaEngineOptions& options) {
  return Decide(dtd.Automaton(), &p, nullptr, mode, nullptr, ctx, limits,
                options, /*yes_when_empty=*/false);
}

SchemaDecision ValidWithDtd(const Tpq& q, Mode mode, const Dtd& dtd,
                            EngineContext* ctx, const EngineLimits& limits,
                            const SchemaEngineOptions& options) {
  // Valid iff no counterexample.
  return Decide(dtd.Automaton(), nullptr, &q, mode, nullptr, ctx, limits,
                options, /*yes_when_empty=*/true);
}

SchemaDecision ContainedWithDtd(const Tpq& p, const Tpq& q, Mode mode,
                                const Dtd& dtd, EngineContext* ctx,
                                const EngineLimits& limits,
                                const SchemaEngineOptions& options) {
  // Contained iff no counterexample.
  return Decide(dtd.Automaton(), &p, &q, mode, nullptr, ctx, limits, options,
                /*yes_when_empty=*/true);
}

SchemaDecision SatisfiableWithNta(const Tpq& p, Mode mode, const Nta& nta,
                                  LabelPool* pool, EngineContext* ctx,
                                  const EngineLimits& limits,
                                  const SchemaEngineOptions& options) {
  return Decide(nta, &p, nullptr, mode, pool, ctx, limits, options,
                /*yes_when_empty=*/false);
}

SchemaDecision SatisfiablePathWithDtd(const Tpq& p, Mode mode, const Dtd& dtd,
                                      EngineContext* ctx) {
  assert(IsPathQuery(p));
  Nta product = Nta::Intersect(dtd.Automaton(),
                               Nta::FromPathQuery(p, mode == Mode::kStrong));
  EngineStats& stats = ctx->stats();
  stats.nta_states_built.fetch_add(product.num_states(),
                                   std::memory_order_relaxed);
  stats.nta_transitions_built.fetch_add(
      static_cast<int64_t>(product.transitions().size()),
      std::memory_order_relaxed);
  SchemaDecision out;
  out.configurations = product.num_states();
  std::optional<Tree> witness = product.SmallestWitness();
  out.yes = witness.has_value();
  out.witness = std::move(witness);
  return out;
}

// Legacy entry points: same algorithms against the process-default context.

SchemaDecision SatisfiableWithDtd(const Tpq& p, Mode mode, const Dtd& dtd,
                                  const EngineLimits& limits) {
  return SatisfiableWithDtd(p, mode, dtd, &EngineContext::Default(), limits);
}

SchemaDecision ValidWithDtd(const Tpq& q, Mode mode, const Dtd& dtd,
                            const EngineLimits& limits) {
  return ValidWithDtd(q, mode, dtd, &EngineContext::Default(), limits);
}

SchemaDecision ContainedWithDtd(const Tpq& p, const Tpq& q, Mode mode,
                                const Dtd& dtd, const EngineLimits& limits) {
  return ContainedWithDtd(p, q, mode, dtd, &EngineContext::Default(), limits);
}

SchemaDecision SatisfiablePathWithDtd(const Tpq& p, Mode mode,
                                      const Dtd& dtd) {
  return SatisfiablePathWithDtd(p, mode, dtd, &EngineContext::Default());
}

SchemaDecision SatisfiableWithNta(const Tpq& p, Mode mode, const Nta& nta,
                                  LabelPool* pool,
                                  const EngineLimits& limits) {
  return SatisfiableWithNta(p, mode, nta, pool, &EngineContext::Default(),
                            limits);
}

}  // namespace tpc
