// The schema-aware decision engine (Sections 4–6 of the paper).
//
// Satisfiability, validity and containment with respect to a DTD are all
// emptiness questions about one product language:
//
//     { t  :  t ⊨ d,   t ∈ L(p) (if p given),   t ∉ L(q) (if q given) }
//
//   * satisfiability of p w.r.t. d:   no q           — nonempty ⇔ satisfiable
//   * validity of q w.r.t. d:        no p           — nonempty ⇔ NOT valid
//   * containment of p in q w.r.t d: both           — nonempty ⇔ NOT contained
//
// One saturation engine decides all of them.  A DTD is a special NTA
// (Observation 6.2): the engine runs over `dtd.Automaton()`, whose states
// are the DTD's symbols and whose horizontal languages are the content
// models, and `SatisfiableWithNta` (schema/nta_satisfiability.h) runs the
// same engine over an arbitrary NTA.  It computes the reachable
// configurations (s, a, ps, qs) where `s` is an NTA state, `a` a node
// label, and ps/qs are states of the lazy deterministic bottom-up automata
// of p and q (`TpqDetAutomaton`).  A configuration is realizable if some
// tree with root label `a` has a run ending in `s` and drives the pattern
// automata to (ps, qs).  Because the deterministic pattern states depend
// only on the *unions* of the children's Sat/Below sets, the per-transition
// horizontal search runs over (horizontal NFA state, accumulated unions).
//
// The procedure is worst-case exponential — unavoidably so: the paper proves
// the general problems EXPTIME-complete (Theorem 6.6) — but it is the exact
// decision procedure for *every* fragment, and it terminates with a witness
// derivation when the product is nonempty.

#ifndef TPC_SCHEMA_SCHEMA_ENGINE_H_
#define TPC_SCHEMA_SCHEMA_ENGINE_H_

#include <cstdint>
#include <optional>

#include "contain/containment.h"  // Mode
#include "dtd/dtd.h"
#include "engine/engine.h"
#include "pattern/tpq.h"
#include "tree/tree.h"

namespace tpc {

/// Resource limits for the engine.  The EXPTIME benchmarks use the
/// configuration cap to probe how the explored state space grows with the
/// instance while keeping wall-clock time bounded.
struct EngineLimits {
  int64_t max_configurations = INT64_MAX;
  /// Cap on the per-transition horizontal search frontier; a single content
  /// model can otherwise blow up before the configuration cap triggers.
  int64_t max_horizontal_nodes = INT64_MAX;
  /// Wall-clock deadline; 0 means unlimited.  Armed onto the context budget
  /// (tightening any caller deadline) for the duration of one decision, so
  /// the engine observes a single deadline via `Budget::Charge`.  Benchmarks
  /// use this to probe EXPTIME instances under a fixed time budget.
  int64_t max_milliseconds = 0;
};

/// A/B switches for the schema engine's exploration core.
struct SchemaEngineOptions {
  /// Keep only subsumption-maximal configurations per NTA state and drop
  /// dominated ones on insert (antichain pruning).  Sound and complete —
  /// see DESIGN.md "Schema engine internals" — and typically shrinks the
  /// materialized configuration count by an order of magnitude on the
  /// EXPTIME family.  Off explores the full reachable set, for A/B runs.
  bool antichain = true;
};

/// Outcome of a schema-aware decision.
struct SchemaDecision {
  /// False iff the engine hit a resource limit before the answer was
  /// certain; `yes` is then meaningless.
  bool decided = true;
  /// Same information as `decided`, phrased in the engine's vocabulary
  /// (`kResourceExhausted` covers legacy caps and ctx budgets alike).
  Outcome outcome = Outcome::kDecided;
  /// Which resource exhausted (kNone while decided).  Legacy caps
  /// (`max_configurations`/`max_horizontal_nodes`) report kSteps: they are
  /// work-volume limits that bypass the budget's own counters.
  ExhaustionReason reason = ExhaustionReason::kNone;
  /// Answer to the *decision problem* as phrased in the paper:
  /// satisfiable? / valid? / contained?
  bool yes = false;
  /// For satisfiability: a tree in L(p) ∩ L(d).
  /// For validity / containment: a counterexample tree.
  std::optional<Tree> witness;
  /// Number of (state, label, pattern-state) configurations materialized —
  /// the cost measure reported by the Table 4/5 benchmarks.
  int64_t configurations = 0;
};

/// Is L(p) ∩ L(d) nonempty?  (W-/S-Satisfiability w.r.t. a DTD, Section 4.)
/// The ctx overload additionally honours the context's step/deadline budget
/// and fills its instrumentation counters; with `ctx->threads() > 1` the
/// per-transition horizontal searches of each saturation round run on the
/// context's thread pool.
SchemaDecision SatisfiableWithDtd(const Tpq& p, Mode mode, const Dtd& dtd,
                                  EngineContext* ctx,
                                  const EngineLimits& limits = {},
                                  const SchemaEngineOptions& options = {});
SchemaDecision SatisfiableWithDtd(const Tpq& p, Mode mode, const Dtd& dtd,
                                  const EngineLimits& limits = {});

/// Is L(d) ⊆ L(q)?  (W-/S-Validity w.r.t. a DTD, Section 5.)
SchemaDecision ValidWithDtd(const Tpq& q, Mode mode, const Dtd& dtd,
                            EngineContext* ctx,
                            const EngineLimits& limits = {},
                            const SchemaEngineOptions& options = {});
SchemaDecision ValidWithDtd(const Tpq& q, Mode mode, const Dtd& dtd,
                            const EngineLimits& limits = {});

/// Is L(p) ∩ L(d) ⊆ L(q)?  (W-/S-Containment w.r.t. a DTD, Section 6.)
SchemaDecision ContainedWithDtd(const Tpq& p, const Tpq& q, Mode mode,
                                const Dtd& dtd, EngineContext* ctx,
                                const EngineLimits& limits = {},
                                const SchemaEngineOptions& options = {});
SchemaDecision ContainedWithDtd(const Tpq& p, const Tpq& q, Mode mode,
                                const Dtd& dtd,
                                const EngineLimits& limits = {});

/// Polynomial-time satisfiability of a *path* query w.r.t. a DTD via tree
/// automata intersection (Theorem 4.1(1)); cross-checks the engine.
SchemaDecision SatisfiablePathWithDtd(const Tpq& p, Mode mode, const Dtd& dtd,
                                      EngineContext* ctx);
SchemaDecision SatisfiablePathWithDtd(const Tpq& p, Mode mode, const Dtd& dtd);

}  // namespace tpc

#endif  // TPC_SCHEMA_SCHEMA_ENGINE_H_
