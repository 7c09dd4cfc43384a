// Satisfiability of a TPQ w.r.t. a nondeterministic tree automaton
// (Observation 6.5), and the Theorem 6.4 containment route built on it.
//
// Theorem 6.4 decides containment of a (branching) TPQ p in a right-hand
// side q with a polynomial complement automaton by:
//   1. building the NTA for L(d) ∩ ¬L(q)  (Observation 6.2 / Lemma E.1),
//   2. testing satisfiability of p w.r.t. that NTA (in NP, Obs. 6.5):
// containment holds iff p is unsatisfiable there.
//
// The satisfiability check is the schema engine itself (schema_engine.cc),
// run over the given NTA instead of a DTD's automaton: one fixpoint over
// (NTA state, label, deterministic-pattern-automaton state) configurations.

#ifndef TPC_SCHEMA_NTA_SATISFIABILITY_H_
#define TPC_SCHEMA_NTA_SATISFIABILITY_H_

#include "automata/nta.h"
#include "contain/containment.h"  // Mode
#include "dtd/dtd.h"
#include "pattern/tpq.h"
#include "schema/schema_engine.h"

namespace tpc {

/// Is some tree accepted by `nta` in L_s(p) / L_w(p)?  Worst-case
/// exponential (the problem is NP-complete), with a witness on success.
/// The ctx overload additionally honours the context budget (with
/// `EngineLimits::max_milliseconds` armed onto it for the call) and fills
/// its instrumentation counters; `options.antichain` and parallel rounds
/// work exactly as for the DTD entry points.  A wildcard transition tries
/// the NTA's alphabet, the letters of p and the pool's reserved `Bottom()`
/// as a filler for every other label; `pool` is not touched when `nta` has
/// no wildcard transition.
SchemaDecision SatisfiableWithNta(const Tpq& p, Mode mode, const Nta& nta,
                                  LabelPool* pool, EngineContext* ctx,
                                  const EngineLimits& limits = {},
                                  const SchemaEngineOptions& options = {});
SchemaDecision SatisfiableWithNta(const Tpq& p, Mode mode, const Nta& nta,
                                  LabelPool* pool,
                                  const EngineLimits& limits = {});

/// The Theorem 6.4 route: L(p) ∩ L(d) ⊆ L(q) for a *path* right side q,
/// via NP-satisfiability of p w.r.t. the product of the DTD automaton and
/// the complement automaton of q.
SchemaDecision ContainedViaConpRoute(const Tpq& p, const Tpq& q, Mode mode,
                                     const Dtd& dtd, LabelPool* pool,
                                     EngineContext* ctx,
                                     const EngineLimits& limits = {},
                                     const SchemaEngineOptions& options = {});
SchemaDecision ContainedViaConpRoute(const Tpq& p, const Tpq& q, Mode mode,
                                     const Dtd& dtd, LabelPool* pool,
                                     const EngineLimits& limits = {});

}  // namespace tpc

#endif  // TPC_SCHEMA_NTA_SATISFIABILITY_H_
