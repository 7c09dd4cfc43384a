// The two places a pattern meets a tree: a bank of per-member matcher
// executors for the canonical sweep, and `MatchTree`, the single-tree match.
//
// The coNP procedure enumerates canonical models of the *enumeration-side*
// pattern p.  contain/containment.cc runs ONE sweep loop for every such
// decision: each tree of that exponential space is built once and evaluated
// against all still-undecided partner patterns — a solo decision is simply a
// group of one, and a sequential sweep is a single chunk of the parallel
// one.  The `SweepBank` is the evaluation half of that loop: one slot per
// member pattern q_i, each holding the member's compiled `MatcherProgram` +
// `ProgramSweep` executor — or the generic `MatcherWorkspace` fallback when
// the pattern is oversize (> 64 nodes) or compilation was declined — so the
// sweep just walks the undecided mask and calls `EvalMember` per live
// member.
//
// Attribution stays per member: `ChargeMember` books the executor's table
// bytes against the *member's* budget (exactly the bytes a sweep of that
// member alone would charge), and `EvalMember` reports DP work into the
// member's own `EngineStats`.  The bank itself owns no budget and no lock —
// the sweep drives one bank per chunk, and each chunk runs on one thread.

#ifndef TPC_COMPILE_SWEEP_BANK_H_
#define TPC_COMPILE_SWEEP_BANK_H_

#include <memory>
#include <optional>
#include <vector>

#include "compile/matcher_program.h"
#include "engine/budget.h"
#include "engine/engine.h"
#include "engine/stats.h"
#include "match/embedding.h"
#include "pattern/tpq.h"
#include "tree/tree.h"

namespace tpc {

/// Per-member executor bank for the multi-pattern canonical sweep.  Slots
/// are stable (never reordered or dropped); callers address members by the
/// index `AddMember` returned.
class SweepBank {
 public:
  SweepBank() = default;

  SweepBank(const SweepBank&) = delete;
  SweepBank& operator=(const SweepBank&) = delete;

  /// Adds an evaluation-side pattern.  `program` is the member's compiled
  /// matcher (shareable across banks/threads) or null for the generic
  /// `MatcherWorkspace` path.  `q` must outlive the bank.  Returns the
  /// member's slot index.
  size_t AddMember(const Tpq* q,
                   std::shared_ptr<const MatcherProgram> program);

  size_t size() const { return members_.size(); }

  /// Books member `i`'s table bytes for an evaluation against `t` on
  /// `budget` — the same high-water charge a sweep of that member alone
  /// would make.  False means the budget refused; the caller retires the
  /// member as memory-exhausted and must not call `EvalMember`.
  bool ChargeMember(size_t i, const Tree& t, Budget* budget);

  /// Evaluates member `i` against `t` and returns whether it matches
  /// (`strong` selects root-to-root matching).  With `suffix_only`, refills
  /// only the postorder suffix above `stable_limit`; precondition: the
  /// member's previous `EvalMember` used the same tree object and the
  /// nodes below `stable_limit` are unchanged (the sweep guarantees this —
  /// an undecided member has evaluated every tree of its chunk so far).
  /// `ChargeMember(i, t, ...)` must have succeeded for this tree.  The
  /// unnamed bool is ignored: it was the fill-kernel switch, and stays only
  /// until the end-to-end benchmark's probe stops passing it.
  bool EvalMember(size_t i, const Tree& t, bool suffix_only,
                  NodeId stable_limit, bool strong, bool /*ignored*/,
                  EngineStats* stats);

 private:
  struct Member {
    const Tpq* q = nullptr;
    std::shared_ptr<const MatcherProgram> program;
    ProgramSweep psweep;
    MatcherWorkspace ws;
  };
  // unique_ptr slots: executors hold `TrackedBytes` and interior state whose
  // addresses must survive vector growth.
  std::vector<std::unique_ptr<Member>> members_;
};

/// Decides whether `t` is in L_w(q), or L_s(q) with `strong`.  Charges
/// `1 + |q|·|t|` steps, then the executor's table bytes, to `ctx`'s budget
/// and reports the DP work on its stats.  With a `program` (q's compiled
/// matcher) it runs a pooled `ProgramSweep`, whose table charge is soft: a
/// refusal falls back to the generic DP without exhausting the budget.
/// Otherwise it runs a pooled `MatcherWorkspace`, whose charge is hard.
/// Returns nullopt when the budget refused — it is then exhausted, and the
/// caller reports that instead of a verdict.
std::optional<bool> MatchTree(const Tpq& q, const MatcherProgram* program,
                              const Tree& t, bool strong, EngineContext* ctx);

/// The mapped-tree overload: `view` is a snapshot tree's adopted columns,
/// which only a compiled program runs over.  Nullopt when the step charge
/// (exhausting the budget) or the soft table charge (not exhausting it) was
/// refused; the caller then falls back to a rebuilt tree.
std::optional<bool> MatchTree(const MatcherProgram& program,
                              const TreeView& view, bool strong,
                              EngineContext* ctx);

}  // namespace tpc

#endif  // TPC_COMPILE_SWEEP_BANK_H_
