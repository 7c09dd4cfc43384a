// Pattern compilation: hot TPQs lowered to flat matcher bytecode executed
// over a tree's postorder columns.
//
// The generic `MatcherWorkspace` DP (match/embedding.h) prices every tree
// node the same way: clear the accumulators, fold every child's DP row word
// by word, scatter the missing requirement bits, store a full row.  For the
// patterns that dominate a zipf-skewed service workload — and for the
// canonical models of the enumeration sweep, whose shape is almost entirely
// ⊥-chain spines — most of that work is structure-independent overhead.
//
// `MatcherProgram` is the compiled alternative for patterns with at most 64
// nodes (one DP word).  `Compile` lowers the pattern bottom-up, selecting a
// *tile* per pattern node the way a JIT tiler matches expression trees to
// instruction templates:
//
//   * leaf pattern nodes compile to *no op at all* — their bits come
//     straight from the per-label row `labels_ok & ~internal_mask`;
//   * internal nodes with only child-edge children compile to a fused
//     label-test + child-word-fold op (one submask test);
//   * only descendant-edge children: the descendant-accumulator twin;
//   * both edge kinds: the two-test fusion.
//
// The executor, `ProgramSweep`, streams the tree's postorder columns
// ascending with three tree-side tiles: a *leaf* short-circuit (one table
// lookup, no ops), a *chain* step for single-child nodes (the child's
// sat/desc words are the previous column — zero fold work, which is why
// compiled sweeps over chain-heavy canonical models report ~an order of
// magnitude fewer `dp_words_folded`), and a *branch* fold over the child
// span.  Per internal node it runs the op array — a handful of branch-free
// ALU ops — instead of the generic fill's scatter machinery.  It keeps one
// sat and one desc word per tree node, so the canonical enumeration's
// suffix rebuilds re-run only the invalidated positions; the single-tree
// callers run it from scratch through `MatchTree` (compile/sweep_bank.h).
//
// Programs are immutable and shared: one compiled program may be executed
// concurrently by every batch worker (executors carry the mutable state).
// Verdicts are bit-identical to the generic DP by construction — the op
// tests are the same recurrence restricted to one word — and the agreement
// suite (tests/compiled_agreement_test.cc) pins both against the oracle.
//
// Compilation is *speculative*: all table bytes are charged through
// `TrackedBytes::TryCharge` (soft), so a memory limit or an injected
// allocation fault mid-compile returns nullptr — with nothing charged and
// the budget NOT exhausted — and the caller falls back to the generic DP.

#ifndef TPC_COMPILE_MATCHER_PROGRAM_H_
#define TPC_COMPILE_MATCHER_PROGRAM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/stats.h"
#include "engine/tracked.h"
#include "pattern/tpq.h"
#include "tree/tree.h"

namespace tpc {

class MatcherProgram {
 public:
  /// One fused op per *internal* pattern node: test the accumulated child /
  /// descendant words against the node's requirement masks and, on success,
  /// light the node's bit (still gated by the label row).  Ops are stored in
  /// tile order — child-only, descendant-only, both — so the interpreter
  /// runs three tight loops with no per-op kind dispatch.
  struct Op {
    uint64_t bit = 0;        // the internal pattern node's single-bit mask
    uint64_t req_child = 0;  // bits of its child-edge children
    uint64_t req_desc = 0;   // bits of its descendant-edge children
  };

  /// Per-label DP row source: `row` already folds in the wildcard bits, so
  /// `LabelsOk` is a single small-array scan with a wildcard-row fallback
  /// for labels the pattern never names (every ⊥ of a canonical model).
  struct LabelRow {
    LabelId label = kNoLabel;
    uint64_t row = 0;
  };

  /// True iff `q` fits the single-word program model.  Larger patterns fall
  /// back to the generic DP (which is also the compiled path's bit-identical
  /// reference, so the fallback is trivially in agreement).
  static bool Compilable(const Tpq& q) {
    return !q.empty() && q.size() <= 64;
  }

  /// Lowers `q` into a program.  Returns nullptr when `q` is not compilable
  /// or when the (soft) byte charges are refused — in both cases the caller
  /// must use the generic DP; a refused compile never leaves a partial
  /// program or an exhausted budget behind.  With a non-null `stats`,
  /// reports `programs_compiled` on success.  The program's tables stay
  /// charged against `budget` for the program's lifetime.
  static std::shared_ptr<const MatcherProgram> Compile(
      const Tpq& q, Budget* budget, EngineStats* stats = nullptr);

  MatcherProgram() = default;
  MatcherProgram(const MatcherProgram&) = delete;
  MatcherProgram& operator=(const MatcherProgram&) = delete;

  int32_t pattern_size() const { return pattern_size_; }
  uint64_t internal_mask() const { return internal_mask_; }

  /// Resident bytes (program object + tables), for pool bounding.
  int64_t byte_size() const { return byte_size_; }

  /// The DP row of a tree node labelled `label` before requirements are
  /// applied (wildcard bits already folded in).
  uint64_t LabelsOk(LabelId label) const {
    for (const LabelRow& r : label_rows_) {
      if (r.label == label) return r.row;
    }
    return wildcard_row_;
  }

  /// The sat word of an internal tree node from its accumulated child words:
  /// leaf pattern bits pass on label alone; each op lights its node's bit
  /// when the matching accumulator covers the requirement mask.
  uint64_t ApplyOps(uint64_t labels_ok, uint64_t acc_c, uint64_t acc_d) const {
    uint64_t sat = labels_ok & ~internal_mask_;
    const Op* ops = ops_.data();
    size_t i = 0;
    for (; i < child_only_end_; ++i) {
      const Op& op = ops[i];
      const uint64_t ok =
          static_cast<uint64_t>((acc_c & op.req_child) == op.req_child);
      sat |= (labels_ok & op.bit) & (0 - ok);
    }
    for (; i < desc_only_end_; ++i) {
      const Op& op = ops[i];
      const uint64_t ok =
          static_cast<uint64_t>((acc_d & op.req_desc) == op.req_desc);
      sat |= (labels_ok & op.bit) & (0 - ok);
    }
    for (const size_t e = ops_.size(); i < e; ++i) {
      const Op& op = ops[i];
      const uint64_t ok =
          static_cast<uint64_t>((acc_c & op.req_child) == op.req_child) &
          static_cast<uint64_t>((acc_d & op.req_desc) == op.req_desc);
      sat |= (labels_ok & op.bit) & (0 - ok);
    }
    return sat;
  }

 private:
  int32_t pattern_size_ = 0;
  uint64_t internal_mask_ = 0;
  uint64_t wildcard_row_ = 0;
  size_t child_only_end_ = 0;  // ops_[0, child_only_end_) are child-only
  size_t desc_only_end_ = 0;   // ops_[child_only_end_, desc_only_end_)
  std::vector<Op> ops_;
  std::vector<LabelRow> label_rows_;
  int64_t byte_size_ = 0;
  TrackedBytes tracked_;  // the tables' bytes, held while the program lives
};

/// The compiled executor: keeps single-word sat/desc *columns* for the whole
/// tree so the canonical enumeration's suffix rebuilds can re-run only the
/// invalidated positions, exactly like `MatcherWorkspace::EvalIncremental`.
/// Reports the same `dp_cells_filled` / `dp_cells_reused` accounting as the
/// generic workspace, so the incremental-sweep invariants hold unchanged
/// under the compiled path.  Not thread-safe; one per sweep worker.
class ProgramSweep {
 public:
  ProgramSweep() = default;

  /// High-water byte accounting for the columns + the tree's columnar
  /// storage (the compiled twin of `MatcherWorkspace::ChargeTables`).
  /// False means the budget refused and is exhausted.
  bool ChargeTables(const Tree& t, Budget* budget) {
    tracked_.Attach(budget);
    return tracked_.Reserve(TableBytes(t.size(), t.ColumnBytes()));
  }

  /// The soft twin, for the single-tree match that has the generic DP to
  /// fall back on: `column_bytes` is the tree's columnar storage
  /// (`Tree::ColumnBytes`, or `TreeView::AdoptedBytes` for a mapped view).
  /// A refusal (memory limit, injected fault) charges nothing and does not
  /// exhaust the budget.
  bool TryChargeTables(int32_t n, int64_t column_bytes, Budget* budget) {
    tracked_.Attach(budget);
    return tracked_.TryReserve(TableBytes(n, column_bytes));
  }

  /// Evaluates from scratch.  With a non-null `stats`, reports one
  /// attempted embedding, the logical DP size, the kernel work counters and
  /// one `program_exec_hits`.
  void EvalFull(const MatcherProgram& program, const Tree& t,
                EngineStats* stats = nullptr);

  /// Evaluates from scratch over bare columns — a snapshot tree's adopted
  /// view.  `EvalIncremental` cannot follow this call.
  void EvalFull(const MatcherProgram& program, const TreeView& view,
                EngineStats* stats = nullptr);

  /// Re-evaluates after an incremental rebuild; same precondition as
  /// `MatcherWorkspace::EvalIncremental` (prior Eval* with the same program
  /// and tree object; nodes below `stable_limit` unchanged).
  void EvalIncremental(const MatcherProgram& program, const Tree& t,
                       NodeId stable_limit, EngineStats* stats = nullptr);

  bool MatchesWeak() const {
    return view_.size() > 0 && (desc_[view_.size() - 1] & 1);
  }
  bool MatchesStrong() const {
    return view_.size() > 0 && (sat_[view_.size() - 1] & 1);
  }

  /// The cells of the last evaluation, as `MatcherWorkspace::SatAt` /
  /// `SatBelow` report them.
  bool SatAt(NodeId v, NodeId x) const {
    return (sat_[view_.PostOf(x)] >> v) & 1;
  }
  bool SatBelow(NodeId v, NodeId x) const {
    return (desc_[view_.PostOf(x)] >> v) & 1;
  }

 private:
  static int64_t TableBytes(int32_t n, int64_t column_bytes) {
    return 2 * static_cast<int64_t>(n) *
               static_cast<int64_t>(sizeof(uint64_t)) +
           column_bytes;
  }
  void ComputeColumns(const MatcherProgram& program, int32_t from);
  void Report(const MatcherProgram& program, int32_t filled, int32_t reused,
              EngineStats* stats) const;

  const MatcherProgram* program_ = nullptr;
  const Tree* t_ = nullptr;
  TreeView view_;
  std::vector<uint64_t> sat_;
  std::vector<uint64_t> desc_;
  int64_t words_folded_ = 0;
  int64_t rows_skipped_ = 0;
  TrackedBytes tracked_;
};

}  // namespace tpc

#endif  // TPC_COMPILE_MATCHER_PROGRAM_H_
