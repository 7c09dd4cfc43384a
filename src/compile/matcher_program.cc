#include "compile/matcher_program.h"

#include <algorithm>
#include <array>
#include <cassert>

namespace tpc {

std::shared_ptr<const MatcherProgram> MatcherProgram::Compile(
    const Tpq& q, Budget* budget, EngineStats* stats) {
  if (!Compilable(q)) return nullptr;
  const int32_t n = q.size();

  // Tile-selection pass, allocation-free: per-node requirement masks live in
  // fixed single-word arrays (the <= 64-node precondition), and each
  // internal node is classified by which masks it ends up needing.
  std::array<uint64_t, 64> req_child{};
  std::array<uint64_t, 64> req_desc{};
  uint64_t internal_mask = 0;
  uint64_t wildcard_mask = 0;
  for (NodeId v = 0; v < n; ++v) {
    const uint64_t bit = uint64_t{1} << v;
    if (v != 0) {
      const NodeId p = q.Parent(v);
      (q.Edge(v) == EdgeKind::kChild ? req_child : req_desc)[p] |= bit;
      internal_mask |= uint64_t{1} << p;
    }
    if (q.IsWildcard(v)) wildcard_mask |= bit;
  }
  int64_t num_ops = 0;
  int64_t num_labels = 0;
  std::array<LabelId, 64> seen{};
  for (NodeId v = 0; v < n; ++v) {
    if ((internal_mask >> v) & 1) ++num_ops;
    if (q.IsWildcard(v)) continue;
    bool fresh = true;
    for (int64_t i = 0; i < num_labels; ++i) {
      if (seen[i] == q.Label(v)) {
        fresh = false;
        break;
      }
    }
    if (fresh) seen[num_labels++] = q.Label(v);
  }

  auto program = std::make_shared<MatcherProgram>();
  program->tracked_.Attach(budget);
  // Two speculative charge points bracket the two table builds, so an
  // injected allocation fault can land mid-compile; a refusal at either
  // point drops the half-built program (its destructor releases whatever
  // was charged) and the caller falls back to the generic DP.
  const int64_t op_bytes =
      num_ops * static_cast<int64_t>(sizeof(Op)) + 64;
  if (!program->tracked_.TryCharge(op_bytes)) return nullptr;
  program->pattern_size_ = n;
  program->internal_mask_ = internal_mask;
  program->wildcard_row_ = wildcard_mask;
  program->ops_.reserve(static_cast<size_t>(num_ops));
  // Tile order: child-only ops first, then descendant-only, then fused
  // both-kind ops — three tight interpreter loops, no per-op dispatch.
  for (int pass = 0; pass < 3; ++pass) {
    for (NodeId v = 0; v < n; ++v) {
      if (((internal_mask >> v) & 1) == 0) continue;
      const bool has_child = req_child[v] != 0;
      const bool has_desc = req_desc[v] != 0;
      const int kind = has_child && has_desc ? 2 : (has_desc ? 1 : 0);
      if (kind != pass) continue;
      Op op;
      op.bit = uint64_t{1} << v;
      op.req_child = req_child[v];
      op.req_desc = req_desc[v];
      program->ops_.push_back(op);
    }
    if (pass == 0) program->child_only_end_ = program->ops_.size();
    if (pass == 1) program->desc_only_end_ = program->ops_.size();
  }

  const int64_t label_bytes =
      num_labels * static_cast<int64_t>(sizeof(LabelRow)) + 32;
  if (!program->tracked_.TryCharge(label_bytes)) return nullptr;
  program->label_rows_.reserve(static_cast<size_t>(num_labels));
  for (int64_t i = 0; i < num_labels; ++i) {
    LabelRow row;
    row.label = seen[i];
    row.row = wildcard_mask;
    for (NodeId v = 0; v < n; ++v) {
      if (!q.IsWildcard(v) && q.Label(v) == seen[i]) {
        row.row |= uint64_t{1} << v;
      }
    }
    program->label_rows_.push_back(row);
  }

  program->byte_size_ =
      static_cast<int64_t>(sizeof(MatcherProgram)) + op_bytes + label_bytes;
  if (stats != nullptr) {
    stats->programs_compiled.fetch_add(1, std::memory_order_relaxed);
  }
  return program;
}

void ProgramSweep::ComputeColumns(const MatcherProgram& program,
                                  int32_t from) {
  const int32_t n = view_.size();
  for (int32_t i = from; i < n; ++i) {
    const uint64_t labels_ok = program.LabelsOk(view_.LabelAtPost(i));
    const int32_t subtree = view_.SubtreeSizeAtPost(i);
    if (subtree == 1) {
      const uint64_t row = labels_ok & ~program.internal_mask();
      sat_[i] = row;
      desc_[i] = row;
      ++rows_skipped_;
      continue;
    }
    uint64_t acc_c;
    uint64_t acc_d;
    if (view_.SubtreeSizeAtPost(i - 1) == subtree - 1) {
      // Chain tile: single child at i-1, already in cache/registers.
      acc_c = sat_[i - 1];
      acc_d = desc_[i - 1];
    } else {
      acc_c = 0;
      acc_d = 0;
      const int32_t begin = i - subtree + 1;
      for (int32_t c = i - 1; c >= begin; c -= view_.SubtreeSizeAtPost(c)) {
        acc_c |= sat_[c];
        acc_d |= desc_[c];
        words_folded_ += 2;
      }
    }
    const uint64_t sat = program.ApplyOps(labels_ok, acc_c, acc_d);
    sat_[i] = sat;
    desc_[i] = sat | acc_d;
  }
}

void ProgramSweep::Report(const MatcherProgram& program, int32_t filled,
                          int32_t reused, EngineStats* stats) const {
  if (stats == nullptr) return;
  stats->embeddings_attempted.fetch_add(1, std::memory_order_relaxed);
  stats->dp_cells_filled.fetch_add(
      static_cast<int64_t>(filled) * program.pattern_size(),
      std::memory_order_relaxed);
  stats->dp_cells_reused.fetch_add(
      static_cast<int64_t>(reused) * program.pattern_size(),
      std::memory_order_relaxed);
  stats->dp_words_folded.fetch_add(words_folded_, std::memory_order_relaxed);
  stats->dp_rows_skipped.fetch_add(rows_skipped_, std::memory_order_relaxed);
  stats->program_exec_hits.fetch_add(1, std::memory_order_relaxed);
}

void ProgramSweep::EvalFull(const MatcherProgram& program, const Tree& t,
                            EngineStats* stats) {
  program_ = &program;
  t_ = &t;
  view_ = t.View();
  sat_.resize(static_cast<size_t>(t.size()));
  desc_.resize(static_cast<size_t>(t.size()));
  words_folded_ = 0;
  rows_skipped_ = 0;
  ComputeColumns(program, 0);
  Report(program, t.size(), 0, stats);
}

void ProgramSweep::EvalIncremental(const MatcherProgram& program,
                                   const Tree& t, NodeId stable_limit,
                                   EngineStats* stats) {
  assert(program_ == &program && t_ == &t &&
         "EvalIncremental needs a prior Eval* on the same program and tree");
  assert(stable_limit >= 0 && stable_limit < t.size());
  assert(t.IsDfsOrdered() && "postorder prefix stability needs DFS order");
  view_ = t.View();
  sat_.resize(static_cast<size_t>(t.size()));
  desc_.resize(static_cast<size_t>(t.size()));
  words_folded_ = 0;
  rows_skipped_ = 0;
  // Same prefix-stability argument as MatcherWorkspace::EvalIncremental: the
  // unchanged nodes that are not ancestors of the cut occupy exactly the
  // postorder prefix [0, stable_limit - depth(stable_limit)).
  const int32_t stable_post = stable_limit - t.Depth(stable_limit);
  ComputeColumns(program, stable_post);
  Report(program, t.size() - stable_post, stable_post, stats);
}

}  // namespace tpc
