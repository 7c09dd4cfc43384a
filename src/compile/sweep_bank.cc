#include "compile/sweep_bank.h"

#include <utility>

namespace tpc {

size_t SweepBank::AddMember(const Tpq* q,
                            std::shared_ptr<const MatcherProgram> program) {
  auto member = std::make_unique<Member>();
  member->q = q;
  member->program = std::move(program);
  members_.push_back(std::move(member));
  return members_.size() - 1;
}

bool SweepBank::ChargeMember(size_t i, const Tree& t, Budget* budget) {
  Member& m = *members_[i];
  if (m.program != nullptr) return m.psweep.ChargeTables(t, budget);
  return m.ws.ChargeTables(*m.q, t, budget);
}

bool SweepBank::EvalMember(size_t i, const Tree& t, bool suffix_only,
                           NodeId stable_limit, bool strong, bool,
                           EngineStats* stats) {
  Member& m = *members_[i];
  if (m.program != nullptr) {
    if (suffix_only) {
      m.psweep.EvalIncremental(*m.program, t, stable_limit, stats);
    } else {
      m.psweep.EvalFull(*m.program, t, stats);
    }
    return strong ? m.psweep.MatchesStrong() : m.psweep.MatchesWeak();
  }
  if (suffix_only) {
    m.ws.EvalIncremental(*m.q, t, stable_limit, stats);
  } else {
    m.ws.EvalFull(*m.q, t, stats);
  }
  return strong ? m.ws.MatchesStrong() : m.ws.MatchesWeak();
}

namespace {

/// Runs `program` over `view` on a pooled executor; nullopt when the soft
/// table charge was refused.
std::optional<bool> RunProgram(const MatcherProgram& program,
                               const TreeView& view, int64_t column_bytes,
                               bool strong, EngineContext* ctx) {
  auto exec = ctx->scratch().Acquire<ProgramSweep>();
  if (!exec->TryChargeTables(view.size(), column_bytes, &ctx->budget())) {
    return std::nullopt;
  }
  exec->EvalFull(program, view, &ctx->stats());
  return strong ? exec->MatchesStrong() : exec->MatchesWeak();
}

bool ChargeSteps(int32_t pattern_size, int32_t tree_size,
                 EngineContext* ctx) {
  return ctx->budget().Charge(
      1 + static_cast<int64_t>(pattern_size) * tree_size);
}

}  // namespace

std::optional<bool> MatchTree(const Tpq& q, const MatcherProgram* program,
                              const Tree& t, bool strong, EngineContext* ctx) {
  if (!ChargeSteps(q.size(), t.size(), ctx)) return std::nullopt;
  if (program != nullptr) {
    if (std::optional<bool> matched =
            RunProgram(*program, t.View(), t.ColumnBytes(), strong, ctx)) {
      return matched;
    }
  }
  auto ws = ctx->scratch().Acquire<MatcherWorkspace>();
  if (!ws->ChargeTables(q, t, &ctx->budget())) return std::nullopt;
  ws->EvalFull(q, t, &ctx->stats());
  return strong ? ws->MatchesStrong() : ws->MatchesWeak();
}

std::optional<bool> MatchTree(const MatcherProgram& program,
                              const TreeView& view, bool strong,
                              EngineContext* ctx) {
  if (!ChargeSteps(program.pattern_size(), view.size(), ctx)) {
    return std::nullopt;
  }
  return RunProgram(program, view, TreeView::AdoptedBytes(view.size()),
                    strong, ctx);
}

}  // namespace tpc
