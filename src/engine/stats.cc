#include "engine/stats.h"

#include <algorithm>
#include <string_view>
#include <utility>
#include <vector>

namespace tpc {

const char* const kDispatchAlgorithmNames[kNumDispatchAlgorithms] = {
    "homomorphism",         "minimal_canonical", "single_canonical",
    "path_in_tpq",          "child_free_in_tpq", "canonical_enumeration",
    "type_set",
};

void EngineStats::Reset() {
  canonical_trees_enumerated.store(0, std::memory_order_relaxed);
  embeddings_attempted.store(0, std::memory_order_relaxed);
  dp_cells_filled.store(0, std::memory_order_relaxed);
  dp_cells_reused.store(0, std::memory_order_relaxed);
  trees_rebuilt_from_spine.store(0, std::memory_order_relaxed);
  dp_words_folded.store(0, std::memory_order_relaxed);
  dp_rows_skipped.store(0, std::memory_order_relaxed);
  homomorphism_checks.store(0, std::memory_order_relaxed);
  type_set_states.store(0, std::memory_order_relaxed);
  type_set_unions.store(0, std::memory_order_relaxed);
  schema_configurations.store(0, std::memory_order_relaxed);
  horizontal_nodes.store(0, std::memory_order_relaxed);
  det_states_materialized.store(0, std::memory_order_relaxed);
  nta_states_built.store(0, std::memory_order_relaxed);
  nta_transitions_built.store(0, std::memory_order_relaxed);
  configs_subsumed.store(0, std::memory_order_relaxed);
  unions_memoized.store(0, std::memory_order_relaxed);
  state_sets_interned.store(0, std::memory_order_relaxed);
  graph_dp_cells.store(0, std::memory_order_relaxed);
  cache_hits.store(0, std::memory_order_relaxed);
  cache_evictions.store(0, std::memory_order_relaxed);
  prefilter_accepts.store(0, std::memory_order_relaxed);
  prefilter_refutes.store(0, std::memory_order_relaxed);
  batch_deduped.store(0, std::memory_order_relaxed);
  lattice_stitch_hits.store(0, std::memory_order_relaxed);
  witness_borrow_refutes.store(0, std::memory_order_relaxed);
  sweep_groups_formed.store(0, std::memory_order_relaxed);
  sweep_group_members.store(0, std::memory_order_relaxed);
  group_members_retired_early.store(0, std::memory_order_relaxed);
  trees_shared_per_decision.store(0, std::memory_order_relaxed);
  programs_compiled.store(0, std::memory_order_relaxed);
  program_exec_hits.store(0, std::memory_order_relaxed);
  program_cache_evictions.store(0, std::memory_order_relaxed);
  for (auto& d : dispatch) d.store(0, std::memory_order_relaxed);
}

void EngineStats::MergeFrom(const EngineStats& other) {
  auto add = [](std::atomic<int64_t>& into, const std::atomic<int64_t>& from) {
    into.fetch_add(from.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  };
  add(canonical_trees_enumerated, other.canonical_trees_enumerated);
  add(embeddings_attempted, other.embeddings_attempted);
  add(dp_cells_filled, other.dp_cells_filled);
  add(dp_cells_reused, other.dp_cells_reused);
  add(trees_rebuilt_from_spine, other.trees_rebuilt_from_spine);
  add(dp_words_folded, other.dp_words_folded);
  add(dp_rows_skipped, other.dp_rows_skipped);
  add(homomorphism_checks, other.homomorphism_checks);
  add(type_set_states, other.type_set_states);
  add(type_set_unions, other.type_set_unions);
  add(schema_configurations, other.schema_configurations);
  add(horizontal_nodes, other.horizontal_nodes);
  add(det_states_materialized, other.det_states_materialized);
  add(nta_states_built, other.nta_states_built);
  add(nta_transitions_built, other.nta_transitions_built);
  add(configs_subsumed, other.configs_subsumed);
  add(unions_memoized, other.unions_memoized);
  add(state_sets_interned, other.state_sets_interned);
  add(graph_dp_cells, other.graph_dp_cells);
  add(cache_hits, other.cache_hits);
  add(cache_evictions, other.cache_evictions);
  add(prefilter_accepts, other.prefilter_accepts);
  add(prefilter_refutes, other.prefilter_refutes);
  add(batch_deduped, other.batch_deduped);
  add(lattice_stitch_hits, other.lattice_stitch_hits);
  add(witness_borrow_refutes, other.witness_borrow_refutes);
  add(sweep_groups_formed, other.sweep_groups_formed);
  add(sweep_group_members, other.sweep_group_members);
  add(group_members_retired_early, other.group_members_retired_early);
  add(trees_shared_per_decision, other.trees_shared_per_decision);
  add(programs_compiled, other.programs_compiled);
  add(program_exec_hits, other.program_exec_hits);
  add(program_cache_evictions, other.program_cache_evictions);
  for (int i = 0; i < kNumDispatchAlgorithms; ++i) {
    add(dispatch[i], other.dispatch[i]);
  }
}

namespace {

/// Appends `{"a": 1, "b": 2}` with the fields sorted by name, so the dump is
/// independent of declaration order (stable bench diffs).
void AppendGroup(std::vector<std::pair<const char*, int64_t>> fields,
                 std::string* out) {
  std::sort(fields.begin(), fields.end(), [](const auto& a, const auto& b) {
    return std::string_view(a.first) < std::string_view(b.first);
  });
  *out += "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) *out += ", ";
    *out += std::string("\"") + fields[i].first +
            "\": " + std::to_string(fields[i].second);
  }
  *out += "}";
}

}  // namespace

std::string EngineStats::ToJson(const Budget& budget) const {
  auto v = [](const std::atomic<int64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  std::string out = "{";
  out += "\"steps_used\": " + std::to_string(budget.steps_used()) + ", ";
  out += "\"bytes_tracked\": " + std::to_string(budget.bytes_used()) + ", ";
  out += "\"bytes_peak\": " + std::to_string(budget.bytes_peak()) + ", ";
  out += std::string("\"exhaustion_reason\": \"") +
         ExhaustionReasonName(budget.reason()) + "\", ";
  out += "\"engine\": ";
  AppendGroup(
      {
          {"canonical_trees_enumerated", v(canonical_trees_enumerated)},
          {"configs_subsumed", v(configs_subsumed)},
          {"det_states_materialized", v(det_states_materialized)},
          {"dp_cells_filled", v(dp_cells_filled)},
          {"dp_cells_reused", v(dp_cells_reused)},
          {"dp_rows_skipped", v(dp_rows_skipped)},
          {"dp_words_folded", v(dp_words_folded)},
          {"embeddings_attempted", v(embeddings_attempted)},
          {"graph_dp_cells", v(graph_dp_cells)},
          {"homomorphism_checks", v(homomorphism_checks)},
          {"horizontal_nodes", v(horizontal_nodes)},
          {"nta_states_built", v(nta_states_built)},
          {"nta_transitions_built", v(nta_transitions_built)},
          {"schema_configurations", v(schema_configurations)},
          {"state_sets_interned", v(state_sets_interned)},
          {"trees_rebuilt_from_spine", v(trees_rebuilt_from_spine)},
          {"type_set_states", v(type_set_states)},
          {"type_set_unions", v(type_set_unions)},
          {"unions_memoized", v(unions_memoized)},
      },
      &out);
  out += ", \"cache\": ";
  AppendGroup(
      {
          {"batch_deduped", v(batch_deduped)},
          {"cache_evictions", v(cache_evictions)},
          {"cache_hits", v(cache_hits)},
          {"prefilter_accepts", v(prefilter_accepts)},
          {"prefilter_refutes", v(prefilter_refutes)},
      },
      &out);
  out += ", \"persist\": ";
  AppendGroup(
      {
          {"lattice_stitch_hits", v(lattice_stitch_hits)},
          {"witness_borrow_refutes", v(witness_borrow_refutes)},
      },
      &out);
  out += ", \"group\": ";
  AppendGroup(
      {
          {"group_members_retired_early", v(group_members_retired_early)},
          {"sweep_group_members", v(sweep_group_members)},
          {"sweep_groups_formed", v(sweep_groups_formed)},
          {"trees_shared_per_decision", v(trees_shared_per_decision)},
      },
      &out);
  out += ", \"compile\": ";
  AppendGroup(
      {
          {"program_cache_evictions", v(program_cache_evictions)},
          {"program_exec_hits", v(program_exec_hits)},
          {"programs_compiled", v(programs_compiled)},
      },
      &out);
  out += ", \"dispatch\": ";
  {
    std::vector<std::pair<const char*, int64_t>> fields;
    for (int i = 0; i < kNumDispatchAlgorithms; ++i) {
      fields.emplace_back(kDispatchAlgorithmNames[i], v(dispatch[i]));
    }
    AppendGroup(std::move(fields), &out);
  }
  out += "}";
  return out;
}

}  // namespace tpc
