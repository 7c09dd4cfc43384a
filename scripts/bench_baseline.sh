#!/usr/bin/env bash
# Records the benchmark baselines: builds the release preset and runs
#   * bench_table1_containment (the P/coNP grid, the chunked-parallel sweep
#     and the incremental sweep, reporting the per-decision
#     `dp_cells_filled`/`dp_cells_reused` and
#     `dp_words_folded`/`dp_rows_skipped` kernel counters) into
#     BENCH_table1.json, and
#   * bench_table45_schema_containment (the schema-aware P/coNP/EXPTIME
#     cells, including the antichain on/off A/B twins, with every engine
#     and automata counter per decision) into BENCH_table45.json, and
#   * bench_service (the query-service fast path: zipf stream baseline vs
#     cold vs warm cache, and the probe-prefilter vs sweep A/B on the coNP
#     refutation family, with `dp_words_folded` and the
#     `programs_compiled`/`program_exec_hits` counters recorded per run)
#     into BENCH_service.json, and
#   * bench_compile (pattern compilation: compile latency, the per-decision
#     DP work units of a compiled sweep and of an oversize (> 64-node)
#     sweep on the generic DP, the single-tree column executor vs a fresh
#     generic matcher, and the zipf steady state, which must report
#     `programs_compiled_steady` == 0, i.e. compile cost fully amortized
#     into warmup) into BENCH_compile.json, and
#   * bench_persist (the warm-start tier: cold vs warm time-to-first-verdict
#     — the warm restart must win by >= 10x — the transitive-chain stitch
#     conversion with its 30% floor enforced in-bench, the mmap-open vs
#     heap-rebuild twin, and the non-identity remap load: the same snapshot
#     adopted into a shifted label pool must still serve cache hits with
#     snapshot_trees_mapped == 0) into BENCH_persist.json, and
#   * bench_group (the grouped canonical sweep: one `ContainsGroup` call vs
#     a loop of independent `Contains` calls, rebuilds-per-decision across
#     group sizes — the in-bench amortization floor skips-with-error unless
#     the group-of-8 reduction is >= 5x — the mixed early-retire family, and
#     the daemon coalescing-window round-trip floor) into BENCH_group.json,
#     and
#   * bench_serve (the daemon under adversarial multi-tenancy: the PTIME
#     wire floor solo vs with a coNP aggressor window — the in-bench
#     isolation assert skips-with-error if the light tenant's p95 degrades
#     to the aggressor's whole backlog, i.e. FIFO behaviour — plus the O(1)
#     admission-shed round-trip) into BENCH_serve.json
# at the repo root, for before/after comparison across PRs.
#
# Baselines from non-optimized builds are worse than useless — they look
# like regressions to the next PR — so the script refuses to run unless the
# release preset's cache really selected an optimized CMAKE_BUILD_TYPE.
# (The system Google Benchmark library reports library_build_type=debug no
# matter what, so the check reads the repo's own cache instead; the real
# build type is also stamped into every JSON as tpc_build_type.)
#
# Usage: scripts/bench_baseline.sh [benchmark_filter_regex]
# The optional regex is passed to --benchmark_filter of both suites
# (default: all).
set -euo pipefail
cd "$(dirname "$0")/.."

filter="${1:-.}"

cmake --preset release

build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' build/CMakeCache.txt)"
case "$build_type" in
  Release|RelWithDebInfo) ;;
  *)
    echo "error: refusing to record baselines from a '$build_type' build;" >&2
    echo "       the release preset must select Release or RelWithDebInfo" >&2
    exit 1
    ;;
esac

cmake --build --preset release -j "$(nproc)" \
  --target bench_table1_containment \
  --target bench_table45_schema_containment \
  --target bench_service \
  --target bench_compile \
  --target bench_persist \
  --target bench_group \
  --target bench_serve

run_suite() {
  local bin="$1" out="$2"
  "./build/bench/$bin" \
    --benchmark_filter="$filter" \
    --benchmark_out="$out" \
    --benchmark_out_format=json \
    --benchmark_format=console \
    --benchmark_context=tpc_build_type="$build_type"
  echo "wrote $(pwd)/$out"
}

run_suite bench_table1_containment BENCH_table1.json
run_suite bench_table45_schema_containment BENCH_table45.json
run_suite bench_service BENCH_service.json
run_suite bench_compile BENCH_compile.json
run_suite bench_persist BENCH_persist.json
run_suite bench_group BENCH_group.json
run_suite bench_serve BENCH_serve.json
