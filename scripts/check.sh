#!/usr/bin/env bash
# Regression gate: configure + build + ctest one or more presets, failing on
# the first preset whose tests regress.  With no argument the tier-1 gate
# runs — release, asan (AddressSanitizer/UBSan) and tsan (ThreadSanitizer,
# exercising the engine thread pool and the parallel schema rounds).
#
# Usage:
#   scripts/check.sh                 tier-1 gate (release, asan, tsan)
#   scripts/check.sh <preset>        one preset (release|asan|tsan|ubsan);
#                                    release rebuilds from clean and fails
#                                    if its build log has a `warning:`
#   scripts/check.sh faults          the failure-model gate: the fault
#                                    matrix, exhaustion audit, parser
#                                    mutation and daemon fault suites under
#                                    asan AND tsan (leaks + races of every
#                                    injected-fault unwind path)
#   scripts/check.sh matcher         the matcher gate: the TreeView
#                                    property sweep (full and resumed
#                                    index), the generic kernel's and the
#                                    compiled executor's agreement suites
#                                    against the reference oracle, the
#                                    matcher property suite, the program
#                                    cache suite, the whole-enumeration
#                                    sweep suites (incremental, Table 1) and
#                                    the service and snapshot suites (the
#                                    probe cascade and the refutation replay
#                                    share the single-tree match) under asan
#                                    AND ubsan (out-of-bounds column reads,
#                                    shift UB in the fold kernels and fused
#                                    ops, the resumed index's arithmetic,
#                                    lifetime bugs in the shared programs)
#   scripts/check.sh serve           the daemon gate: the wire-protocol
#                                    mutation matrix, the fair-scheduler
#                                    invariants and the end-to-end fault /
#                                    drain / disconnect suite under asan AND
#                                    tsan (the server is the most
#                                    thread-shaped subsystem in the repo:
#                                    IO thread + runner + workers + client
#                                    threads all live in these tests)
#   scripts/check.sh persist         the persistence gate: the snapshot
#                                    round-trip/corruption suite, the
#                                    lattice agreement suite and the service
#                                    fault matrix under asan AND ubsan
#                                    (out-of-bounds reads over the file
#                                    image, unaligned-load UB in the record
#                                    cursors)
#   scripts/check.sh group           the dispatcher-and-sweep gate: the
#                                    500-instance grouped-vs-solo agreement
#                                    suite (with its naive reference sweep),
#                                    the type-set agreement suite (3000+
#                                    random pairs against the reference
#                                    sweep, witnesses replayed),
#                                    the member fault matrix, the solo sweep
#                                    suites (incremental vs the reference,
#                                    dispatcher routing, compiled agreement)
#                                    and the service batch suites (dedup
#                                    and a parallel fan-out that decides
#                                    each unique pair on its own) under
#                                    asan AND tsan
#                                    (every parallel sweep, solo or grouped,
#                                    shares one undecided mask across worker
#                                    threads, and a faulted member's unwind
#                                    must never touch a groupmate's
#                                    attribution)
#   scripts/check.sh schema          the schema-engine gate: the engine's
#                                    unit, agreement (5 variants, DTD and
#                                    Theorem 6.4 routes) and NTA
#                                    satisfiability suites, the automata
#                                    and DTD suites it is built on, the
#                                    fault matrix and the exhaustion audit
#                                    under asan AND tsan (parallel rounds
#                                    and every fault unwind of the DTD and
#                                    NTA routes share one engine)
set -euo pipefail
cd "$(dirname "$0")/.."

FAULT_TESTS='fault_injection_test|exhaustion_audit_test|parser_mutation_test|service_fault_test|serve_fault_test'
MATCHER_TESTS='tree_view_test|word_parallel_agreement_test|matcher_property_test|incremental_sweep_test|table1_sweep_test|compiled_agreement_test|program_cache_test|query_service_test|snapshot_roundtrip_test'
PERSIST_TESTS='snapshot_roundtrip_test|lattice_agreement_test|service_fault_test'
SERVE_TESTS='serve_protocol_test|serve_scheduler_test|serve_fault_test'
GROUP_TESTS='group_agreement_test|typeset_agreement_test|group_fault_test|incremental_sweep_test|dispatcher_routing_test|compiled_agreement_test|service_agreement_test|query_service_test'
SCHEMA_TESTS='schema_engine_test|schema_agreement_test|nta_satisfiability_test|nta_test|path_complement_test|dtd_test|dtd_property_test|fault_injection_test|exhaustion_audit_test'

run_preset() {
  local preset="$1"; shift
  echo "== preset: $preset =="
  cmake --preset "$preset"
  if [[ $preset == release ]]; then
    # Every translation unit is recompiled, so the log holds every warning;
    # any warning fails the gate, so none can accumulate.
    local log=build/check-build.log
    cmake --build --preset "$preset" -j "$(nproc)" --clean-first 2>&1 |
      tee "$log"
    if grep -q 'warning:' "$log"; then
      echo "check.sh: the release build printed warnings (see $log)" >&2
      exit 1
    fi
  else
    cmake --build --preset "$preset" -j "$(nproc)"
  fi
  ctest --preset "$preset" -j "$(nproc)" "$@"
}

if [[ $# -eq 0 ]]; then
  presets=(release asan tsan)
elif [[ $1 == faults ]]; then
  echo "== failure-model gate (fault matrix under asan + tsan) =="
  for preset in asan tsan; do
    run_preset "$preset" -R "$FAULT_TESTS"
  done
  exit 0
elif [[ $1 == matcher ]]; then
  echo "== matcher gate (kernel + executor agreement, single-tree callers under asan + ubsan) =="
  for preset in asan ubsan; do
    run_preset "$preset" -R "$MATCHER_TESTS"
  done
  exit 0
elif [[ $1 == serve ]]; then
  echo "== daemon gate (protocol + scheduler + e2e faults under asan + tsan) =="
  for preset in asan tsan; do
    run_preset "$preset" -R "$SERVE_TESTS"
  done
  exit 0
elif [[ $1 == persist ]]; then
  echo "== persistence gate (snapshot + lattice + faults under asan + ubsan) =="
  for preset in asan ubsan; do
    run_preset "$preset" -R "$PERSIST_TESTS"
  done
  exit 0
elif [[ $1 == group ]]; then
  echo "== dispatcher-and-sweep gate (agreement, type set vs oracle, member faults, solo sweeps, service batches under asan + tsan) =="
  for preset in asan tsan; do
    run_preset "$preset" -R "$GROUP_TESTS"
  done
  exit 0
elif [[ $1 == schema ]]; then
  echo "== schema-engine gate (DTD + NTA routes, agreement, faults under asan + tsan) =="
  for preset in asan tsan; do
    run_preset "$preset" -R "$SCHEMA_TESTS"
  done
  exit 0
else
  presets=("$1")
fi

for preset in "${presets[@]}"; do
  case "$preset" in
    asan|tsan|ubsan|release) ;;
    *) echo "usage: $0 [asan|tsan|ubsan|release|faults|matcher|persist|serve|group|schema]" >&2; exit 2 ;;
  esac
done

for preset in "${presets[@]}"; do
  run_preset "$preset"
done
