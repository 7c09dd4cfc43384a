// e2e_bench: runs one workload of the end-to-end benchmark and prints one
// JSON result line (the last line of stdout).
//
//   e2e_bench --workload <zipf-hot|conp-mix|schema-dtd> --seed <n>
//             --seconds <s> --trace <0|1> --serve-binary <tpc_serve>
//             --run-dir <dir>
//
// With --trace 0 the result carries the end-to-end metrics, with --trace 1
// the per-layer metrics (e2ebench/README.md lists both, with units and
// bases).  A human-readable summary goes to stderr.  Exit codes: 0 = all
// verdicts correct; 1 = a wrong verdict (the result line says "correct":
// false); 2 = usage, set-up or protocol failure, such as a lost or repeated
// response (no result line).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace e2e {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"verdicts_per_s", "1/s"},
    {"latency_p50_us", "us"},
    {"latency_p99_us", "us"},
    {"peak_rss_mb", "MiB"},
    {"decided_share", "share"},
};

constexpr MetricDef kPerLayer[] = {
    {"serve.queue_wait_us", "us"},
    {"serve.decide_us", "us"},
    {"serve.shed_share", "share"},
    {"serve.group_size_mean", "count"},
    {"serve.wire_us", "us"},
    {"serve.frame_decode_ns", "ns"},
    {"pattern.parse_ns", "ns"},
    {"service.contains_for_us", "us"},
    {"service.minimize_hash_ns", "ns"},
    {"service.replay_ns", "ns"},
    {"service.cache_hit_share", "share"},
    {"service.lattice_answer_share", "share"},
    {"service.prefilter_useful_share", "share"},
    {"service.cache_evictions_per_1k", "count"},
    {"contain.route.homomorphism", "share"},
    {"contain.route.minimal_canonical", "share"},
    {"contain.route.single_canonical", "share"},
    {"contain.route.path_in_tpq", "share"},
    {"contain.route.child_free_in_tpq", "share"},
    {"contain.route.canonical_enumeration", "share"},
    {"contain.trees_per_sweep", "count"},
    {"contain.rebuilds_per_decision", "count"},
    {"contain.trees_shared_per_decision", "count"},
    {"contain.retired_early_share", "share"},
    {"contain.sweep_us", "us"},
    {"contain.tree_build_ns", "ns"},
    {"contain.sweep_share_of_busy", "share"},
    {"compile.programs_compiled_per_1k", "count"},
    {"compile.exec_hit_share", "share"},
    {"compile.compile_ns", "ns"},
    {"compile.eval_ns_per_tree", "ns"},
    {"match.words_folded_per_tree", "count"},
    {"match.rows_skipped_per_tree", "count"},
    {"match.cells_reused_share", "share"},
    {"persist.load_ms", "ms"},
    {"persist.snapshot_bytes", "bytes"},
    {"schema.configs_per_decision", "count"},
    {"schema.subsumed_share", "share"},
    {"schema.horizontal_nodes_per_decision", "count"},
    {"automata.state_sets_per_decision", "count"},
    {"automata.unions_memoized_share", "share"},
    {"automata.det_states_per_decision", "count"},
    {"schema.decide_ms.ptime", "ms"},
    {"schema.decide_ms.conp", "ms"},
    {"schema.decide_ms.exptime", "ms"},
    {"dtd.parse_us", "us"},
    {"engine.steps_per_decision", "count"},
    {"engine.bytes_peak_mb", "MiB"},
    {"loadgen.late_p99_us", "us"},
    {"failed_share", "share"},
    {"trace.overhead_ratio", "ratio"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload <zipf-hot|conp-mix|schema-dtd> "
               "--seed <n> --seconds <s> --trace <0|1> --serve-binary <path> "
               "--run-dir <dir>\n");
  return 2;
}

template <size_t N>
std::string MetricsJson(const MetricDef (&defs)[N],
                        const std::map<std::string, double>& values) {
  std::string out;
  for (const MetricDef& d : defs) {
    auto it = values.find(d.name);
    const double v = it == values.end() ? 0.0 : it->second;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (!out.empty()) out += ", ";
    out += std::string("\"") + d.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + d.unit + "\"}";
  }
  return out;
}

template <size_t N>
void PrintSummary(const MetricDef (&defs)[N],
                  const std::map<std::string, double>& values) {
  for (const MetricDef& d : defs) {
    auto it = values.find(d.name);
    std::fprintf(stderr, "  %-40s %16.6g %s\n", d.name,
                 it == values.end() ? 0.0 : it->second, d.unit);
  }
}

int Main(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--serve-binary") {
      config.serve_binary = value;
    } else if (flag == "--run-dir") {
      config.run_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !have_workload || config.seconds <= 0 ||
      config.serve_binary.empty() || config.run_dir.empty()) {
    return Usage();
  }

  // Numbers from a non-optimized build would read as regressions to the
  // next change; refuse them (the same rule as scripts/bench_baseline.sh).
  const std::string build_type = TPC_E2E_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    std::fprintf(stderr,
                 "e2e_bench: refusing to measure a '%s' build; configure with "
                 "CMAKE_BUILD_TYPE=Release or RelWithDebInfo\n",
                 build_type.c_str());
    return 2;
  }

  std::fprintf(stderr, "e2e_bench: workload %s, seed %llu, %.3g s, trace %d, "
               "build %s\n",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed), config.seconds,
               config.trace ? 1 : 0, build_type.c_str());
  RunResult result;
  std::string error;
  bool ok = false;
  if (config.workload == "zipf-hot") {
    ok = RunZipfHot(config, &result, &error);
  } else if (config.workload == "conp-mix") {
    ok = RunConpMix(config, &result, &error);
  } else if (config.workload == "schema-dtd") {
    ok = RunSchemaDtd(config, &result, &error);
  } else {
    return Usage();
  }
  if (!ok) {
    std::fprintf(stderr, "e2e_bench: %s\n", error.c_str());
    return 2;
  }
  if (result.attempted < 1) {
    std::fprintf(stderr, "e2e_bench: no request was attempted\n");
    return 2;
  }
  result.layer["failed_share"] = Ratio(static_cast<double>(result.failed),
                                       static_cast<double>(result.attempted));
  // failed_share's complement as the end-to-end figure: a relative bound
  // needs a nonzero median, and failed_share is 0 when nothing fails.
  result.e2e["decided_share"] = 1 - result.layer["failed_share"];

  std::fprintf(stderr, "  attempted %lld, failed %lld (failed_share %.6g)\n",
               static_cast<long long>(result.attempted),
               static_cast<long long>(result.failed),
               result.layer["failed_share"]);
  if (config.trace) {
    PrintSummary(kPerLayer, result.layer);
  } else {
    PrintSummary(kEndToEnd, result.e2e);
  }
  const std::string metrics = config.trace
                                  ? MetricsJson(kPerLayer, result.layer)
                                  : MetricsJson(kEndToEnd, result.e2e);
  // The result line carries exactly correct/attempted/failed/metrics; the
  // build type is stamped on the stderr header above.
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
