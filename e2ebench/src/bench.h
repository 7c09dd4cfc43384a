// Shared declarations of the load generator: run configuration, the
// result every workload fills, and small statistics helpers.

#ifndef E2EBENCH_BENCH_H_
#define E2EBENCH_BENCH_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serve_binary;  // the tpc_serve built beside e2e_bench
  std::string run_dir;       // scratch for sockets, snapshots, logs, spans
};

/// What a workload reports.  `e2e` holds the end-to-end metrics (always
/// measured), `layer` the per-layer metrics (filled by traced runs).
struct RunResult {
  bool correct = true;  // false: some verdict disagreed with its reference
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
};

/// Runs one workload.  Returns false with `*error` on an infrastructure
/// failure (the run is then void and e2e_bench exits nonzero).
bool RunZipfHot(const RunConfig& config, RunResult* result,
                std::string* error);
bool RunConpMix(const RunConfig& config, RunResult* result,
                std::string* error);
bool RunSchemaDtd(const RunConfig& config, RunResult* result,
                  std::string* error);

/// Nearest-rank percentile (`q` in [0, 1]) of `v`, which is sorted in place.
inline double Percentile(std::vector<int64_t>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v->size()));
  if (rank >= v->size()) rank = v->size() - 1;
  return static_cast<double>((*v)[rank]);
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Quantile (`q` in [0, 1]) of `v`, interpolated between ranks.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

/// The figure of the window's quiet tenth, from per-slice figures: their
/// first decile where lower is better, their ninth where higher is better.
/// The shared host's interference comes in bursts of seconds to minutes and
/// only ever slows a slice, so this decile follows the program more closely
/// than the median does when a burst covers much of the window.
inline double QuietDecile(const std::vector<double>& v, bool lower_is_better) {
  return Quantile(v, lower_is_better ? 0.1 : 0.9);
}

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Peak resident set of this process in MiB.
double SelfPeakRssMb();

}  // namespace e2e

#endif  // E2EBENCH_BENCH_H_
