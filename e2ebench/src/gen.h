// Seeded workload generators of the end-to-end benchmark.
//
// Every byte the daemon or the schema engine receives is produced here from
// the workload seed alone: the same seed gives byte-identical request
// streams, DTD texts and reference verdicts (gen_test.cc pins this), and a
// different seed changes them.  Reference verdicts come from procedures that
// share no fast path with the system under test: bare `tpc::Contains` with
// `force_canonical` (the paper's canonical-model ground truth) for the serve
// workloads, and the tiling solver, the partition solver or the schema
// engine without antichain pruning for `schema-dtd`.

#ifndef E2EBENCH_GEN_H_
#define E2EBENCH_GEN_H_

#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "base/label.h"
#include "contain/containment.h"
#include "pattern/tpq.h"

namespace e2e {

using tpc::Mode;

/// One containment request as it goes on the wire, with its reference
/// verdict.
struct Query {
  std::string p;
  std::string q;
  Mode mode = Mode::kWeak;
  bool expected = false;
};

// ---------------------------------------------------------------- zipf-hot
//
// Why it exists: repetitive, cache-friendly traffic — the shape the service
// layers (wire decode, parse, minimize+hash, verdict cache, lattice) were
// built for.  A few hundred distinct (p, q, mode) pairs, most of them routed
// to the paper's P algorithms, with the coNP-family heads on the hottest
// ranks; each pair is sent in several syntactic variants (sibling
// permutations, redundant branches) that minimize+hash must fold together.
// The daemon warm-starts from a snapshot, so in steady state the working set
// is read-only and fits the cache; a sweep-kernel change should not move it.
class ZipfHot {
 public:
  static constexpr int kVariants = 4;
  static constexpr int kRandomPairs = 248;
  static constexpr double kZipfExponent = 1.07;

  struct Pair {
    std::array<std::string, kVariants> p;
    std::array<std::string, kVariants> q;
    Mode mode = Mode::kWeak;
    bool expected = false;
  };

  explicit ZipfHot(uint64_t seed);

  const std::vector<Pair>& pairs() const { return pairs_; }

  /// Fills every pair's `expected` verdict: the canonical-model reference
  /// on the plain spelling (variant 0).
  void ComputeReferences();

  /// The request stream of connection `conn`: an endless zipf draw over
  /// (pair, variant).  `Next` returns pair * kVariants + variant.
  class Stream {
   public:
    Stream(const ZipfHot& w, int conn);
    uint32_t Next();

   private:
    std::mt19937_64 rng_;
    std::discrete_distribution<uint32_t> zipf_;
  };

  const Query& QueryFor(uint32_t code) const { return queries_[code]; }

 private:
  uint64_t seed_;
  std::vector<Pair> pairs_;
  std::vector<double> weights_;  // zipf weight per pair
  std::vector<Query> queries_;   // indexed by request code
  friend class Stream;
};

// ---------------------------------------------------------------- conp-mix
//
// Why it exists: the paper's hard cell (Thm 3.3, Table 1) under multi-tenant
// load.  A heavy tenant streams never-repeating coNP instances (the
// engineered p_n family, plus random TPQ(/,//,*) pairs that route to the
// canonical enumeration, frozen as text in conp_templates.inc, each run's
// labels renamed at random) in runs of four sharing the enumeration-side
// p, so the daemon's default --group-window 4 forms groups; about half the members are contained (full sweep), half refuted.
// Beside it a light tenant sends P-route pairs as an open loop at a fixed
// rate.  The canonical sweep, compile, matcher and SweepBank do most of the
// work; the verdict cache only takes inserts, and the light tenant's
// repeats are its only reads.  DRR fairness sets the light tenant's p99.
class ConpMix {
 public:
  static constexpr int kRun = 4;
  static constexpr int kAlphabet = 256;
  static constexpr int kLightPairs = 32;
  static constexpr double kLightRatePerS = 100.0;

  explicit ConpMix(uint64_t seed);

  /// Fills the reference verdicts of the templates the heavy runs are
  /// stamped from, and of the light pairs.
  void ComputeReferences();

  /// The `k`-th heavy run: four queries sharing p, the template's labels
  /// renamed injectively into a kAlphabet-name alphabet by a draw seeded
  /// with `k`.  A p_5 run has 256^13 renamings and a random group about
  /// 1.6e7, so a window of a few thousand runs repeats a pair with
  /// probability well under 1e-3.  Reference verdicts are the templates'
  /// (injective renaming preserves containment).
  std::array<Query, kRun> HeavyRun(uint64_t k) const;

  /// The daemon warm-up's heavy runs: the same four runs (two p_5, two
  /// random groups) in every set-up of a seed, so set-up costs compare.
  std::vector<std::array<Query, kRun>> WarmupRuns() const;

  /// The `i`-th light request.
  const Query& Light(uint64_t i) const;

 private:
  struct Template {
    tpc::Tpq p;
    std::array<tpc::Tpq, kRun> q;
    std::array<bool, kRun> expected{};
  };
  std::array<Query, kRun> Stamp(const Template& t,
                                std::mt19937_64* rng) const;

  uint64_t seed_;
  tpc::LabelPool pool_;              // labels of the templates
  std::vector<Template> conp_;       // p_5 family groups
  std::vector<Template> random_;     // frozen canonical-route groups
  std::vector<Query> light_;
};

// -------------------------------------------------------------- schema-dtd
//
// Why it exists: only `schema`, `automata` and `dtd` work here.  A fixed
// per-seed list of ContainedWithDtd / SatisfiableWithDtd / ValidWithDtd
// decisions, each parsed from text: random-DTD P cells (Thm 6.1), random-DTD
// coNP cells with branching left patterns (Thm 6.3), the 4-PARTITION
// reduction instance (Thm 4.2(2) framed as containment), and trionimo
// tiling reductions at n = 2, solvable and unsolvable (Thm 6.6, EXPTIME).
// Nothing in serve/ or service/ runs, so the antichain engine and the
// automata substrate get a number of their own.
struct SchemaSpec {
  enum class Kind { kContained, kSatisfiable, kValid };
  enum class Class { kPtime, kConp, kExptime };
  Kind kind = Kind::kContained;
  Class cls = Class::kPtime;
  std::string dtd;
  std::string p;  // empty for kValid
  std::string q;  // empty for kSatisfiable
  Mode mode = Mode::kWeak;
  bool expected = false;
  // Which reference decides the spec: the schema engine without antichain
  // pruning, the line-tiling solver, or the partition solver.
  enum class Truth { kEngineNoAntichain, kTiling, kPartition };
  Truth truth = Truth::kEngineNoAntichain;
  bool tiling_solvable = false;  // which tiling system (kTiling only)
};

const char* SchemaClassName(SchemaSpec::Class c);

class SchemaDtd {
 public:
  explicit SchemaDtd(uint64_t seed);

  const std::vector<SchemaSpec>& specs() const { return specs_; }

  /// Fills `expected` for every spec (outside any timing).
  void ComputeReferences();

 private:
  std::vector<SchemaSpec> specs_;
  std::vector<int64_t> partition_numbers_;  // the 4-PARTITION instance
};

}  // namespace e2e

#endif  // E2EBENCH_GEN_H_
