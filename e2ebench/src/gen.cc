#include "gen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string_view>

#include "dtd/dtd.h"
#include "engine/engine.h"
#include "gen/random_instances.h"
#include "pattern/canonical.h"
#include "pattern/tpq_parser.h"
#include "reductions/hardness_families.h"
#include "reductions/partition.h"
#include "schema/schema_engine.h"
#include "tiling/reduction.h"
#include "tiling/tiling.h"

namespace e2e {

using tpc::ContainmentOptions;
using tpc::ContainmentResult;
using tpc::EdgeKind;
using tpc::Fragment;
using tpc::LabelId;
using tpc::LabelPool;
using tpc::NodeId;
using tpc::Tpq;
namespace fragments = tpc::fragments;

namespace {

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "e2e_bench: generator: %s\n", message.c_str());
  std::exit(3);
}

Tpq ParseOrDie(std::string_view text, LabelPool* pool) {
  tpc::ParseDiagnostic diag;
  std::optional<Tpq> q = tpc::ParseTpqChecked(text, pool, &diag);
  if (!q.has_value()) Die("unparsable pattern '" + std::string(text) + "'");
  return std::move(*q);
}

void WriteNode(const Tpq& q, NodeId v, const LabelPool& pool,
               const std::vector<std::string>* names,
               std::mt19937_64* shuffle, NodeId duplicate, std::string* out) {
  if (q.IsWildcard(v)) {
    out->push_back('*');
  } else {
    out->append(names != nullptr ? (*names)[q.Label(v)]
                                 : pool.Name(q.Label(v)));
  }
  std::vector<NodeId> kids = q.Children(v);
  if (duplicate != tpc::kNoNode && duplicate != 0 && q.Parent(duplicate) == v) {
    kids.push_back(duplicate);
  }
  if (shuffle != nullptr) std::shuffle(kids.begin(), kids.end(), *shuffle);
  for (NodeId c : kids) {
    out->push_back('[');
    if (q.Edge(c) == EdgeKind::kDescendant) out->append("//");
    WriteNode(q, c, pool, names, shuffle, duplicate, out);
    out->push_back(']');
  }
}

/// A random leaf other than the root, or kNoNode for a one-node pattern.
NodeId RandomLeaf(const Tpq& q, std::mt19937_64* rng) {
  std::vector<NodeId> leaves;
  for (NodeId v = 1; v < q.size(); ++v) {
    if (q.IsLeaf(v)) leaves.push_back(v);
  }
  if (leaves.empty()) return tpc::kNoNode;
  return leaves[(*rng)() % leaves.size()];
}

/// Shapes of pairs the dispatcher sends to a P algorithm (Table 1), plus a
/// general shape that mostly needs the canonical enumeration.
struct PairShape {
  Fragment p;
  Fragment q;
};
constexpr PairShape kPairShapes[] = {
    {fragments::kTpqFull, fragments::kTpqChildDesc},  // q wildcard-free
    {fragments::kTpqFull, fragments::kTpqDescStar},   // q child-edge-free
    {fragments::kTpqChildStar, fragments::kTpqFull},  // p descendant-free
    {fragments::kPqFull, fragments::kTpqFull},        // p a path
    {fragments::kTpqDescStar, fragments::kTpqFull},   // p child-edge-free
    {fragments::kTpqFull, fragments::kTpqFull},       // general
};

/// A random pair of a P-route shape (the general shape one time in eight
/// when `allow_general`).  Both sides keep at most three descendant edges:
/// minimizing a pattern runs containment checks whose canonical models are
/// exponential in that count, and one such outlier would dominate a
/// workload meant to be cheap per request.
std::pair<Tpq, Tpq> RandomPair(const std::vector<LabelId>& labels,
                               bool allow_general, std::mt19937* rng) {
  while (true) {
    size_t shape = (*rng)() % 5;
    if (allow_general && (*rng)() % 8 == 0) shape = 5;
    tpc::RandomTpqOptions po;
    po.labels = labels;
    po.fragment = kPairShapes[shape].p;
    po.size = 4 + static_cast<int32_t>((*rng)() % 5);
    tpc::RandomTpqOptions qo;
    qo.labels = labels;
    qo.fragment = kPairShapes[shape].q;
    qo.size = 3 + static_cast<int32_t>((*rng)() % 4);
    Tpq p = tpc::RandomTpq(po, rng);
    Tpq q = tpc::RandomTpq(qo, rng);
    if (tpc::DescendantEdges(p).size() <= 3 &&
        tpc::DescendantEdges(q).size() <= 3) {
      return {std::move(p), std::move(q)};
    }
  }
}

/// The engineered coNP family p_n = r[u/a_1//b_1/c]...[u/a_n//b_n/c]
/// (reductions/hardness_families.h) as text.
std::string ConpFamilyText(int n) {
  std::string p = "r";
  for (int i = 1; i <= n; ++i) {
    p += "[u/a" + std::to_string(i) + "//b" + std::to_string(i) + "/c]";
  }
  return p;
}

/// Independent 64-bit stream seed for sub-stream `stream` of `seed`.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct FrozenTemplate {
  const char* p;
  std::array<const char*, ConpMix::kRun> q;
};

constexpr FrozenTemplate kFrozenTemplates[] = {
#include "conp_templates.inc"
};

/// Writes `q` in the pattern parser's syntax, every child as a predicate
/// (`a[b][//c[*]]`).  With `names`, label `l` is spelled `(*names)[l]` (the
/// wildcard stays `*`).  With `shuffle`, sibling order is permuted; with
/// `duplicate` naming a non-root node, that node's subtree is written twice
/// under its parent.  Both variants denote the same language as `q`.
std::string WriteTpq(const Tpq& q, const LabelPool& pool,
                     const std::vector<std::string>* names = nullptr,
                     std::mt19937_64* shuffle = nullptr,
                     NodeId duplicate = tpc::kNoNode) {
  std::string out;
  if (!q.empty()) WriteNode(q, 0, pool, names, shuffle, duplicate, &out);
  return out;
}

/// Reference verdict for one pair: parses both texts into `pool` and runs
/// bare `Contains` with `force_canonical`.  Aborts on a parse failure or an
/// undecided reference (the generator never emits either).
bool ReferenceContains(std::string_view p, std::string_view q, Mode mode,
                       LabelPool* pool) {
  const Tpq pp = ParseOrDie(p, pool);
  const Tpq qq = ParseOrDie(q, pool);
  ContainmentOptions options;
  options.force_canonical = true;
  tpc::EngineContext ctx;
  const ContainmentResult r = tpc::Contains(pp, qq, mode, pool, &ctx, options);
  if (r.outcome != tpc::Outcome::kDecided) {
    Die("reference undecided for '" + std::string(p) + "' vs '" +
        std::string(q) + "'");
  }
  return r.contained;
}

}  // namespace

// ---------------------------------------------------------------- zipf-hot

ZipfHot::ZipfHot(uint64_t seed) : seed_(seed) {
  LabelPool pool;
  std::mt19937 rng(static_cast<uint32_t>(StreamSeed(seed, 1)));
  std::mt19937_64 vrng(StreamSeed(seed, 2));
  const std::vector<LabelId> labels = {pool.Intern("a"), pool.Intern("b"),
                                       pool.Intern("c")};

  std::vector<std::pair<Tpq, Tpq>> bases;
  std::vector<Mode> modes;
  // coNP-family heads: p_n against the contained "c at depth >= 4" and the
  // refuted "c at depth >= 5" paths, n = 3..6.
  for (int n = 3; n <= 6; ++n) {
    const Tpq p = ParseOrDie(ConpFamilyText(n), &pool);
    for (const char* q : {"*/*/*/*/c", "*/*/*/*/*/c"}) {
      bases.emplace_back(p, ParseOrDie(q, &pool));
      modes.push_back(Mode::kWeak);
    }
  }
  for (int i = 0; i < kRandomPairs; ++i) {
    bases.push_back(RandomPair(labels, /*allow_general=*/true, &rng));
    modes.push_back(rng() % 5 == 0 ? Mode::kStrong : Mode::kWeak);
  }

  for (size_t i = 0; i < bases.size(); ++i) {
    Pair pair;
    pair.mode = modes[i];
    const Tpq& p = bases[i].first;
    const Tpq& q = bases[i].second;
    for (int v = 0; v < kVariants; ++v) {
      std::mt19937_64* shuffle = (v & 1) ? &vrng : nullptr;
      const NodeId pdup = (v & 2) ? RandomLeaf(p, &vrng) : tpc::kNoNode;
      const NodeId qdup = (v & 2) ? RandomLeaf(q, &vrng) : tpc::kNoNode;
      pair.p[v] = WriteTpq(p, pool, nullptr, shuffle, pdup);
      pair.q[v] = WriteTpq(q, pool, nullptr, shuffle, qdup);
    }
    pairs_.push_back(std::move(pair));
  }

  // Zipf popularity: the heads take the hottest ranks, the random pairs are
  // shuffled over the rest.
  const std::vector<size_t> head_ranks = {0, 1, 2, 4, 6, 9, 13, 18};
  std::vector<size_t> rest;
  for (size_t r = 0; r < pairs_.size(); ++r) {
    if (std::find(head_ranks.begin(), head_ranks.end(), r) ==
        head_ranks.end()) {
      rest.push_back(r);
    }
  }
  std::shuffle(rest.begin(), rest.end(), vrng);
  weights_.resize(pairs_.size());
  for (size_t i = 0; i < pairs_.size(); ++i) {
    const size_t rank = i < head_ranks.size() ? head_ranks[i]
                                              : rest[i - head_ranks.size()];
    weights_[i] = 1.0 / std::pow(static_cast<double>(rank + 1), kZipfExponent);
  }
  queries_.resize(pairs_.size() * kVariants);
  for (size_t i = 0; i < pairs_.size(); ++i) {
    for (int v = 0; v < kVariants; ++v) {
      Query& query = queries_[i * kVariants + v];
      query.p = pairs_[i].p[v];
      query.q = pairs_[i].q[v];
      query.mode = pairs_[i].mode;
    }
  }
}

void ZipfHot::ComputeReferences() {
  LabelPool pool;
  for (size_t i = 0; i < pairs_.size(); ++i) {
    // Variant 0 is the plain spelling; the others are equivalent by
    // construction (sibling order and duplicated leaves never change a
    // pattern's language), and the daemon's answers on them are checked
    // against this verdict.
    const bool v = ReferenceContains(pairs_[i].p[0], pairs_[i].q[0],
                                     pairs_[i].mode, &pool);
    pairs_[i].expected = v;
    for (int k = 0; k < kVariants; ++k) {
      queries_[i * kVariants + k].expected = v;
    }
  }
}

ZipfHot::Stream::Stream(const ZipfHot& w, int conn)
    : rng_(StreamSeed(w.seed_, 100 + static_cast<uint64_t>(conn))),
      zipf_(w.weights_.begin(), w.weights_.end()) {}

uint32_t ZipfHot::Stream::Next() {
  const uint32_t pair = zipf_(rng_);
  const uint32_t variant = static_cast<uint32_t>(rng_() % kVariants);
  return pair * kVariants + variant;
}

// ---------------------------------------------------------------- conp-mix

ConpMix::ConpMix(uint64_t seed) : seed_(seed) {
  std::mt19937 rng(static_cast<uint32_t>(StreamSeed(seed, 3)));

  // p_5 members: two contained shapes that share the chain-length bound (so
  // they sweep as one group over (|q|+2)^5 = 16807 models) and two refuted
  // shapes.  One n keeps every family group the same size of work, so the
  // light tenant's tail measures scheduling, not the instance mix.
  const char* kYes[] = {"*/*/*/*/c", "*//*/*/*/c", "*/*//*/*/c"};
  const char* kNo[] = {"*/*/*/*/*/c", "*//*/*/*/*/c"};
  for (int skip = 0; skip < 3; ++skip) {
    Template t;
    t.p = ParseOrDie(ConpFamilyText(5), &pool_);
    int m = 0;
    for (int y = 0; y < 3; ++y) {
      if (y != skip) t.q[m++] = ParseOrDie(kYes[y], &pool_);
    }
    for (const char* no : kNo) t.q[m++] = ParseOrDie(no, &pool_);
    conp_.push_back(std::move(t));
  }

  // Random TPQ(/,//,*) groups routed to the canonical enumeration, frozen as
  // text (conp_templates.inc) so no code under test shapes the stream.
  for (const FrozenTemplate& f : kFrozenTemplates) {
    Template t;
    t.p = ParseOrDie(f.p, &pool_);
    for (int m = 0; m < kRun; ++m) t.q[m] = ParseOrDie(f.q[m], &pool_);
    random_.push_back(std::move(t));
  }

  // The light tenant's P-route pairs.
  const std::vector<LabelId> labels = {pool_.Intern("a"), pool_.Intern("b"),
                                       pool_.Intern("c")};
  for (int i = 0; i < kLightPairs; ++i) {
    auto [p, q] = RandomPair(labels, /*allow_general=*/false, &rng);
    Query query;
    query.p = WriteTpq(p, pool_);
    query.q = WriteTpq(q, pool_);
    query.mode = rng() % 5 == 0 ? Mode::kStrong : Mode::kWeak;
    light_.push_back(std::move(query));
  }
}

void ConpMix::ComputeReferences() {
  LabelPool pool;
  for (std::vector<Template>* family : {&conp_, &random_}) {
    for (Template& t : *family) {
      const std::string p = WriteTpq(t.p, pool_);
      for (int m = 0; m < kRun; ++m) {
        t.expected[m] =
            ReferenceContains(p, WriteTpq(t.q[m], pool_), Mode::kWeak, &pool);
      }
    }
  }
  for (Query& query : light_) {
    query.expected = ReferenceContains(query.p, query.q, query.mode, &pool);
  }
}

std::array<Query, ConpMix::kRun> ConpMix::Stamp(const Template& t,
                                                std::mt19937_64* rng) const {
  // An injective renaming of the templates' labels into a fixed alphabet:
  // containment is preserved, and the daemon's label pool stays bounded
  // however many runs a faster program gets through.
  std::vector<int> alphabet(kAlphabet);
  std::iota(alphabet.begin(), alphabet.end(), 0);
  std::shuffle(alphabet.begin(), alphabet.end(), *rng);
  std::vector<std::string> names(pool_.size());
  for (size_t l = 0; l < names.size(); ++l) {
    names[l] = "n" + std::to_string(alphabet[l]);
  }
  std::array<int, kRun> perm = {0, 1, 2, 3};
  std::shuffle(perm.begin(), perm.end(), *rng);
  std::array<Query, kRun> run;
  const std::string p = WriteTpq(t.p, pool_, &names);
  for (int m = 0; m < kRun; ++m) {
    run[m].p = p;
    run[m].q = WriteTpq(t.q[perm[m]], pool_, &names);
    run[m].mode = Mode::kWeak;
    run[m].expected = t.expected[perm[m]];
  }
  return run;
}

std::array<Query, ConpMix::kRun> ConpMix::HeavyRun(uint64_t k) const {
  std::mt19937_64 rng(StreamSeed(seed_, 0x100000 + k));
  const std::vector<Template>& family = rng() % 2 == 0 ? conp_ : random_;
  const Template& t = family[rng() % family.size()];
  return Stamp(t, &rng);
}

std::vector<std::array<Query, ConpMix::kRun>> ConpMix::WarmupRuns() const {
  std::mt19937_64 rng(StreamSeed(seed_, 6));
  return {Stamp(conp_[0], &rng), Stamp(conp_[1], &rng),
          Stamp(random_[0], &rng), Stamp(random_[1], &rng)};
}

const Query& ConpMix::Light(uint64_t i) const {
  return light_[StreamSeed(seed_, 0x200000 + i) % light_.size()];
}

// -------------------------------------------------------------- schema-dtd

const char* SchemaClassName(SchemaSpec::Class c) {
  switch (c) {
    case SchemaSpec::Class::kPtime:
      return "ptime";
    case SchemaSpec::Class::kConp:
      return "conp";
    case SchemaSpec::Class::kExptime:
      return "exptime";
  }
  return "?";
}

namespace {

/// The 4-PARTITION instance of the reduction cell: K = 2, L = 1, numbers in
/// the seed's order (the multiset has no partition).
tpc::FourPartitionInstance PartitionInstance(std::vector<int64_t> numbers) {
  tpc::FourPartitionInstance inst;
  inst.log_target = 2;
  inst.log_groups4 = 1;
  inst.numbers = std::move(numbers);
  return inst;
}

/// The initial row of the tiling cells (n = 2).
const std::vector<tpc::Tile> kTilingRow(2, 0);

/// The three-tile system of the Table 4/5 benchmarks: tile 0 can advance to
/// either final tile when `solvable`, and nothing is allowed otherwise.
tpc::TriominoSystem TilingSystem(bool solvable) {
  tpc::TriominoSystem s;
  s.num_tiles = 3;
  if (solvable) {
    for (tpc::Tile r = 0; r < 3; ++r) {
      s.constraints.push_back({0, r, 1});
      s.constraints.push_back({0, r, 2});
    }
  }
  return s;
}

}  // namespace

SchemaDtd::SchemaDtd(uint64_t seed) {
  LabelPool pool;
  std::mt19937 rng(static_cast<uint32_t>(StreamSeed(seed, 4)));
  const std::vector<LabelId> labels = tpc::MakeLabels(4, &pool);
  auto random_dtd = [&] {
    tpc::RandomDtdOptions o;
    o.labels = labels;
    tpc::Dtd d = tpc::RandomDtd(o, &rng);
    while (d.IsEmptyLanguage()) d = tpc::RandomDtd(o, &rng);
    return d.ToString(pool);
  };
  auto random_tpq = [&](Fragment f, int32_t lo, int32_t hi) {
    tpc::RandomTpqOptions o;
    o.labels = labels;
    o.fragment = f;
    o.size = lo + static_cast<int32_t>(rng() % (hi - lo + 1));
    return WriteTpq(tpc::RandomTpq(o, &rng), pool);
  };
  using Kind = SchemaSpec::Kind;
  using Class = SchemaSpec::Class;

  // Random-DTD path-query cells: Thm 6.1(1) and 6.1(3) containment, path
  // satisfiability (Thm 4.1(1)) and path validity.  56 DTDs x 5 cells make
  // 287 decisions with the seven below: enough cheap cells that their
  // median hardly depends on the seed, and few enough that the p99 rank
  // (the third slowest decision) still falls on one of the three reduction
  // instances.
  for (int d = 0; d < 56; ++d) {
    const std::string dtd = random_dtd();
    for (int i = 0; i < 2; ++i) {
      specs_.push_back({Kind::kContained, Class::kPtime, dtd,
                        random_tpq(fragments::kPqFull, 3, 8),
                        random_tpq(fragments::kPqDesc, 2, 4), Mode::kWeak});
    }
    specs_.push_back({Kind::kContained, Class::kPtime, dtd,
                      random_tpq(fragments::kPqFull, 3, 8),
                      random_tpq(fragments::kTpqChildDesc, 2, 4),
                      Mode::kStrong});
    specs_.push_back({Kind::kSatisfiable, Class::kPtime, dtd,
                      random_tpq(fragments::kPqFull, 3, 6), "", Mode::kWeak});
    specs_.push_back({Kind::kValid, Class::kPtime, dtd, "",
                      random_tpq(fragments::kPqChild, 1, 3), Mode::kWeak});
  }
  // Random-DTD coNP cells: branching left patterns (Thm 6.3).
  for (int d = 0; d < 4; ++d) {
    const std::string dtd = random_dtd();
    specs_.push_back({Kind::kContained, Class::kConp, dtd,
                      random_tpq(fragments::kTpqChild, 4, 6),
                      random_tpq(fragments::kTpqChild, 2, 4), Mode::kWeak});
  }
  // The 4-PARTITION reduction (Thm 4.2(2)) framed as containment in an
  // unsatisfiable pattern: contained iff no partition exists.  The same
  // instance for every seed: it is one of the round's three heavy
  // decisions, and its cost depends on the order of its numbers.
  {
    partition_numbers_ = {3, 3, 2, 0, 0, 0, 0, 0};
    LabelPool ppool;
    tpc::PartitionSatInstance sat = tpc::BuildPartitionReduction(
        PartitionInstance(partition_numbers_), &ppool);
    SchemaSpec spec{Kind::kContained, Class::kConp, sat.dtd.ToString(ppool),
                    WriteTpq(sat.p, ppool), "zzz", Mode::kStrong};
    spec.truth = SchemaSpec::Truth::kPartition;
    specs_.push_back(std::move(spec));
  }
  // Trionimo tiling reductions at n = 2 (Thm 6.6): contained iff the line
  // tiling instance has no solution.
  for (bool solvable : {true, false}) {
    LabelPool tpool;
    tpc::TilingContainmentInstance inst =
        tpc::BuildTilingReduction(TilingSystem(solvable), kTilingRow, &tpool);
    SchemaSpec spec{Kind::kContained, Class::kExptime,
                    inst.dtd.ToString(tpool), WriteTpq(inst.p, tpool),
                    WriteTpq(inst.q, tpool), Mode::kWeak};
    spec.truth = SchemaSpec::Truth::kTiling;
    spec.tiling_solvable = solvable;
    specs_.push_back(std::move(spec));
  }
  std::mt19937_64 order(StreamSeed(seed, 5));
  std::shuffle(specs_.begin(), specs_.end(), order);
}

void SchemaDtd::ComputeReferences() {
  for (SchemaSpec& spec : specs_) {
    if (spec.truth == SchemaSpec::Truth::kPartition) {
      // Contained in the unsatisfiable "zzz" iff no partition exists.
      spec.expected =
          !tpc::SolveFourPartition(PartitionInstance(partition_numbers_));
      continue;
    }
    if (spec.truth == SchemaSpec::Truth::kTiling) {
      // Containment fails iff the line tiling instance has a solution.
      spec.expected =
          !tpc::SolveLineTiling(TilingSystem(spec.tiling_solvable), kTilingRow)
               .has_value();
      continue;
    }
    LabelPool pool;
    tpc::ParseDiagnostic diag;
    std::optional<tpc::Dtd> dtd = tpc::ParseDtdChecked(spec.dtd, &pool, &diag);
    if (!dtd.has_value()) Die("unparsable DTD:\n" + spec.dtd);
    tpc::EngineContext ctx;
    tpc::SchemaEngineOptions options;
    options.antichain = false;
    tpc::SchemaDecision d;
    switch (spec.kind) {
      case SchemaSpec::Kind::kContained:
        d = tpc::ContainedWithDtd(ParseOrDie(spec.p, &pool),
                                  ParseOrDie(spec.q, &pool), spec.mode, *dtd,
                                  &ctx, {}, options);
        break;
      case SchemaSpec::Kind::kSatisfiable:
        d = tpc::SatisfiableWithDtd(ParseOrDie(spec.p, &pool), spec.mode,
                                    *dtd, &ctx, {}, options);
        break;
      case SchemaSpec::Kind::kValid:
        d = tpc::ValidWithDtd(ParseOrDie(spec.q, &pool), spec.mode, *dtd, &ctx,
                              {}, options);
        break;
    }
    if (!d.decided) Die("schema reference undecided");
    spec.expected = d.yes;
  }
}

}  // namespace e2e
