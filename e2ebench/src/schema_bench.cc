// The in-process `schema-dtd` workload (see gen.h for why it exists): one
// engine thread decides the seed's list of DTD decisions round after round
// until the window has passed, each decision parsed from text and cut by a
// per-decision deadline.

#include <sys/resource.h>

#include <cstdio>
#include <optional>

#include "bench.h"
#include "dtd/dtd.h"
#include "engine/engine.h"
#include "gen.h"
#include "pattern/tpq_parser.h"
#include "schema/schema_engine.h"
#include "trace.h"
#include "wire.h"

namespace e2e {

double SelfPeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

constexpr int kSetups = 5;
// A decision that runs past this is cut by the engine's own deadline and
// counts as failed.
constexpr int64_t kDecisionDeadlineMs = 10'000;
constexpr int kTracedPasses = 2;

struct Outcome {
  size_t spec = 0;
  bool decided = false;
  bool yes = false;
  int64_t ns = 0;
};

const char* DecideSpanName(SchemaSpec::Class c) {
  switch (c) {
    case SchemaSpec::Class::kPtime:
      return "schema.decide_ms.ptime";
    case SchemaSpec::Class::kConp:
      return "schema.decide_ms.conp";
    case SchemaSpec::Class::kExptime:
      return "schema.decide_ms.exptime";
  }
  return "schema.decide_ms";
}

/// Parses spec `i`'s texts into `pool`/`*dtd` and decides it on `ctx`; the
/// outcome's time covers parse and decision.
Outcome DecideParsed(const std::vector<SchemaSpec>& specs, size_t i,
                     tpc::EngineContext* ctx, Tracer* tracer,
                     tpc::LabelPool* pool, std::optional<tpc::Dtd>* dtd_out) {
  const SchemaSpec& spec = specs[i];
  const int64_t rid = static_cast<int64_t>(i);
  Outcome out;
  out.spec = i;
  const int64_t t0 = NowNs();
  ScopedSpan request(tracer, "request", rid);
  tpc::ParseDiagnostic diag;
  std::optional<tpc::Dtd>& dtd = *dtd_out;
  {
    ScopedSpan span(tracer, "dtd.parse", rid);
    dtd = tpc::ParseDtdChecked(spec.dtd, pool, &diag);
  }
  auto parse = [&](const std::string& text) -> std::optional<tpc::Tpq> {
    if (text.empty()) return tpc::Tpq();
    ScopedSpan span(tracer, "pattern.parse", rid);
    return tpc::ParseTpqChecked(text, pool, &diag);
  };
  std::optional<tpc::Tpq> p = parse(spec.p);
  std::optional<tpc::Tpq> q = parse(spec.q);
  if (!dtd || !p || !q) {
    out.ns = NowNs() - t0;
    return out;  // undecided: counts as failed
  }
  ctx->ResetBudget();
  tpc::EngineLimits limits;
  limits.max_milliseconds = kDecisionDeadlineMs;
  tpc::SchemaDecision d;
  {
    ScopedSpan span(tracer, DecideSpanName(spec.cls), rid);
    switch (spec.kind) {
      case SchemaSpec::Kind::kContained:
        d = tpc::ContainedWithDtd(*p, *q, spec.mode, *dtd, ctx, limits);
        break;
      case SchemaSpec::Kind::kSatisfiable:
        d = tpc::SatisfiableWithDtd(*p, spec.mode, *dtd, ctx, limits);
        break;
      case SchemaSpec::Kind::kValid:
        d = tpc::ValidWithDtd(*q, spec.mode, *dtd, ctx, limits);
        break;
    }
  }
  out.decided = d.decided;
  out.yes = d.yes;
  out.ns = NowNs() - t0;
  return out;
}

/// Decides spec `i`.  With tracing on, the DTD's tree automaton
/// (`Dtd::Automaton`, part of the dtd layer's cost but not read by these
/// engine calls) is then built in a `dtd.automaton` span outside the
/// decision's time.
Outcome Decide(const std::vector<SchemaSpec>& specs, size_t i,
               tpc::EngineContext* ctx, Tracer* tracer) {
  tpc::LabelPool pool;
  std::optional<tpc::Dtd> dtd;
  const Outcome out = DecideParsed(specs, i, ctx, tracer, &pool, &dtd);
  if (tracer->enabled() && dtd.has_value()) {
    ScopedSpan span(tracer, "dtd.automaton", static_cast<int64_t>(i));
    (void)dtd->Automaton();
  }
  return out;
}

int64_t Load(const std::atomic<int64_t>& c) {
  return c.load(std::memory_order_relaxed);
}

}  // namespace

bool RunSchemaDtd(const RunConfig& config, RunResult* result,
                  std::string* /*error*/) {
  Tracer off(false);
  tpc::EngineContext ctx;

  // Set-up, several times: construct the inputs from the seed and run the
  // warm-up pass (every decision once).
  std::vector<double> setup_s;
  std::optional<SchemaDtd> w;
  std::vector<Outcome> warmup;
  for (int s = 0; s < kSetups; ++s) {
    const int64_t t0 = NowNs();
    w.emplace(config.seed);
    warmup.clear();
    for (size_t i = 0; i < w->specs().size(); ++i) {
      warmup.push_back(Decide(w->specs(), i, &ctx, &off));
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  const std::vector<SchemaSpec>& specs = w->specs();

  // Counter snapshot, then the timed window: the list, round after round.
  const tpc::EngineStats& st = ctx.stats();
  struct Snap {
    int64_t configs, subsumed, horizontal, det, sets, unions, hits, evict,
        accepts, refutes, stitch, borrow, compiled, dispatch;
  };
  auto snap = [&] {
    int64_t dispatch = 0;
    for (const auto& d : st.dispatch) dispatch += Load(d);
    return Snap{Load(st.schema_configurations),
                Load(st.configs_subsumed),
                Load(st.horizontal_nodes),
                Load(st.det_states_materialized),
                Load(st.state_sets_interned),
                Load(st.unions_memoized),
                Load(st.cache_hits),
                Load(st.cache_evictions),
                Load(st.prefilter_accepts),
                Load(st.prefilter_refutes),
                Load(st.lattice_stitch_hits),
                Load(st.witness_borrow_refutes),
                Load(st.programs_compiled),
                dispatch};
  };
  const Snap before = snap();
  std::vector<Outcome> window;
  int64_t steps = 0, bytes_peak = 0;
  const int64_t t0 = NowNs();
  const int64_t t_end = t0 + static_cast<int64_t>(config.seconds * 1e9);
  // Whole rounds only, so every decision of the list is repeated the same
  // number of times.
  int64_t rounds = 0;
  while (NowNs() < t_end) {
    for (size_t i = 0; i < specs.size(); ++i) {
      window.push_back(Decide(specs, i, &ctx, &off));
      steps += ctx.budget().steps_used();
      bytes_peak = std::max<int64_t>(bytes_peak, ctx.budget().bytes_peak());
    }
    ++rounds;
  }
  const double elapsed_s = static_cast<double>(NowNs() - t0) / 1e9;
  const Snap after = snap();
  result->e2e["peak_rss_mb"] = SelfPeakRssMb();

  // Reference verdicts, outside all timing.
  w->ComputeReferences();
  int64_t failed = 0;
  // Each decision's best time over the window.  The shared host's
  // interference comes in bursts and only ever slows a decision, so the
  // best of a few dozen repetitions spread over the window follows the
  // program, not the bursts.
  std::vector<int64_t> best(specs.size(), INT64_MAX);
  for (const std::vector<Outcome>* list : {&warmup, &window}) {
    for (const Outcome& o : *list) {
      if (!o.decided) {
        if (list == &window) ++failed;
        continue;
      }
      if (o.yes != specs[o.spec].expected) {
        result->correct = false;
        std::fprintf(stderr, "wrong verdict on schema decision %zu (%s)\n",
                     o.spec, SchemaClassName(specs[o.spec].cls));
      }
      if (list == &window) best[o.spec] = std::min(best[o.spec], o.ns);
    }
  }
  best.erase(std::remove(best.begin(), best.end(), INT64_MAX), best.end());
  double best_sum_ns = 0;
  for (int64_t ns : best) best_sum_ns += static_cast<double>(ns);
  const double n = static_cast<double>(window.size());
  result->attempted = static_cast<int64_t>(window.size());
  result->failed = failed;
  result->e2e["setup_s"] = Median(setup_s);
  result->e2e["verdicts_per_s"] =
      Ratio(static_cast<double>(best.size()), best_sum_ns / 1e9);
  result->e2e["latency_p50_us"] = Percentile(&best, 0.50) / 1e3;
  result->e2e["latency_p99_us"] = Percentile(&best, 0.99) / 1e3;
  std::fprintf(stderr, "  decisions: %zu in %.3f s (%lld rounds of %zu)\n",
               window.size(), elapsed_s, static_cast<long long>(rounds),
               specs.size());

  if (!config.trace) return true;

  // Counter-derived layers over the window, per decision.
  std::map<std::string, double>& m = result->layer;
  auto delta = [&](int64_t Snap::*field) {
    return static_cast<double>(after.*field - before.*field);
  };
  m["schema.configs_per_decision"] = Ratio(delta(&Snap::configs), n);
  m["schema.subsumed_share"] =
      Ratio(delta(&Snap::subsumed), delta(&Snap::configs) + delta(&Snap::subsumed));
  m["schema.horizontal_nodes_per_decision"] =
      Ratio(delta(&Snap::horizontal), n);
  m["automata.state_sets_per_decision"] = Ratio(delta(&Snap::sets), n);
  m["automata.unions_memoized_share"] =
      Ratio(delta(&Snap::unions), delta(&Snap::unions) + delta(&Snap::sets));
  m["automata.det_states_per_decision"] = Ratio(delta(&Snap::det), n);
  // The serve/service layers must not move on this workload.
  m["service.cache_hit_share"] = Ratio(delta(&Snap::hits), n);
  m["service.lattice_answer_share"] =
      Ratio(delta(&Snap::stitch) + delta(&Snap::borrow), n);
  m["service.prefilter_useful_share"] =
      Ratio(delta(&Snap::accepts) + delta(&Snap::refutes), n);
  m["service.cache_evictions_per_1k"] = Ratio(delta(&Snap::evict), n) * 1e3;
  m["compile.programs_compiled_per_1k"] =
      Ratio(delta(&Snap::compiled), n) * 1e3;
  m["engine.steps_per_decision"] = Ratio(static_cast<double>(steps), n);
  m["engine.bytes_peak_mb"] =
      static_cast<double>(bytes_peak) / (1024.0 * 1024.0);
  std::fprintf(stderr, "  dispatcher decisions during the window: %lld\n",
               static_cast<long long>(after.dispatch - before.dispatch));

  // Traced passes over the same list.
  Tracer tracer(true);
  int64_t traced_ns = 0, traced_n = 0;
  for (int pass = 0; pass < kTracedPasses; ++pass) {
    for (size_t i = 0; i < specs.size(); ++i) {
      const Outcome o = Decide(specs, i, &ctx, &tracer);
      traced_ns += o.ns;
      ++traced_n;
      if (o.decided && o.yes != specs[i].expected) result->correct = false;
    }
  }
  tracer.WriteTsv(config.run_dir + "/spans_" + config.workload + "_" +
                  std::to_string(config.seed) + ".tsv");
  const auto totals = tracer.Totals();
  auto self_per_call = [&](const char* name, double scale) {
    auto it = totals.find(name);
    if (it == totals.end() || it->second.count == 0) return 0.0;
    return static_cast<double>(it->second.self_ns) /
           static_cast<double>(it->second.count) / scale;
  };
  m["schema.decide_ms.ptime"] = self_per_call("schema.decide_ms.ptime", 1e6);
  m["schema.decide_ms.conp"] = self_per_call("schema.decide_ms.conp", 1e6);
  m["schema.decide_ms.exptime"] =
      self_per_call("schema.decide_ms.exptime", 1e6);
  auto self_total = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.self_ns);
  };
  m["dtd.parse_us"] =
      Ratio(self_total("dtd.parse") + self_total("dtd.automaton"),
            static_cast<double>(traced_n)) /
      1e3;
  m["pattern.parse_ns"] = self_per_call("pattern.parse", 1);
  const double traced_vps = Ratio(static_cast<double>(traced_n),
                                  static_cast<double>(traced_ns) / 1e9);
  // Against the untraced window's throughput over all its decisions.
  m["trace.overhead_ratio"] = Ratio(traced_vps, n / elapsed_s);
  return true;
}

}  // namespace e2e
