// The two daemon workloads, `zipf-hot` and `conp-mix` (see gen.h for why
// each exists).  Each run:
//
//   1. generates the seed's inputs and their reference verdicts (untimed);
//   2. sets the daemon up several times — launch `tpc_serve`, connect, run
//      the warm-up pass — and reports the median as `setup_s`; the last
//      daemon stays up for the measurement;
//   3. drives the timed window from at most two client threads over at most
//      two connections, checking every verdict against the reference and
//      that every request gets exactly one response;
//   4. stops the daemon (graceful drain) and reads its peak RSS via wait4;
//   5. with --trace 1, derives the per-layer metrics: counter deltas from the
//      daemon's STATS_JSON over the window, and a traced in-process replay
//      of the requests the window sent.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>

#include "bench.h"
#include "compile/matcher_program.h"
#include "compile/sweep_bank.h"
#include "contain/containment.h"
#include "contain/minimize.h"
#include "engine/engine.h"
#include "engine/stats.h"
#include "gen.h"
#include "pattern/canonical.h"
#include "pattern/normalize.h"
#include "pattern/tpq_hash.h"
#include "pattern/tpq_parser.h"
#include "serve/protocol.h"
#include "service/query_service.h"
#include "service/verdict_cache.h"
#include "trace.h"
#include "wire.h"

namespace e2e {
namespace {

namespace serve = tpc::serve;
using tpc::ContainmentAlgorithm;
using tpc::ContainmentResult;
using tpc::EngineContext;
using tpc::LabelPool;
using tpc::QueryService;
using tpc::Tpq;

constexpr int kSetups = 11;
constexpr int kWorkers = 2;
constexpr int64_t kSecond = 1'000'000'000;
// conp-mix light latency slices: 200 requests at 100/s.
constexpr int64_t kLightSliceNs = 2 * kSecond;
constexpr int64_t kConnectTimeoutNs = 10 * kSecond;
constexpr int64_t kDrainTimeoutNs = 60 * kSecond;
// The light tenant's open loop fails the run when its sender's p99
// lateness exceeds this many send periods: the stream would then arrive in
// bursts, and the schedule, not the daemon, would set the latency numbers.
// Shorter stalls of the sender still count, since light requests are timed
// from their due time.
constexpr double kMaxLatePeriods = 5;
// Traced replay sizes: requests replayed, and requests whose layer pieces
// are re-run as probe spans.
constexpr size_t kReplayRequests = 20000;
constexpr size_t kReplayHeavyRuns = 120;
constexpr size_t kProbeUnits = 2000;

// ------------------------------------------------------------ STATS_JSON

/// The `{...}` value of the first `"key": {` in `json` (empty if absent).
std::string_view ObjectAt(std::string_view json, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\": {";
  const size_t at = json.find(needle);
  if (at == std::string_view::npos) return {};
  const size_t open = at + needle.size() - 1;
  int depth = 0;
  for (size_t i = open; i < json.size(); ++i) {
    if (json[i] == '{') ++depth;
    if (json[i] == '}' && --depth == 0) return json.substr(open, i - open + 1);
  }
  return {};
}

/// The integer value of the first `"key": ` in `json` (0 if absent).
int64_t IntAt(std::string_view json, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\": ";
  const size_t at = json.find(needle);
  if (at == std::string_view::npos) return 0;
  return std::strtoll(std::string(json.substr(at + needle.size(), 24)).c_str(),
                      nullptr, 10);
}

/// Counter deltas between two STATS_JSON dumps.
struct StatsDelta {
  std::string before;
  std::string after;

  double Engine(std::string_view key) const {
    return static_cast<double>(IntAt(after, key) - IntAt(before, key));
  }
  double Tenant(std::string_view tenant, std::string_view key) const {
    return static_cast<double>(
        IntAt(ObjectAt(ObjectAt(after, "tenants"), tenant), key) -
        IntAt(ObjectAt(ObjectAt(before, "tenants"), tenant), key));
  }
};

// ------------------------------------------------------------ requests

/// One request of the timed window.  Ids on the wire are indices into the
/// connection's `Req` vector.
struct Req {
  int64_t sched_ns = 0;  // when it was due (== send_ns in a closed loop)
  int64_t send_ns = 0;
  int64_t recv_ns = 0;
  uint64_t code = 0;     // generator index the query was built from
  bool expected = false;
  bool answered = false;
  bool ok = false;       // decided, status OK
};

struct Tally {
  int64_t wrong = 0;
  std::string first_wrong;
};

/// The per-connection request source: fills the query for request `id`
/// and returns its generator code.
using NextQuery = std::function<uint64_t(uint64_t id, Query* query)>;

/// Applies one frame.  False on a protocol violation (unknown or repeated
/// response id, ERROR frame); STATS_JSON frames are ignored.
bool Apply(const serve::Frame& frame, std::vector<Req>* reqs, Tally* tally,
           bool* was_response, std::string* error) {
  *was_response = false;
  if (frame.type == serve::FrameType::kStatsJson) return true;
  if (frame.type != serve::FrameType::kResponse) {
    *error = "unexpected frame type " +
             std::to_string(static_cast<int>(frame.type));
    return false;
  }
  serve::ResponseFrame resp;
  if (!serve::DecodeResponse(frame.payload, &resp, error)) return false;
  if (resp.request_id >= reqs->size() || (*reqs)[resp.request_id].answered) {
    *error = "response for unknown or already answered request " +
             std::to_string(resp.request_id);
    return false;
  }
  Req& r = (*reqs)[resp.request_id];
  r.answered = true;
  r.recv_ns = NowNs();
  *was_response = true;
  if (resp.status == serve::WireStatus::kOk) {
    r.ok = true;
    if (resp.contained != r.expected) {
      if (tally->wrong++ == 0) {
        tally->first_wrong = "request " + std::to_string(resp.request_id) +
                             " (code " + std::to_string(r.code) + ")";
      }
    }
  }
  return true;
}

bool SendQuery(Connection* conn, std::vector<Req>* reqs, const NextQuery& next,
               int64_t sched_ns, std::string* error) {
  const uint64_t id = reqs->size();
  Query q;
  Req r;
  r.code = next(id, &q);
  r.expected = q.expected;
  r.sched_ns = sched_ns;
  r.send_ns = NowNs();
  reqs->push_back(r);
  return conn->Send(serve::EncodeQuery(id, q.mode, q.p, q.q), error);
}

/// Closed loop: keeps `window` requests outstanding until `t_end`, then
/// collects the tail.  With `t_end` < 0 it sends exactly `count` requests.
bool ClosedLoop(Connection* conn, int window, int64_t t_end, size_t count,
                const NextQuery& next, std::vector<Req>* reqs, Tally* tally,
                std::string* error) {
  size_t outstanding = 0;
  while (true) {
    while (outstanding < static_cast<size_t>(window) &&
           (t_end >= 0 ? NowNs() < t_end : reqs->size() < count)) {
      const int64_t now = NowNs();
      if (!SendQuery(conn, reqs, next, now, error)) return false;
      ++outstanding;
    }
    if (outstanding == 0) return true;
    serve::Frame frame;
    const int pr = conn->Poll(&frame, kDrainTimeoutNs, error);
    if (pr <= 0) {
      if (pr == 0) *error = "no response within the drain timeout";
      return false;
    }
    bool was_response = false;
    if (!Apply(frame, reqs, tally, &was_response, error)) return false;
    if (was_response) --outstanding;
  }
}

/// Open loop at `rate_per_s` from `t_start` until `t_end`; request i is due
/// at t_start + i / rate and is timed from then.  `late_ns` receives how
/// late each send ran.
bool OpenLoop(Connection* conn, double rate_per_s, int64_t t_start,
              int64_t t_end, const NextQuery& next, std::vector<Req>* reqs,
              Tally* tally, std::vector<int64_t>* late_ns,
              std::string* error) {
  const double period_ns = 1e9 / rate_per_s;
  size_t outstanding = 0;
  while (true) {
    const int64_t due =
        t_start + static_cast<int64_t>(period_ns * static_cast<double>(
                                                       reqs->size()));
    const bool sending = due < t_end;
    const int64_t now = NowNs();
    if (sending && now >= due) {
      if (!SendQuery(conn, reqs, next, due, error)) return false;
      late_ns->push_back(reqs->back().send_ns - due);
      ++outstanding;
      continue;
    }
    if (!sending && outstanding == 0) return true;
    serve::Frame frame;
    const int pr =
        conn->Poll(&frame, sending ? due - now : kDrainTimeoutNs, error);
    if (pr < 0) return false;
    if (pr == 0) {
      if (!sending) {
        *error = "no response within the drain timeout";
        return false;
      }
      continue;
    }
    bool was_response = false;
    if (!Apply(frame, reqs, tally, &was_response, error)) return false;
    if (was_response) --outstanding;
  }
}

/// Failure accounting over the window starting at `t0`: requests due in
/// the window are attempted; those not answered OK failed.
struct WindowCount {
  int64_t attempted = 0;
  int64_t failed = 0;
};

WindowCount Count(const std::vector<Req>& reqs, int64_t t0) {
  WindowCount c;
  for (const Req& r : reqs) {
    if (r.sched_ns < t0) continue;
    ++c.attempted;
    if (!r.ok) ++c.failed;
  }
  return c;
}

// ------------------------------------------------------------ daemon runs

std::string SocketPath(const RunConfig& config, int index) {
  return config.run_dir + "/s" + std::to_string(getpid()) + "_" +
         std::to_string(index) + ".sock";
}

/// A launched daemon and its two client connections.
struct Live {
  Daemon daemon;
  Connection conn[2];
  std::string socket;

  bool Launch(const RunConfig& config, int index,
              const std::vector<std::string>& args,
              const std::array<std::string, 2>& tenants, std::string* error) {
    socket = SocketPath(config, index);
    unlink(socket.c_str());
    if (!daemon.Start(config.serve_binary, socket, args,
                      config.run_dir + "/tpc_serve.log", error)) {
      return false;
    }
    const int64_t deadline = NowNs() + kConnectTimeoutNs;
    for (int c = 0; c < 2; ++c) {
      if (!conn[c].Connect(socket, tenants[c], deadline, error)) return false;
    }
    return true;
  }

  bool Shutdown(int64_t* peak_rss_kb, std::string* error) {
    conn[0].Close();
    conn[1].Close();
    int64_t rss = 0;
    const bool ok = daemon.Stop(&rss, error);
    if (peak_rss_kb != nullptr) *peak_rss_kb = rss;
    unlink(socket.c_str());
    return ok;
  }
};

/// Runs `count` requests from `next` on `conn` with `window` outstanding
/// and fails on any wrong or missing verdict (warm-up and priming passes).
bool CheckedPass(Connection* conn, size_t count, int window,
                 const NextQuery& next, const char* what,
                 std::string* error) {
  std::vector<Req> reqs;
  Tally tally;
  if (!ClosedLoop(conn, window, -1, count, next, &reqs, &tally, error)) {
    *error = std::string(what) + ": " + *error;
    return false;
  }
  for (const Req& r : reqs) {
    if (!r.ok) {
      *error = std::string(what) + ": request " + std::to_string(r.code) +
               " not decided";
      return false;
    }
  }
  if (tally.wrong > 0) {
    *error = std::string(what) + ": wrong verdict on " + tally.first_wrong;
    return false;
  }
  return true;
}

// ------------------------------------------------------------ traced replay

/// One unit of the replay: a lone request, or a heavy run decided as one
/// coalesced group (the daemon's dequeue window does the same).
struct ReplayInput {
  std::vector<std::string> frames;  // QUERY frames, as sent
  std::vector<bool> expected;
  std::vector<std::vector<size_t>> units;
  std::vector<std::string> warmup;  // QUERY frames decided before timing
  std::string snapshot;             // loaded first when nonempty
};

struct ReplayOutput {
  int64_t requests = 0;
  int64_t wall_ns = 0;  // request loop, probe spans excluded
  int64_t wrong = 0;
  int64_t steps = 0;
  int64_t bytes_peak = 0;
  std::map<std::string, int64_t> answered_by;
  int64_t probed_busy_ns = 0;   // contains_for time of probed units
  int64_t probed_sweep_ns = 0;  // contain.sweep time of probed units
  int64_t trees = 0;  // canonical trees built by the SweepBank probes
  int64_t evals = 0;  // member evaluations over those trees
};

/// Re-runs the grouped canonical sweep of weak members `qs` (sharing `p`
/// and one `CanonicalBound`) through the library's own `SweepBank`, as
/// `ContainsGroup` drives it, so tree builds and member evaluations can be
/// timed apart: one `CanonicalTreeBuilder`/enumerator pass, each tree
/// evaluated by `EvalMember` for every member still undecided, a member
/// retired at its first counterexample, the pass over once none is left.
void BankSweep(const Tpq& p, const std::vector<const Tpq*>& qs, int32_t bound,
               LabelPool* pool, Tracer* tracer, ReplayOutput* out) {
  EngineContext ctx;
  const int32_t parent = tracer->Begin("contain.sweep_decomposed", -1);
  tpc::SweepBank bank;
  for (const Tpq* q : qs) {
    std::shared_ptr<const tpc::MatcherProgram> program;
    {
      ScopedSpan span(tracer, "compile.compile", -1);
      program = tpc::MatcherProgram::Compile(*q, &ctx.budget());
    }
    bank.AddMember(q, std::move(program));
  }
  tpc::CanonicalTreeBuilder builder(p, pool->Fresh("_bot"));
  tpc::CanonicalLengthEnumerator lengths(builder.num_spines(), bound);
  const bool word_parallel = tpc::ContainmentOptions{}.word_parallel;
  std::vector<char> undecided(qs.size(), 1);
  size_t live = qs.size();
  tpc::Tree tree;
  int64_t build_ns = 0, eval_ns = 0;
  bool fresh = true;
  do {
    const size_t first = lengths.first_changed();
    const bool suffix = !fresh && first < builder.num_spines();
    const int64_t a = NowNs();
    if (suffix) {
      builder.BuildSuffix(lengths.lengths(), first, &tree);
    } else {
      builder.BuildFull(lengths.lengths(), &tree);
    }
    const int64_t b = NowNs();
    const tpc::NodeId stable = suffix ? builder.spine_start(first) : 0;
    for (size_t i = 0; i < qs.size(); ++i) {
      if (!undecided[i]) continue;
      // The probe's budget is unlimited, so the charge always succeeds.
      (void)bank.ChargeMember(i, tree, &ctx.budget());
      if (!bank.EvalMember(i, tree, suffix, stable, /*strong=*/false,
                           word_parallel, &ctx.stats())) {
        undecided[i] = 0;
        --live;
      }
      ++out->evals;
    }
    eval_ns += NowNs() - b;
    build_ns += b - a;
    ++out->trees;
    fresh = false;
  } while (live > 0 && lengths.Next());
  tracer->AddAggregate("contain.tree_build", parent, build_ns);
  tracer->AddAggregate("compile.eval", parent, eval_ns);
  tracer->End(parent);
}

std::optional<Tpq> ParseSpan(Tracer* tracer, const std::string& text,
                             LabelPool* pool, int64_t request) {
  ScopedSpan span(tracer, "pattern.parse", request);
  tpc::ParseDiagnostic diag;
  return tpc::ParseTpqChecked(text, pool, &diag);
}

const char* AnsweredBy(const tpc::EngineStats& s,
                       const ContainmentResult& r) {
  auto v = [](const std::atomic<int64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  if (v(s.cache_hits) > 0) return "cache";
  if (v(s.lattice_stitch_hits) + v(s.witness_borrow_refutes) > 0) {
    return "lattice";
  }
  if (v(s.prefilter_accepts) + v(s.prefilter_refutes) > 0) return "prefilter";
  return r.algorithm == ContainmentAlgorithm::kCanonicalEnumeration ? "sweep"
                                                                     : "p_route";
}

/// One replay pass over `in` on a fresh service.  With `probes`, the first
/// kProbeUnits units are followed by probe spans that re-run their layer
/// pieces (minimize+hash, witness replay, the residue sweep and its
/// decomposition); probe time is excluded from `wall_ns`.
bool ReplayPass(const ReplayInput& in, Tracer* tracer, bool probes,
                ReplayOutput* out, std::string* error) {
  LabelPool pool;
  EngineContext service_ctx;
  QueryService service(&pool, &service_ctx);
  if (!in.snapshot.empty()) {
    ScopedSpan span(tracer, "persist.load", -1);
    if (!service.LoadSnapshot(in.snapshot, error)) return false;
  }
  std::vector<std::unique_ptr<EngineContext>> ctxs;
  for (int i = 0; i < ConpMix::kRun; ++i) {
    ctxs.push_back(std::make_unique<EngineContext>());
  }
  auto decode = [&](const std::string& bytes, serve::QueryFrame* q) {
    serve::FrameReader reader;
    reader.Feed(bytes.data(), bytes.size());
    serve::Frame frame;
    return reader.Poll(&frame, error) == serve::FrameReader::Result::kFrame &&
           serve::DecodeQuery(frame.payload, q, error);
  };
  for (const std::string& bytes : in.warmup) {
    serve::QueryFrame q;
    if (!decode(bytes, &q)) return false;
    tpc::ParseDiagnostic diag;
    std::optional<Tpq> p = tpc::ParseTpqChecked(q.p, &pool, &diag);
    std::optional<Tpq> qq = tpc::ParseTpqChecked(q.q, &pool, &diag);
    if (!p || !qq) {
      *error = "replay warm-up: unparsable pattern";
      return false;
    }
    ctxs[0]->ResetBudget();
    service.ContainsFor(*p, *qq, q.mode, ctxs[0].get());
  }

  int64_t probe_ns = 0;
  const int64_t t0 = NowNs();
  for (size_t u = 0; u < in.units.size(); ++u) {
    const std::vector<size_t>& unit = in.units[u];
    const int64_t rid = static_cast<int64_t>(unit.front());
    std::vector<serve::QueryFrame> frames(unit.size());
    std::vector<Tpq> ps, qs;
    std::vector<ContainmentResult> results;
    int64_t busy_ns = 0;
    {
      ScopedSpan request(tracer, "request", rid);
      for (size_t i = 0; i < unit.size(); ++i) {
        {
          ScopedSpan span(tracer, "serve.frame_decode", rid);
          if (!decode(in.frames[unit[i]], &frames[i])) return false;
        }
        std::optional<Tpq> p = ParseSpan(tracer, frames[i].p, &pool, rid);
        std::optional<Tpq> q = ParseSpan(tracer, frames[i].q, &pool, rid);
        if (!p || !q) {
          *error = "replay: unparsable pattern";
          return false;
        }
        ps.push_back(std::move(*p));
        qs.push_back(std::move(*q));
        ctxs[i]->stats().Reset();
        ctxs[i]->ResetBudget();
      }
      const int64_t b0 = NowNs();
      {
        ScopedSpan span(tracer, "service.contains_for", rid);
        if (unit.size() == 1) {
          results.push_back(service.ContainsFor(ps[0], qs[0], frames[0].mode,
                                                ctxs[0].get()));
        } else {
          std::vector<QueryService::GroupQuery> group;
          for (size_t i = 0; i < unit.size(); ++i) {
            group.push_back({&ps[i], &qs[i], frames[i].mode, ctxs[i].get()});
          }
          results = service.ContainsGroupFor(group);
        }
      }
      busy_ns = NowNs() - b0;
    }
    for (size_t i = 0; i < unit.size(); ++i) {
      ++out->requests;
      if (results[i].outcome != tpc::Outcome::kDecided ||
          results[i].contained != in.expected[unit[i]]) {
        ++out->wrong;
      }
      ++out->answered_by[AnsweredBy(ctxs[i]->stats(), results[i])];
      out->steps += ctxs[i]->budget().steps_used();
      out->bytes_peak =
          std::max<int64_t>(out->bytes_peak, ctxs[i]->budget().bytes_peak());
    }
    if (!probes || u >= kProbeUnits) continue;

    const int64_t pb = NowNs();
    ScopedSpan probe(tracer, "probe", rid);
    EngineContext pctx;
    std::vector<Tpq> pm, qm;
    for (size_t i = 0; i < unit.size(); ++i) {
      const tpc::Mode mode = frames[i].mode;
      for (int side = 0; side < 2; ++side) {
        ScopedSpan span(tracer, "service.minimize_hash", rid);
        const Tpq& raw = side == 0 ? ps[i] : qs[i];
        Tpq min = tpc::MinimizeTpq(raw, mode, &pool, &pctx);
        (void)tpc::CanonicalTpqDigest(min);
        (side == 0 ? pm : qm).push_back(std::move(min));
      }
    }
    std::vector<size_t> residue;
    for (size_t i = 0; i < unit.size(); ++i) {
      const char* by = AnsweredBy(ctxs[i]->stats(), results[i]);
      if (std::string_view(by) == "sweep") residue.push_back(i);
      if (std::string_view(by) == "cache" && !results[i].contained &&
          results[i].counterexample_lengths.has_value()) {
        ScopedSpan span(tracer, "service.replay", rid);
        (void)tpc::ReplayRefutation(pm[i], qm[i], frames[i].mode,
                                    *results[i].counterexample_lengths, &pool,
                                    &pctx);
      }
    }
    out->probed_busy_ns += busy_ns;
    if (!residue.empty()) {
      const int64_t s0 = NowNs();
      {
        ScopedSpan span(tracer, "contain.sweep", rid);
        tpc::ContainmentOptions options;
        options.sequential_sweep = true;
        std::vector<EngineContext> mctx(residue.size());
        std::vector<tpc::GroupMember> members;
        for (size_t k = 0; k < residue.size(); ++k) {
          members.push_back({&qm[residue[k]], &mctx[k]});
        }
        (void)tpc::ContainsGroup(pm[residue[0]], members,
                                 frames[residue[0]].mode, &pool, &pctx,
                                 options);
      }
      out->probed_sweep_ns += NowNs() - s0;
      // The weak residue again through the SweepBank, one bank per
      // canonical bound (the grouped sweep partitions the same way).
      std::vector<Tpq> qn;
      for (size_t i : residue) qn.push_back(tpc::Normalize(qm[i]));
      std::map<int32_t, std::vector<const Tpq*>> by_bound;
      for (size_t k = 0; k < residue.size(); ++k) {
        if (frames[residue[k]].mode != tpc::Mode::kWeak) continue;
        by_bound[tpc::CanonicalBound(
                     qn[k], tpc::ContainmentOptions::Bound::kSafe)]
            .push_back(&qn[k]);
      }
      for (const auto& [bound, qs] : by_bound) {
        BankSweep(pm[residue[0]], qs, bound, &pool, tracer, out);
      }
    }
    probe_ns += NowNs() - pb;
  }
  out->wall_ns = NowNs() - t0 - probe_ns;
  return true;
}

/// Fills the traced-run layer metrics from an untraced and a traced replay
/// of `in`.
bool TracedReplay(const RunConfig& config, const ReplayInput& in,
                  RunResult* result, std::string* error) {
  Tracer off(false);
  ReplayOutput plain;
  if (!ReplayPass(in, &off, false, &plain, error)) return false;
  Tracer tracer(true);
  ReplayOutput traced;
  if (!ReplayPass(in, &tracer, true, &traced, error)) return false;
  if (plain.wrong + traced.wrong > 0) {
    result->correct = false;
    *error = "traced replay: wrong verdict";
    return false;
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
  auto self_total = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.self_ns);
  };
  std::map<std::string, double>& m = result->layer;
  m["serve.frame_decode_ns"] = self_per_call("serve.frame_decode", 1);
  m["pattern.parse_ns"] = self_per_call("pattern.parse", 1);
  m["service.contains_for_us"] =
      Ratio(self_total("service.contains_for"),
            static_cast<double>(traced.requests)) /
      1e3;
  m["service.minimize_hash_ns"] = self_per_call("service.minimize_hash", 1);
  m["service.replay_ns"] = self_per_call("service.replay", 1);
  m["contain.sweep_us"] = self_per_call("contain.sweep", 1e3);
  m["contain.tree_build_ns"] =
      Ratio(self_total("contain.tree_build"), static_cast<double>(traced.trees));
  m["compile.compile_ns"] = self_per_call("compile.compile", 1);
  m["compile.eval_ns_per_tree"] =
      Ratio(self_total("compile.eval"), static_cast<double>(traced.evals));
  m["contain.sweep_share_of_busy"] =
      Ratio(static_cast<double>(traced.probed_sweep_ns),
            static_cast<double>(traced.probed_busy_ns));
  m["persist.load_ms"] = self_per_call("persist.load", 1e6);
  m["engine.steps_per_decision"] = Ratio(static_cast<double>(traced.steps),
                                         static_cast<double>(traced.requests));
  m["engine.bytes_peak_mb"] =
      static_cast<double>(traced.bytes_peak) / (1024.0 * 1024.0);
  // Tracer overhead: replay throughput with spans over replay throughput
  // without (same requests, same fresh-service warm-up).
  const double plain_vps = Ratio(static_cast<double>(plain.requests),
                                 static_cast<double>(plain.wall_ns) / 1e9);
  const double traced_vps = Ratio(static_cast<double>(traced.requests),
                                  static_cast<double>(traced.wall_ns) / 1e9);
  m["trace.overhead_ratio"] = Ratio(traced_vps, plain_vps);
  for (const auto& [by, n] : traced.answered_by) {
    std::fprintf(stderr, "  replay answered_by %-10s %lld\n", by.c_str(),
                 static_cast<long long>(n));
  }
  return true;
}

/// Counter-derived layer metrics from the window's STATS_JSON deltas.
/// `latency_tenant` is the tenant whose latency the workload reports,
/// `throughput_tenant` the one whose verdicts it counts.
void CounterLayers(const StatsDelta& d, const std::vector<std::string>& tenants,
                   const std::string& latency_tenant,
                   const std::string& throughput_tenant,
                   double mean_round_trip_us, RunResult* result) {
  std::map<std::string, double>& m = result->layer;
  double completed = 0, admitted = 0, shed = 0, groups = 0, members = 0;
  for (const std::string& t : tenants) {
    completed += d.Tenant(t, "completed");
    admitted += d.Tenant(t, "admitted");
    shed += d.Tenant(t, "shed");
    groups += d.Tenant(t, "sweep_groups");
    members += d.Tenant(t, "group_members");
  }
  const double lat_done = d.Tenant(latency_tenant, "completed");
  const double queue_us =
      Ratio(d.Tenant(latency_tenant, "queue_wait_ns"), lat_done) / 1e3;
  m["serve.queue_wait_us"] = queue_us;
  m["serve.decide_us"] =
      Ratio(d.Tenant(throughput_tenant, "decide_ns"),
            d.Tenant(throughput_tenant, "completed")) /
      1e3;
  m["serve.shed_share"] = Ratio(shed, admitted + shed);
  m["serve.group_size_mean"] = Ratio(members, groups);
  m["serve.wire_us"] =
      mean_round_trip_us - queue_us -
      Ratio(d.Tenant(latency_tenant, "decide_ns"), lat_done) / 1e3;

  const double hits = d.Engine("cache_hits");
  const double lattice =
      d.Engine("lattice_stitch_hits") + d.Engine("witness_borrow_refutes");
  m["service.cache_hit_share"] = Ratio(hits, completed);
  m["service.lattice_answer_share"] = Ratio(lattice, completed);
  m["service.prefilter_useful_share"] =
      Ratio(d.Engine("prefilter_accepts") + d.Engine("prefilter_refutes"),
            completed - hits - lattice);
  m["service.cache_evictions_per_1k"] =
      Ratio(d.Engine("cache_evictions"), completed) * 1e3;

  double dispatched = 0;
  for (int i = 0; i < tpc::kNumDispatchAlgorithms; ++i) {
    dispatched += d.Engine(tpc::kDispatchAlgorithmNames[i]);
  }
  for (int i = 0; i < tpc::kNumDispatchAlgorithms; ++i) {
    m[std::string("contain.route.") + tpc::kDispatchAlgorithmNames[i]] =
        Ratio(d.Engine(tpc::kDispatchAlgorithmNames[i]), dispatched);
  }
  const double sweeps = d.Engine("canonical_enumeration");
  const double trees = d.Engine("canonical_trees_enumerated");
  m["contain.trees_per_sweep"] = Ratio(trees, sweeps);
  m["contain.rebuilds_per_decision"] =
      Ratio(d.Engine("trees_rebuilt_from_spine"), sweeps);
  m["contain.trees_shared_per_decision"] =
      Ratio(d.Engine("trees_shared_per_decision"), sweeps);
  m["contain.retired_early_share"] =
      Ratio(d.Engine("group_members_retired_early"),
            d.Engine("sweep_group_members"));
  m["compile.programs_compiled_per_1k"] =
      Ratio(d.Engine("programs_compiled"), completed) * 1e3;
  // Tree evaluations: the matcher's own (compiled or generic), plus the two
  // compiled runs per refutation the service replays over a mapped
  // snapshot tree, which bypass the matcher's counter.
  m["compile.exec_hit_share"] =
      Ratio(d.Engine("program_exec_hits"),
            d.Engine("embeddings_attempted") +
                2 * d.Engine("snapshot_trees_mapped"));
  m["match.words_folded_per_tree"] = Ratio(d.Engine("dp_words_folded"), trees);
  m["match.rows_skipped_per_tree"] = Ratio(d.Engine("dp_rows_skipped"), trees);
  const double reused = d.Engine("dp_cells_reused");
  m["match.cells_reused_share"] =
      Ratio(reused, reused + d.Engine("dp_cells_filled"));
}

double MeanRoundTripUs(const std::vector<Req>& reqs, int64_t t0) {
  double sum = 0;
  int64_t n = 0;
  for (const Req& r : reqs) {
    if (r.sched_ns < t0 || !r.ok) continue;
    sum += static_cast<double>(r.recv_ns - r.send_ns);
    ++n;
  }
  return Ratio(sum, static_cast<double>(n)) / 1e3;
}

/// The window cut into slices of `slice_ns` (one slice for shorter
/// windows).  Rates and percentiles are taken per slice and reported at the
/// slices' quiet decile (bench.h), so a burst of interference from the
/// shared machine moves the slices it covers, not the run's figure.
struct Slices {
  int64_t t0 = 0;
  int64_t width = 0;
  size_t count = 1;

  Slices(int64_t start, int64_t end, int64_t slice_ns) : t0(start) {
    width = std::min<int64_t>(slice_ns, end - start);
    count = static_cast<size_t>(std::max<int64_t>(1, (end - start) / width));
  }
  /// Slice index of time `t`, or -1 outside the sliced window.
  int64_t Of(int64_t t) const {
    if (t < t0) return -1;
    const int64_t i = (t - t0) / width;
    return i < static_cast<int64_t>(count) ? i : -1;
  }
};

/// OK responses received per second, per slice, at the slices' quiet
/// decile.
double QuietRate(const std::vector<const std::vector<Req>*>& lists,
                 const Slices& slices) {
  std::vector<double> per_s(slices.count, 0);
  for (const std::vector<Req>* list : lists) {
    for (const Req& r : *list) {
      const int64_t i = slices.Of(r.recv_ns);
      if (r.ok && i >= 0) per_s[i] += 1;
    }
  }
  for (double& v : per_s) v *= 1e9 / static_cast<double>(slices.width);
  return QuietDecile(per_s, /*lower_is_better=*/false);
}

/// Reports latency_p50_us / latency_p99_us: per slice, the percentile of
/// the OK requests due in it (timed from their due time), then the quiet
/// decile over slices.
void ReportLatency(const std::vector<const std::vector<Req>*>& lists,
                   const Slices& slices, RunResult* result) {
  std::vector<std::vector<int64_t>> per(slices.count);
  size_t samples = 0;
  for (const std::vector<Req>* list : lists) {
    for (const Req& r : *list) {
      const int64_t i = slices.Of(r.sched_ns);
      if (r.ok && i >= 0) {
        per[i].push_back(r.recv_ns - r.sched_ns);
        ++samples;
      }
    }
  }
  std::vector<double> p50, p99;
  for (std::vector<int64_t>& v : per) {
    if (v.empty()) continue;
    p50.push_back(Percentile(&v, 0.50));
    p99.push_back(Percentile(&v, 0.99));
  }
  result->e2e["latency_p50_us"] = QuietDecile(p50, true) / 1e3;
  result->e2e["latency_p99_us"] = QuietDecile(p99, true) / 1e3;
  std::fprintf(stderr, "  latency samples: %zu over %zu slices\n", samples,
               slices.count);
}

int64_t FileSize(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size) : 0;
}

}  // namespace

// ---------------------------------------------------------------- zipf-hot

bool RunZipfHot(const RunConfig& config, RunResult* result,
                std::string* error) {
  ZipfHot w(config.seed);
  w.ComputeReferences();
  const size_t distinct = w.pairs().size() * ZipfHot::kVariants;
  const NextQuery every_code = [&](uint64_t id, Query* q) {
    *q = w.QueryFor(static_cast<uint32_t>(id));
    return id;
  };
  const std::array<std::string, 2> tenants = {"zipf", "zipf"};

  // Untimed priming run: decide every (pair, variant) once and save the
  // warm tier the measured daemons start from.
  const std::string snapshot = config.run_dir + "/zipf_" +
                               std::to_string(getpid()) + ".snap";
  {
    Live live;
    if (!live.Launch(config, 0,
                     {"--workers", std::to_string(kWorkers), "--snapshot-save",
                      snapshot},
                     tenants, error) ||
        !CheckedPass(&live.conn[0], distinct, 8, every_code, "priming", error) ||
        !live.Shutdown(nullptr, error)) {
      return false;
    }
  }

  // Set-up, several times: launch with --snapshot-load, connect, warm-up
  // pass over every (pair, variant).  The last daemon stays up.
  std::vector<double> setup_s;
  std::unique_ptr<Live> live;
  for (int s = 0; s < kSetups; ++s) {
    if (live != nullptr && !live->Shutdown(nullptr, error)) return false;
    live = std::make_unique<Live>();
    const int64_t t0 = NowNs();
    if (!live->Launch(config, 1 + s,
                      {"--workers", std::to_string(kWorkers),
                       "--snapshot-load", snapshot},
                      tenants, error) ||
        !CheckedPass(&live->conn[0], distinct, 8, every_code, "warm-up",
                     error)) {
      return false;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  StatsDelta stats;
  if (!live->conn[0].Stats(&stats.before, error)) return false;

  // The timed window: two connections, each a closed loop with four
  // requests outstanding, each fed by its own zipf stream.
  std::vector<Req> reqs[2];
  Tally tally[2];
  std::string errs[2];
  bool ok[2] = {false, false};
  const int64_t t0 = NowNs();
  const int64_t t_end = t0 + static_cast<int64_t>(config.seconds * 1e9);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < 2; ++c) {
      threads.emplace_back([&, c] {
        ZipfHot::Stream stream(w, c);
        reqs[c].reserve(1 << 20);
        const NextQuery next = [&](uint64_t, Query* q) {
          const uint32_t code = stream.Next();
          *q = w.QueryFor(code);
          return static_cast<uint64_t>(code);
        };
        ok[c] = ClosedLoop(&live->conn[c], 4, t_end, 0, next, &reqs[c],
                           &tally[c], &errs[c]);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (int c = 0; c < 2; ++c) {
    if (!ok[c]) {
      *error = "connection " + std::to_string(c) + ": " + errs[c];
      return false;
    }
  }
  if (!live->conn[0].Stats(&stats.after, error)) return false;
  int64_t rss_kb = 0;
  if (!live->Shutdown(&rss_kb, error)) return false;

  WindowCount count;
  for (int c = 0; c < 2; ++c) {
    const WindowCount wc = Count(reqs[c], t0);
    count.attempted += wc.attempted;
    count.failed += wc.failed;
    if (tally[c].wrong > 0) {
      result->correct = false;
      std::fprintf(stderr, "wrong verdict: %s\n", tally[c].first_wrong.c_str());
    }
  }
  const Slices slices(t0, t_end, kSecond);
  result->attempted = count.attempted;
  result->failed = count.failed;
  result->e2e["setup_s"] = Median(setup_s);
  result->e2e["verdicts_per_s"] = QuietRate({&reqs[0], &reqs[1]}, slices);
  ReportLatency({&reqs[0], &reqs[1]}, slices, result);
  result->e2e["peak_rss_mb"] = static_cast<double>(rss_kb) / 1024.0;

  if (config.trace) {
    std::vector<Req> all = reqs[0];
    all.insert(all.end(), reqs[1].begin(), reqs[1].end());
    std::sort(all.begin(), all.end(), [](const Req& a, const Req& b) {
      return a.send_ns < b.send_ns;
    });
    CounterLayers(stats, {"zipf"}, "zipf", "zipf",
                  (MeanRoundTripUs(reqs[0], t0) + MeanRoundTripUs(reqs[1], t0)) /
                      2,
                  result);
    result->layer["persist.snapshot_bytes"] =
        static_cast<double>(FileSize(snapshot));
    ReplayInput in;
    in.snapshot = snapshot;
    for (size_t i = 0; i < distinct; ++i) {
      const Query& q = w.QueryFor(static_cast<uint32_t>(i));
      in.warmup.push_back(serve::EncodeQuery(i, q.mode, q.p, q.q));
    }
    for (size_t i = 0; i < all.size() && i < kReplayRequests; ++i) {
      const Query& q = w.QueryFor(static_cast<uint32_t>(all[i].code));
      in.frames.push_back(serve::EncodeQuery(i, q.mode, q.p, q.q));
      in.expected.push_back(q.expected);
      in.units.push_back({i});
    }
    if (!TracedReplay(config, in, result, error)) return false;
  }
  unlink(snapshot.c_str());
  return true;
}

// ---------------------------------------------------------------- conp-mix

bool RunConpMix(const RunConfig& config, RunResult* result,
                std::string* error) {
  ConpMix w(config.seed);
  w.ComputeReferences();
  const std::array<std::string, 2> tenants = {"heavy", "light"};
  const std::vector<std::string> args = {"--workers",
                                         std::to_string(kWorkers)};
  const std::vector<std::array<Query, ConpMix::kRun>> warm_runs =
      w.WarmupRuns();
  const NextQuery warm_heavy = [&](uint64_t id, Query* q) {
    *q = warm_runs[id / ConpMix::kRun][id % ConpMix::kRun];
    return id;
  };
  const NextQuery warm_light = [&](uint64_t id, Query* q) {
    *q = w.Light(id);
    return id;
  };

  // Set-up, several times: launch, connect both tenants, warm-up pass (the
  // fixed warm-up runs on the heavy connection, light pairs on the light).
  std::vector<double> setup_s;
  std::unique_ptr<Live> live;
  for (int s = 0; s < kSetups; ++s) {
    if (live != nullptr && !live->Shutdown(nullptr, error)) return false;
    live = std::make_unique<Live>();
    const int64_t t0 = NowNs();
    if (!live->Launch(config, s, args, tenants, error) ||
        !CheckedPass(&live->conn[0], warm_runs.size() * ConpMix::kRun, 8,
                     warm_heavy, "warm-up (heavy)", error) ||
        !CheckedPass(&live->conn[1], 64, 4, warm_light, "warm-up (light)",
                     error)) {
      return false;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  StatsDelta stats;
  if (!live->conn[0].Stats(&stats.before, error)) return false;

  // The timed window: the heavy tenant's closed loop (8 outstanding, runs
  // of 4 sharing p) and the light tenant's open loop, one thread each.
  std::vector<Req> heavy, light;
  Tally heavy_tally, light_tally;
  std::vector<int64_t> late_ns;
  std::string heavy_err, light_err;
  bool heavy_ok = false, light_ok = false;
  const int64_t t0 = NowNs();
  const int64_t t_end = t0 + static_cast<int64_t>(config.seconds * 1e9);
  {
    std::thread heavy_thread([&] {
      std::array<Query, ConpMix::kRun> run;
      uint64_t run_k = UINT64_MAX;
      const NextQuery next = [&](uint64_t id, Query* q) {
        if (id / ConpMix::kRun != run_k) {
          run_k = id / ConpMix::kRun;
          run = w.HeavyRun(run_k);
        }
        *q = run[id % ConpMix::kRun];
        return id;
      };
      heavy.reserve(1 << 16);
      heavy_ok = ClosedLoop(&live->conn[0], 8, t_end, 0, next, &heavy,
                            &heavy_tally, &heavy_err);
    });
    std::thread light_thread([&] {
      const NextQuery next = [&](uint64_t id, Query* q) {
        *q = w.Light(id);
        return id;
      };
      light.reserve(1 << 16);
      light_ok = OpenLoop(&live->conn[1], ConpMix::kLightRatePerS, t0, t_end,
                          next, &light, &light_tally, &late_ns, &light_err);
    });
    heavy_thread.join();
    light_thread.join();
  }
  if (!heavy_ok || !light_ok) {
    *error = heavy_ok ? "light connection: " + light_err
                      : "heavy connection: " + heavy_err;
    return false;
  }
  if (!live->conn[0].Stats(&stats.after, error)) return false;
  int64_t rss_kb = 0;
  if (!live->Shutdown(&rss_kb, error)) return false;

  const double late_p99_ns = Percentile(&late_ns, 0.99);
  if (late_p99_ns > kMaxLatePeriods * 1e9 / ConpMix::kLightRatePerS) {
    *error = "the open-loop sender fell behind (late p99 " +
             std::to_string(late_p99_ns / 1e3) + " us)";
    return false;
  }
  const WindowCount hc = Count(heavy, t0);
  const WindowCount lc = Count(light, t0);
  for (const Tally* t : {&heavy_tally, &light_tally}) {
    if (t->wrong > 0) {
      result->correct = false;
      std::fprintf(stderr, "wrong verdict: %s\n", t->first_wrong.c_str());
    }
  }
  result->attempted = hc.attempted + lc.attempted;
  result->failed = hc.failed + lc.failed;
  result->e2e["setup_s"] = Median(setup_s);
  // Heavy throughput per 1 s slice; the light percentiles per slice of
  // kLightSliceNs, long enough that each p99 has a few samples behind it.
  result->e2e["verdicts_per_s"] =
      QuietRate({&heavy}, Slices(t0, t_end, kSecond));
  ReportLatency({&light}, Slices(t0, t_end, kLightSliceNs), result);
  result->e2e["peak_rss_mb"] = static_cast<double>(rss_kb) / 1024.0;
  std::fprintf(stderr, "  heavy runs sent: %zu\n",
               heavy.size() / ConpMix::kRun);

  if (config.trace) {
    CounterLayers(stats, {"heavy", "light"}, "light", "heavy",
                  MeanRoundTripUs(light, t0), result);
    result->layer["loadgen.late_p99_us"] = late_p99_ns / 1e3;
    // Replay units: each heavy run as one coalesced group, each light
    // request alone, in send order, up to kReplayHeavyRuns runs.
    ReplayInput in;
    for (size_t i = 0; i < 64; ++i) {
      const Query& q = w.Light(i);
      in.warmup.push_back(serve::EncodeQuery(i, q.mode, q.p, q.q));
    }
    size_t h = 0, l = 0;
    while (h + ConpMix::kRun <= heavy.size() &&
           h / ConpMix::kRun < kReplayHeavyRuns) {
      if (l < light.size() && light[l].send_ns < heavy[h].send_ns) {
        const Query& q = w.Light(light[l].code);
        in.units.push_back({in.frames.size()});
        in.frames.push_back(
            serve::EncodeQuery(in.frames.size(), q.mode, q.p, q.q));
        in.expected.push_back(q.expected);
        ++l;
        continue;
      }
      const std::array<Query, ConpMix::kRun> run =
          w.HeavyRun(heavy[h].code / ConpMix::kRun);
      std::vector<size_t> unit;
      for (const Query& q : run) {
        unit.push_back(in.frames.size());
        in.frames.push_back(
            serve::EncodeQuery(in.frames.size(), q.mode, q.p, q.q));
        in.expected.push_back(q.expected);
      }
      in.units.push_back(std::move(unit));
      h += ConpMix::kRun;
    }
    if (!TracedReplay(config, in, result, error)) return false;
  }
  return true;
}

}  // namespace e2e
