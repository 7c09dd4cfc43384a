// Command-line front end to the library's decision procedures.
//
// Usage:
//   tpc_cli [flags] contain  <p> <q> [weak|strong]
//   tpc_cli [flags] contain  <p> <q> <dtd> [weak|strong]
//   tpc_cli [flags] sat      <p> <dtd> [weak|strong]
//   tpc_cli [flags] valid    <q> <dtd> [weak|strong]
//   tpc_cli [flags] minimize <q>
//   tpc_cli [flags] match    <q> <tree> [weak|strong]
//   tpc_cli [flags] --batch  <file>
//
// Batch mode decides one containment pair per line of <file> ("<p> <q>
// [weak|strong]"; blank lines and #-comments skipped) through the query
// service (src/service): canonical-hash verdict cache, prefilter cascade,
// duplicate folding, a parallel fan-out under --threads, and one grouped
// canonical-model sweep per enumeration-side pattern for the pairs no
// fast-path layer answers.  One verdict is
// printed per line; the exit status is 0 when every pair was decided
// (regardless of verdicts), 3 when any was undecided.
//
// Flags (anywhere on the command line):
//   --stats          print the engine's instrumentation counters as JSON
//                    (includes steps/bytes used and the exhaustion reason);
//                    a batch run first prints one coalescing summary line
//                    (groups formed, mean size, early-retire rate)
//   --batch <file>   decide many pairs through the query service
//   --no-cache       batch A/B: disable minimize+hash+verdict-cache layer
//   --no-prefilter   batch A/B: disable homomorphism/probe prefilters
//   --timeout <ms>   wall-clock budget; exceeding it exits 3 (UNDECIDED)
//   --steps <n>      step budget; exceeding it exits 3 (UNDECIDED)
//   --memory <bytes> tracked-memory budget; exceeding it exits 3 (UNDECIDED)
//   --threads <n>    worker threads for canonical sweeps and schema rounds
//   --no-antichain   disable the schema engine's subsumption pruning (A/B)
//   --fault-exhaust-at <n> / --fault-alloc-at <k> / --fault-cancel-at <n>
//                    deterministic fault injection (chaos drills): force
//                    budget exhaustion at the nth charge, fail the kth
//                    tracked allocation, or cancel at the nth charge
//
// SIGINT (Ctrl-C) and SIGTERM request cooperative cancellation: the decision
// in flight unwinds at its next budget charge and the run exits 3 with
// reason "cancelled" instead of dying mid-computation (the same helper wires
// tpc_serve's graceful drain; see serve/signals.h).  UNDECIDED lines carry
// the stable wire code and retryable bit from the error-code table in
// README.md, so scripts driving the CLI and clients of the daemon key retry
// policies on the same numbers.
//
// Malformed patterns/trees/DTDs exit 2 with a line/column diagnostic.
//
// Patterns use XPath-like syntax (a/b//*[c]); trees use term syntax
// (a(b,c(d))); DTDs use clause syntax ("root: a; a -> b c*; b -> eps;").
//
// Examples:
//   tpc_cli contain 'a/b' 'a//b'
//   tpc_cli contain 'a//c' 'a/b' 'root: a; a -> b c?; b -> eps; c -> eps;'
//   tpc_cli sat 'a[b][c]' 'root: a; a -> b | c;'
//   tpc_cli --stats --threads 4 contain 'a//b//c//d' 'a//b//c//d'
//   tpc_cli minimize 'a[b][b/c]'
//   tpc_cli --stats --threads 4 --batch pairs.txt

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/label.h"
#include "contain/containment.h"
#include "contain/minimize.h"
#include "dtd/dtd.h"
#include "engine/engine.h"
#include "compile/sweep_bank.h"
#include "pattern/tpq_parser.h"
#include "schema/schema_engine.h"
#include "serve/protocol.h"
#include "serve/signals.h"
#include "service/query_service.h"
#include "tree/tree_parser.h"

using namespace tpc;

namespace {

/// Exit status for a run that hit its resource budget before the answer was
/// certain (distinct from yes=0 / no=1 / usage-or-parse-error=2).
constexpr int kExitUndecided = 3;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  tpc_cli [flags] contain  <p> <q> [<dtd>] [weak|strong]\n"
               "  tpc_cli [flags] sat      <p> <dtd> [weak|strong]\n"
               "  tpc_cli [flags] valid    <q> <dtd> [weak|strong]\n"
               "  tpc_cli [flags] minimize <q>\n"
               "  tpc_cli [flags] match    <q> <tree> [weak|strong]\n"
               "  tpc_cli [flags] --batch  <file>\n"
               "flags:\n"
               "  --stats          print engine counters as JSON\n"
               "  --batch <file>   decide '<p> <q> [weak|strong]' pairs, one\n"
               "                   per line, through the query service\n"
               "  --no-cache       batch: disable the verdict-cache layer\n"
               "  --no-prefilter   batch: disable the prefilter cascade\n"
               "  --no-lattice     batch: disable the subsumption lattice\n"
               "                   (stitch/borrow derivation of cache misses)\n"
               "  --snapshot-load <file>  batch: warm-start the service from\n"
               "                   a snapshot before deciding (a bad file\n"
               "                   warns and starts cold)\n"
               "  --snapshot-save <file>  batch: persist the warm tier after\n"
               "                   deciding (verdicts, patterns, hot keys)\n"
               "  --timeout <ms>   wall-clock budget (exit 3 when exceeded)\n"
               "  --steps <n>      step budget (exit 3 when exceeded)\n"
               "  --memory <bytes> tracked-memory budget (exit 3 when "
               "exceeded)\n"
               "  --threads <n>    worker threads (canonical sweeps and\n"
               "                   schema-engine saturation rounds)\n"
               "  --no-antichain   disable schema-engine subsumption pruning\n"
               "  --fault-exhaust-at <n>  force exhaustion at the nth charge\n"
               "  --fault-alloc-at <k>    fail the kth tracked allocation\n"
               "  --fault-cancel-at <n>   cancel at the nth charge\n");
  return 2;
}

Mode ParseMode(const char* arg) {
  return std::strcmp(arg, "strong") == 0 ? Mode::kStrong : Mode::kWeak;
}

bool IsModeWord(const char* arg) {
  return std::strcmp(arg, "weak") == 0 || std::strcmp(arg, "strong") == 0;
}

Tpq ParsePatternOrExit(const char* src, LabelPool* pool) {
  ParseDiagnostic diag;
  std::optional<Tpq> q = ParseTpqChecked(src, pool, &diag);
  if (!q.has_value()) {
    std::fprintf(stderr, "bad pattern '%s': %s\n", src,
                 diag.ToString().c_str());
    std::exit(2);
  }
  return std::move(*q);
}

Dtd ParseDtdOrExit(const char* src, LabelPool* pool) {
  ParseDiagnostic diag;
  std::optional<Dtd> d = ParseDtdChecked(src, pool, &diag);
  if (!d.has_value()) {
    std::fprintf(stderr, "bad DTD: %s\n", diag.ToString().c_str());
    std::exit(2);
  }
  return std::move(*d);
}

int64_t ParseCountOrDie(const char* flag, const char* arg) {
  char* end = nullptr;
  long long v = std::strtoll(arg, &end, 10);
  if (end == arg || *end != '\0' || v < 0) {
    std::fprintf(stderr, "bad value for %s: '%s'\n", flag, arg);
    std::exit(2);
  }
  return static_cast<int64_t>(v);
}

/// Prints the stats block (when requested) and translates an undecided
/// outcome into the UNDECIDED exit status, naming the exhausted resource.
/// `reason` is the result's captured reason — authoritative at decision
/// time, unlike the budget, whose exhaustion may already be cleared for
/// context reuse.
int Finish(EngineContext* ctx, bool print_stats, bool undecided,
           ExhaustionReason reason, int decided_status) {
  if (print_stats) std::printf("%s\n", ctx->StatsJson().c_str());
  if (undecided) {
    if (reason == ExhaustionReason::kNone) reason = ExhaustionReason::kSteps;
    // The wire code and retryable bit come from the frozen table shared
    // with tpc_serve (README "Error codes"), so a script wrapping the CLI
    // and a client of the daemon retry on identical grounds.
    const serve::WireStatus status = serve::WireStatusForReason(reason);
    std::printf("UNDECIDED (resource budget exhausted: %s; wire code %d %s, "
                "%s)\n",
                ExhaustionReasonName(reason), static_cast<int>(status),
                serve::WireStatusName(status),
                serve::WireStatusRetryable(status) ? "retryable"
                                                   : "not retryable");
    return kExitUndecided;
  }
  return decided_status;
}

}  // namespace

int main(int argc, char** argv) {
  EngineConfig config;
  bool print_stats = false;
  SchemaEngineOptions schema_options;
  ServiceOptions service_options;
  ContainmentOptions contain_options;
  const char* batch_file = nullptr;
  const char* snapshot_load = nullptr;
  const char* snapshot_save = nullptr;
  std::vector<char*> args;  // positional arguments, flags stripped
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats") == 0) {
      print_stats = true;
    } else if (std::strcmp(argv[i], "--no-antichain") == 0) {
      schema_options.antichain = false;
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      batch_file = argv[++i];
    } else if (std::strcmp(argv[i], "--no-cache") == 0) {
      service_options.use_cache = false;
    } else if (std::strcmp(argv[i], "--no-lattice") == 0) {
      service_options.use_lattice = false;
    } else if (std::strcmp(argv[i], "--snapshot-load") == 0 && i + 1 < argc) {
      snapshot_load = argv[++i];
    } else if (std::strcmp(argv[i], "--snapshot-save") == 0 && i + 1 < argc) {
      snapshot_save = argv[++i];
    } else if (std::strcmp(argv[i], "--no-prefilter") == 0) {
      service_options.use_prefilters = false;
    } else if (std::strcmp(argv[i], "--timeout") == 0 && i + 1 < argc) {
      config.deadline_ms = ParseCountOrDie("--timeout", argv[++i]);
    } else if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc) {
      config.step_limit = ParseCountOrDie("--steps", argv[++i]);
    } else if (std::strcmp(argv[i], "--memory") == 0 && i + 1 < argc) {
      config.memory_limit = ParseCountOrDie("--memory", argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      config.threads =
          static_cast<int>(ParseCountOrDie("--threads", argv[++i]));
    } else if (std::strcmp(argv[i], "--fault-exhaust-at") == 0 &&
               i + 1 < argc) {
      config.fault_plan.exhaust_at_charge =
          ParseCountOrDie("--fault-exhaust-at", argv[++i]);
    } else if (std::strcmp(argv[i], "--fault-alloc-at") == 0 && i + 1 < argc) {
      config.fault_plan.fail_alloc_at =
          ParseCountOrDie("--fault-alloc-at", argv[++i]);
    } else if (std::strcmp(argv[i], "--fault-cancel-at") == 0 &&
               i + 1 < argc) {
      config.fault_plan.cancel_at_charge =
          ParseCountOrDie("--fault-cancel-at", argv[++i]);
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return Usage();
    } else {
      args.push_back(argv[i]);
    }
  }
  if (batch_file == nullptr && args.size() < 2) return Usage();
  EngineContext ctx(config);
  serve::InstallCancelOnSignals(&ctx);  // SIGINT and SIGTERM both cancel
  LabelPool pool;

  if (batch_file != nullptr) {
    std::ifstream in(batch_file);
    if (!in) {
      std::fprintf(stderr, "cannot open batch file '%s'\n", batch_file);
      return 2;
    }
    std::vector<QueryService::BatchItem> items;
    std::vector<int> item_line;  // file line of each item, for the report
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      const size_t comment = line.find('#');
      if (comment != std::string::npos) line.resize(comment);
      std::istringstream tokens(line);
      std::string p_src, q_src, word;
      if (!(tokens >> p_src)) continue;  // blank or comment-only line
      if (!(tokens >> q_src)) {
        std::fprintf(stderr, "%s:%d: expected '<p> <q> [weak|strong]'\n",
                     batch_file, lineno);
        return 2;
      }
      Mode mode = Mode::kWeak;
      if (tokens >> word) {
        if (!IsModeWord(word.c_str()) || (tokens >> word)) {
          std::fprintf(stderr, "%s:%d: expected '<p> <q> [weak|strong]'\n",
                       batch_file, lineno);
          return 2;
        }
        mode = ParseMode(word.c_str());
      }
      QueryService::BatchItem item;
      ParseDiagnostic diag;
      std::optional<Tpq> p = ParseTpqChecked(p_src.c_str(), &pool, &diag);
      std::optional<Tpq> q =
          p.has_value() ? ParseTpqChecked(q_src.c_str(), &pool, &diag)
                        : std::nullopt;
      if (!p.has_value() || !q.has_value()) {
        std::fprintf(stderr, "%s:%d: bad pattern '%s': %s\n", batch_file,
                     lineno, p.has_value() ? q_src.c_str() : p_src.c_str(),
                     diag.ToString().c_str());
        return 2;
      }
      item.p = std::move(*p);
      item.q = std::move(*q);
      item.mode = mode;
      items.push_back(std::move(item));
      item_line.push_back(lineno);
    }
    QueryService service(&pool, &ctx, service_options);
    if (snapshot_load != nullptr) {
      std::string error;
      if (!service.LoadSnapshot(snapshot_load, &error)) {
        // A rejected snapshot (corrupt, truncated, version skew, budget)
        // costs warmth, not correctness: warn and decide cold.
        std::fprintf(stderr, "warning: %s: %s (starting cold)\n",
                     snapshot_load, error.c_str());
      }
    }
    std::vector<ContainmentResult> results = service.ContainsBatch(items);
    if (snapshot_save != nullptr) {
      std::string error;
      if (!service.SaveSnapshot(snapshot_save, &error)) {
        std::fprintf(stderr, "warning: %s: %s (snapshot not written)\n",
                     snapshot_save, error.c_str());
      }
    }
    bool any_undecided = false;
    ExhaustionReason reason = ExhaustionReason::kNone;
    for (size_t i = 0; i < results.size(); ++i) {
      const ContainmentResult& r = results[i];
      if (r.outcome != Outcome::kDecided) {
        any_undecided = true;
        reason = r.reason;
        std::printf("%d: UNDECIDED (%s)\n", item_line[i],
                    ExhaustionReasonName(r.reason));
      } else {
        std::printf("%d: %s\n", item_line[i],
                    r.contained ? "contained" : "NOT contained");
      }
    }
    if (print_stats) {
      // Coalescing summary for the grouped canonical sweep (one line; the
      // full counter JSON from Finish carries the raw values too).
      const EngineStats& s = ctx.stats();
      const long long groups =
          s.sweep_groups_formed.load(std::memory_order_relaxed);
      const long long members =
          s.sweep_group_members.load(std::memory_order_relaxed);
      const long long retired =
          s.group_members_retired_early.load(std::memory_order_relaxed);
      std::printf("group sweep: %lld groups, mean size %.2f, "
                  "early-retire rate %.2f\n",
                  groups,
                  groups > 0 ? static_cast<double>(members) / groups : 0.0,
                  members > 0 ? static_cast<double>(retired) / members : 0.0);
    }
    // Exit status reports decidability, not verdicts — a batch mixes both
    // answers, so per-line output carries them.
    return Finish(&ctx, print_stats, any_undecided, reason, 0);
  }

  std::string command = args[0];

  if (command == "contain") {
    if (args.size() < 3) return Usage();
    Tpq p = ParsePatternOrExit(args[1], &pool);
    Tpq q = ParsePatternOrExit(args[2], &pool);
    Mode mode = Mode::kWeak;
    const char* dtd_src = nullptr;
    for (size_t i = 3; i < args.size(); ++i) {
      if (IsModeWord(args[i])) {
        mode = ParseMode(args[i]);
      } else {
        dtd_src = args[i];
      }
    }
    if (dtd_src == nullptr) {
      ContainmentResult r = Contains(p, q, mode, &pool, &ctx, contain_options);
      if (r.outcome == Outcome::kDecided) {
        std::printf("%s\n", r.contained ? "contained" : "NOT contained");
        if (r.counterexample.has_value()) {
          std::printf("counterexample: %s\n",
                      r.counterexample->ToString(pool).c_str());
        }
        if (r.counterexample_lengths.has_value()) {
          std::printf("counterexample chain lengths:");
          for (int32_t len : *r.counterexample_lengths) {
            std::printf(" %d", len);
          }
          std::printf("\n");
        }
      }
      return Finish(&ctx, print_stats, r.outcome != Outcome::kDecided,
                    r.reason, r.contained ? 0 : 1);
    }
    Dtd d = ParseDtdOrExit(dtd_src, &pool);
    SchemaDecision r =
        ContainedWithDtd(p, q, mode, d, &ctx, EngineLimits{}, schema_options);
    if (r.decided) {
      std::printf("%s (w.r.t. the DTD)\n",
                  r.yes ? "contained" : "NOT contained");
      if (r.witness.has_value()) {
        std::printf("counterexample: %s\n", r.witness->ToString(pool).c_str());
      }
    }
    return Finish(&ctx, print_stats, !r.decided, r.reason, r.yes ? 0 : 1);
  }

  if (command == "sat" || command == "valid") {
    if (args.size() < 3) return Usage();
    Tpq q = ParsePatternOrExit(args[1], &pool);
    Dtd d = ParseDtdOrExit(args[2], &pool);
    Mode mode = args.size() > 3 && IsModeWord(args[3]) ? ParseMode(args[3])
                                                       : Mode::kWeak;
    SchemaDecision r =
        command == "sat"
            ? SatisfiableWithDtd(q, mode, d, &ctx, EngineLimits{},
                                 schema_options)
            : ValidWithDtd(q, mode, d, &ctx, EngineLimits{}, schema_options);
    if (r.decided) {
      std::printf("%s\n", command == "sat"
                              ? (r.yes ? "satisfiable" : "NOT satisfiable")
                              : (r.yes ? "valid" : "NOT valid"));
      if (r.witness.has_value()) {
        std::printf("%s: %s\n",
                    command == "sat" ? "witness" : "counterexample",
                    r.witness->ToString(pool).c_str());
      }
    }
    return Finish(&ctx, print_stats, !r.decided, r.reason, r.yes ? 0 : 1);
  }

  if (command == "minimize") {
    Tpq q = ParsePatternOrExit(args[1], &pool);
    Tpq min = MinimizeTpq(q, Mode::kWeak, &pool);
    std::printf("%s\n", min.ToString(pool).c_str());
    return Finish(&ctx, print_stats, false, ExhaustionReason::kNone, 0);
  }

  if (command == "match") {
    if (args.size() < 3) return Usage();
    Tpq q = ParsePatternOrExit(args[1], &pool);
    ParseDiagnostic diag;
    std::optional<Tree> t = ParseTreeChecked(args[2], &pool, &diag);
    if (!t.has_value()) {
      std::fprintf(stderr, "bad tree '%s': %s\n", args[2],
                   diag.ToString().c_str());
      return 2;
    }
    Mode mode = args.size() > 3 && IsModeWord(args[3]) ? ParseMode(args[3])
                                                       : Mode::kWeak;
    const std::optional<bool> matches =
        MatchTree(q, /*program=*/nullptr, *t, mode == Mode::kStrong, &ctx);
    if (matches.has_value()) {
      std::printf("%s\n", *matches ? "match" : "no match");
    }
    return Finish(&ctx, print_stats, !matches.has_value(),
                  ctx.budget().reason(), matches == true ? 0 : 1);
  }
  return Usage();
}
