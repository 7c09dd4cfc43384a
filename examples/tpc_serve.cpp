// The containment daemon: serves the query service (verdict cache,
// prefilters, compiled programs, subsumption lattice, snapshots) over a
// Unix-domain or loopback TCP socket with multi-tenant admission control,
// fair-share scheduling and graceful drain.  Protocol: src/serve/protocol.h;
// architecture and invariants: DESIGN.md "Containment daemon".
//
// Usage:
//   tpc_serve --unix /tmp/tpc.sock [flags]
//   tpc_serve --port 7411 [flags]
//
// Flags:
//   --unix <path>       listen on a Unix-domain socket (preferred)
//   --port <n>          listen on loopback TCP instead (0 = ephemeral)
//   --workers <n>       serve workers (default 2)
//   --drain-ms <n>      grace between SIGTERM and budget cancellation
//   --tenant <id>=<steps>:<deadline_ms>:<memory>:<weight>:<outstanding>
//                       register a tenant quota (repeatable; 0 = unlimited
//                       for the budget triple)
//   --default-steps/--default-deadline/--default-memory <n>
//                       quota for unregistered tenants
//   --require-registered  reject tenants that were not --tenant-registered
//   --max-queued <n>    global scheduler backlog cap (shed above)
//   --snapshot-load <f> warm-start the service before listening
//   --snapshot-save <f> flush the warm tier after the drain completes
//   --no-cache / --no-prefilter / --no-lattice
//                       service A/B switches (as in tpc_cli --batch)
//   --group-window <n>  coalesce up to n same-tenant requests sharing the
//                       head's (pattern p, mode) key into one grouped
//                       canonical sweep at dequeue (default 4; 1 disables)
//   --fault-exhaust-at / --fault-alloc-at / --fault-cancel-at <n>
//                       per-worker deterministic fault injection (drills)
//
// SIGTERM or SIGINT begins the graceful drain: accepts stop, the admitted
// backlog drains (until --drain-ms, then budgets are cancelled and the rest
// is answered CANCELLED_DRAIN), the snapshot is flushed, and the process
// exits 0 having sent exactly one response for every accepted request.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "base/label.h"
#include "engine/engine.h"
#include "serve/server.h"
#include "serve/signals.h"
#include "service/query_service.h"

using namespace tpc;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: tpc_serve (--unix <path> | --port <n>) [flags]\n"
      "  --workers <n>          serve workers (default 2)\n"
      "  --drain-ms <n>         drain grace in ms (default 2000)\n"
      "  --tenant <id>=<steps>:<deadline_ms>:<memory>:<weight>:<outstanding>\n"
      "  --default-steps <n>    per-request step quota for default tenants\n"
      "  --default-deadline <n> per-request deadline (ms) for default "
      "tenants\n"
      "  --default-memory <n>   per-request memory quota for default tenants\n"
      "  --require-registered   reject unregistered tenants\n"
      "  --max-queued <n>       global backlog cap (default 4096)\n"
      "  --snapshot-load <f>    warm-start from a snapshot\n"
      "  --snapshot-save <f>    flush the warm tier on drain\n"
      "  --no-cache | --no-prefilter | --no-lattice\n"
      "  --group-window <n>     coalescing window for the grouped sweep\n"
      "                         (default 4; 1 disables)\n"
      "  --fault-exhaust-at <n> | --fault-alloc-at <k> | --fault-cancel-at "
      "<n>\n");
  return 2;
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

/// Parses "<id>=<steps>:<deadline_ms>:<memory>:<weight>:<outstanding>".
bool ParseTenantSpec(const char* spec, std::string* id,
                     serve::TenantQuota* quota) {
  const char* eq = std::strchr(spec, '=');
  if (eq == nullptr || eq == spec) return false;
  id->assign(spec, static_cast<size_t>(eq - spec));
  long long fields[5] = {0, 0, 0, 1, 64};
  const char* cursor = eq + 1;
  for (int i = 0; i < 5; ++i) {
    char* end = nullptr;
    fields[i] = std::strtoll(cursor, &end, 10);
    if (end == cursor || fields[i] < 0) return false;
    cursor = end;
    if (i < 4) {
      if (*cursor != ':') return false;
      ++cursor;
    }
  }
  if (*cursor != '\0' || fields[3] < 1 || fields[4] < 1) return false;
  quota->step_limit = fields[0];
  quota->deadline_ms = fields[1];
  quota->memory_limit = fields[2];
  quota->weight = static_cast<uint32_t>(fields[3]);
  quota->max_outstanding = static_cast<int32_t>(fields[4]);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerOptions options;
  ServiceOptions service_options;
  const char* snapshot_load = nullptr;
  std::vector<std::pair<std::string, serve::TenantQuota>> tenant_specs;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--unix") == 0) {
      options.unix_path = next("--unix");
    } else if (std::strcmp(argv[i], "--port") == 0) {
      options.tcp_port =
          static_cast<int>(ParseCountOrDie("--port", next("--port")));
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      options.workers =
          static_cast<int>(ParseCountOrDie("--workers", next("--workers")));
    } else if (std::strcmp(argv[i], "--drain-ms") == 0) {
      options.drain_ms = ParseCountOrDie("--drain-ms", next("--drain-ms"));
    } else if (std::strcmp(argv[i], "--tenant") == 0) {
      std::string id;
      serve::TenantQuota quota;
      if (!ParseTenantSpec(next("--tenant"), &id, &quota)) {
        std::fprintf(stderr, "bad --tenant spec '%s'\n", argv[i]);
        return 2;
      }
      tenant_specs.emplace_back(std::move(id), quota);
    } else if (std::strcmp(argv[i], "--default-steps") == 0) {
      options.default_quota.step_limit =
          ParseCountOrDie("--default-steps", next("--default-steps"));
    } else if (std::strcmp(argv[i], "--default-deadline") == 0) {
      options.default_quota.deadline_ms =
          ParseCountOrDie("--default-deadline", next("--default-deadline"));
    } else if (std::strcmp(argv[i], "--default-memory") == 0) {
      options.default_quota.memory_limit =
          ParseCountOrDie("--default-memory", next("--default-memory"));
    } else if (std::strcmp(argv[i], "--require-registered") == 0) {
      options.require_registered = true;
    } else if (std::strcmp(argv[i], "--max-queued") == 0) {
      options.max_queued =
          ParseCountOrDie("--max-queued", next("--max-queued"));
    } else if (std::strcmp(argv[i], "--snapshot-load") == 0) {
      snapshot_load = next("--snapshot-load");
    } else if (std::strcmp(argv[i], "--snapshot-save") == 0) {
      options.snapshot_path = next("--snapshot-save");
    } else if (std::strcmp(argv[i], "--no-cache") == 0) {
      service_options.use_cache = false;
    } else if (std::strcmp(argv[i], "--no-prefilter") == 0) {
      service_options.use_prefilters = false;
    } else if (std::strcmp(argv[i], "--no-lattice") == 0) {
      service_options.use_lattice = false;
    } else if (std::strcmp(argv[i], "--group-window") == 0) {
      options.group_window = static_cast<int>(
          ParseCountOrDie("--group-window", next("--group-window")));
    } else if (std::strcmp(argv[i], "--fault-exhaust-at") == 0) {
      options.worker_config.fault_plan.exhaust_at_charge =
          ParseCountOrDie("--fault-exhaust-at", next("--fault-exhaust-at"));
    } else if (std::strcmp(argv[i], "--fault-alloc-at") == 0) {
      options.worker_config.fault_plan.fail_alloc_at =
          ParseCountOrDie("--fault-alloc-at", next("--fault-alloc-at"));
    } else if (std::strcmp(argv[i], "--fault-cancel-at") == 0) {
      options.worker_config.fault_plan.cancel_at_charge =
          ParseCountOrDie("--fault-cancel-at", next("--fault-cancel-at"));
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return Usage();
    }
  }
  if (options.unix_path.empty() && options.tcp_port == 0) return Usage();

  LabelPool pool;
  EngineContext service_ctx;  // unlimited: holds the shared warm tier
  QueryService service(&pool, &service_ctx, service_options);
  if (snapshot_load != nullptr) {
    std::string error;
    if (!service.LoadSnapshot(snapshot_load, &error)) {
      std::fprintf(stderr, "warning: %s: %s (starting cold)\n", snapshot_load,
                   error.c_str());
    }
  }

  serve::Server server(&service, &pool, options);
  for (const auto& [id, quota] : tenant_specs) {
    if (!server.tenants().Register(id, quota)) {
      std::fprintf(stderr, "cannot register tenant '%s'\n", id.c_str());
      return 2;
    }
  }
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "tpc_serve: %s\n", error.c_str());
    return 1;
  }
  serve::InstallDrainOnSignals(server.wake_fd());
  if (!options.unix_path.empty()) {
    std::fprintf(stderr, "tpc_serve: listening on %s\n",
                 options.unix_path.c_str());
  } else {
    std::fprintf(stderr, "tpc_serve: listening on 127.0.0.1:%d\n",
                 server.port());
  }

  // Block until a drain signal lands and the drain completes.  The IO
  // thread notices DrainSignalled() on its own; Wait() joins everything.
  const serve::DrainReport report = server.Wait();
  std::fprintf(stderr,
               "tpc_serve: drained (accepted %lld, responded %lld, "
               "drain-cancelled %lld)\n",
               static_cast<long long>(report.accepted),
               static_cast<long long>(report.responded),
               static_cast<long long>(report.drain_cancelled));
  if (!options.snapshot_path.empty()) {
    if (report.snapshot_saved) {
      std::fprintf(stderr, "tpc_serve: snapshot saved to %s\n",
                   options.snapshot_path.c_str());
    } else {
      std::fprintf(stderr, "tpc_serve: snapshot NOT saved: %s\n",
                   report.snapshot_error.c_str());
      return 1;
    }
  }
  // Exit 0 on a clean drain: every accepted request got its one response.
  return report.accepted == report.responded ? 0 : 1;
}
