#include "serve/server.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <utility>

#include "pattern/tpq_parser.h"
#include "serve/signals.h"

namespace tpc {
namespace serve {

namespace {

/// Cap on a connection's queued-but-unsent response bytes.  A client that
/// stops reading is cut off rather than buffered without bound (its
/// responses were still generated and counted — the invariant is about
/// attribution, not about delivery to a dead reader).
constexpr size_t kMaxOutboxBytes = 4u << 20;

/// Poll tick: bounds how stale the drain-deadline check and the
/// re-cancellation of worker budgets can be.
constexpr int kPollMs = 100;

int64_t NowNs() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

Server::Server(QueryService* service, LabelPool* pool,
               const ServerOptions& options)
    : service_(service),
      pool_(pool),
      options_(options),
      tenants_(options.default_quota, options.require_registered),
      scheduler_() {}

Server::~Server() {
  if (started_.load(std::memory_order_acquire) &&
      !io_done_.load(std::memory_order_acquire)) {
    RequestDrain();
    Wait();
  }
  if (wake_pipe_[0] >= 0) close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) close(wake_pipe_[1]);
}

bool Server::SetupListenSocket(std::string* error) {
  if (!options_.unix_path.empty()) {
    listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      if (error != nullptr) *error = "socket: " + std::string(strerror(errno));
      return false;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      if (error != nullptr) *error = "unix path too long";
      return false;
    }
    strncpy(addr.sun_path, options_.unix_path.c_str(),
            sizeof(addr.sun_path) - 1);
    unlink(options_.unix_path.c_str());  // stale socket from a prior run
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      if (error != nullptr) *error = "bind: " + std::string(strerror(errno));
      return false;
    }
  } else {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      if (error != nullptr) *error = "socket: " + std::string(strerror(errno));
      return false;
    }
    const int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(options_.tcp_port));
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      if (error != nullptr) *error = "bind: " + std::string(strerror(errno));
      return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
  }
  if (!SetNonBlocking(listen_fd_) || listen(listen_fd_, 64) != 0) {
    if (error != nullptr) *error = "listen: " + std::string(strerror(errno));
    return false;
  }
  return true;
}

bool Server::Start(std::string* error) {
  if (pipe(wake_pipe_) != 0) {
    if (error != nullptr) *error = "pipe: " + std::string(strerror(errno));
    return false;
  }
  SetNonBlocking(wake_pipe_[0]);
  SetNonBlocking(wake_pipe_[1]);
  if (!SetupListenSocket(error)) {
    if (listen_fd_ >= 0) {
      close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  }

  const int workers = options_.workers > 0 ? options_.workers : 1;
  EngineConfig worker_cfg = options_.worker_config;
  worker_cfg.threads = 1;  // workers must not nest parallel sweeps
  for (int w = 0; w < workers; ++w) {
    worker_ctxs_.push_back(std::make_unique<EngineContext>(worker_cfg));
  }
  EngineConfig pool_cfg;
  pool_cfg.threads = workers;  // pool threads = serve workers
  pool_ctx_ = std::make_unique<EngineContext>(pool_cfg);

  started_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { IoLoop(); });
  // The runner feeds the engine pool one everlasting job: each index of the
  // ParallelFor *is* a serve worker loop, so the workers are genuine
  // engine::ThreadPool threads (plus the runner itself for index claiming).
  runner_thread_ = std::thread([this, workers] {
    pool_ctx_->pool().ParallelFor(workers, [this](int64_t w) {
      WorkerLoop(static_cast<int>(w));
    });
  });
  return true;
}

void Server::RequestDrain() {
  drain_requested_.store(true, std::memory_order_release);
  WakeIo();
}

void Server::WakeIo() const {
  const char byte = 1;
  // A full pipe means a wake is already pending; EAGAIN is success here.
  [[maybe_unused]] ssize_t n = write(wake_pipe_[1], &byte, 1);
}

DrainReport Server::Wait() {
  if (io_thread_.joinable()) io_thread_.join();
  if (runner_thread_.joinable()) runner_thread_.join();
  report_.accepted = accepted_.load(std::memory_order_relaxed);
  report_.responded = responded_.load(std::memory_order_relaxed);
  report_.drain_cancelled = drain_cancelled_.load(std::memory_order_relaxed);
  if (!options_.snapshot_path.empty()) {
    std::string err;
    report_.snapshot_saved =
        service_->SaveSnapshot(options_.snapshot_path, &err);
    if (!report_.snapshot_saved) report_.snapshot_error = err;
  }
  return report_;
}

std::string Server::EngineStatsJson() const {
  EngineStats merged;
  merged.MergeFrom(service_->context()->stats());
  for (const auto& ctx : worker_ctxs_) merged.MergeFrom(ctx->stats());
  return merged.ToJson(service_->context()->budget());
}

std::string Server::StatsFrameJson() {
  std::string out = "{\"server\": {";
  out += "\"accepted\": " +
         std::to_string(accepted_.load(std::memory_order_relaxed)) + ", ";
  out += "\"responded\": " +
         std::to_string(responded_.load(std::memory_order_relaxed)) + ", ";
  out += "\"queued\": " + std::to_string(scheduler_.queued()) + ", ";
  out += std::string("\"draining\": ") +
         (drain_requested_.load(std::memory_order_relaxed) ? "true" : "false");
  out += "}, \"tenants\": " + tenants_.StatsJson();
  out += ", \"engine\": " + EngineStatsJson();
  out += "}";
  return out;
}

// ---- IO thread ----

void Server::IoLoop() {
  int64_t drain_deadline_ns = -1;
  bool drain_started = false;
  std::vector<pollfd> fds;
  std::vector<uint64_t> fd_conn;  // parallel to fds, 0 for listen/wake

  while (true) {
    // Route finished worker responses into connection outboxes.
    std::vector<PendingResponse> ready;
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      ready.swap(pending_);
    }
    for (PendingResponse& r : ready) {
      auto it = conns_.find(r.conn_id);
      // A vanished connection simply discards the bytes: the response was
      // generated and counted, which is what the invariant demands.
      if (it != conns_.end()) QueueToConn(&it->second, std::move(r.bytes));
    }

    // Drain state machine.
    if (!drain_started && (drain_requested_.load(std::memory_order_acquire) ||
                           DrainSignalled())) {
      drain_started = true;
      drain_requested_.store(true, std::memory_order_release);
      BeginDrain();
      drain_deadline_ns = NowNs() + options_.drain_ms * 1000000;
    }
    if (drain_started && NowNs() >= drain_deadline_ns) {
      drain_expired_.store(true, std::memory_order_release);
    }
    if (drain_expired_.load(std::memory_order_acquire)) {
      // Re-cancel every tick: `Budget::Arm` (a worker starting a request it
      // dequeued just before the flag flipped) clears a pending
      // cancellation, so a single Cancel could be lost.  Repeating it each
      // tick bounds any straggler's overrun by one poll interval.
      for (auto& ctx : worker_ctxs_) ctx->Cancel();
    }

    const int workers_total = static_cast<int>(worker_ctxs_.size());
    if (drain_started &&
        workers_done_.load(std::memory_order_acquire) == workers_total) {
      std::lock_guard<std::mutex> lock(pending_mu_);
      if (pending_.empty()) break;  // final flush happens below
    }

    fds.clear();
    fd_conn.clear();
    if (listen_fd_ >= 0) {
      fds.push_back({listen_fd_, POLLIN, 0});
      fd_conn.push_back(0);
    }
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fd_conn.push_back(0);
    for (auto& [id, conn] : conns_) {
      short events = POLLIN;
      if (conn.outbox_sent < conn.outbox.size()) events |= POLLOUT;
      fds.push_back({conn.fd, events, 0});
      fd_conn.push_back(id);
    }

    const int n = poll(fds.data(), fds.size(), kPollMs);
    if (n < 0 && errno != EINTR) break;  // unrecoverable; drain via dtor

    // Drain the wake pipe.
    char buf[256];
    while (read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
    }

    std::vector<uint64_t> dead;
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      if (fds[i].fd == listen_fd_) {
        AcceptNew();
        continue;
      }
      if (fds[i].fd == wake_pipe_[0]) continue;
      auto it = conns_.find(fd_conn[i]);
      if (it == conns_.end()) continue;
      Connection* conn = &it->second;
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // Mid-stream disconnect: admitted requests still run to completion;
        // their responses are discarded at routing time.
        dead.push_back(conn->id);
        continue;
      }
      if (fds[i].revents & POLLOUT) FlushOutbox(conn);
      if (fds[i].revents & POLLIN) ReadFrames(conn);
      if (conn->broken ||
          ((conn->goodbye || conn->reader.errored()) &&
           conn->outbox_sent >= conn->outbox.size())) {
        dead.push_back(conn->id);
      }
    }
    for (uint64_t id : dead) CloseConn(id);
  }

  // Final best-effort flush of whatever the last workers produced, bounded
  // so a non-reading client cannot wedge the drain.
  {
    std::vector<PendingResponse> ready;
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      ready.swap(pending_);
    }
    for (PendingResponse& r : ready) {
      auto it = conns_.find(r.conn_id);
      if (it != conns_.end()) QueueToConn(&it->second, std::move(r.bytes));
    }
    const int64_t flush_deadline = NowNs() + 250 * 1000000;
    bool unflushed = true;
    while (unflushed && NowNs() < flush_deadline) {
      unflushed = false;
      for (auto& [id, conn] : conns_) {
        FlushOutbox(&conn);
        if (!conn.broken && conn.outbox_sent < conn.outbox.size()) {
          unflushed = true;
        }
      }
      if (unflushed) poll(nullptr, 0, 10);
    }
  }

  for (auto& [id, conn] : conns_) close(conn.fd);
  conns_.clear();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    if (!options_.unix_path.empty()) unlink(options_.unix_path.c_str());
  }
  io_done_.store(true, std::memory_order_release);
}

void Server::BeginDrain() {
  // Stop accepts first (close the door), then stop submits: a QUERY read
  // after this point is answered kCancelledDrain inline by HandleQuery.
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    if (!options_.unix_path.empty()) unlink(options_.unix_path.c_str());
  }
  scheduler_.CloseSubmit();
}

void Server::AcceptNew() {
  while (true) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error; poll retries
    SetNonBlocking(fd);
    Connection conn;
    conn.fd = fd;
    conn.id = next_conn_id_++;
    conns_.emplace(conn.id, std::move(conn));
  }
}

void Server::ReadFrames(Connection* conn) {
  char buf[16384];
  while (true) {
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->reader.Feed(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {  // orderly shutdown from the client
      conn->goodbye = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
    conn->broken = true;
    return;
  }
  Frame frame;
  std::string err;
  while (!conn->reader.errored()) {
    const FrameReader::Result r = conn->reader.Poll(&frame, &err);
    if (r == FrameReader::Result::kNeedMore) break;
    if (r == FrameReader::Result::kError) {
      QueueToConn(conn, EncodeError(WireStatus::kProtocolError, err));
      return;  // sticky; connection closes once the error frame flushes
    }
    HandleFrame(conn, std::move(frame));
  }
}

void Server::HandleFrame(Connection* conn, Frame frame) {
  std::string err;
  switch (frame.type) {
    case FrameType::kHello: {
      HelloFrame hello;
      if (!DecodeHello(frame.payload, &hello, &err)) {
        QueueToConn(conn, EncodeError(WireStatus::kProtocolError, err));
        conn->goodbye = true;
        return;
      }
      if (hello.version != kProtocolVersion) {
        QueueToConn(conn, EncodeError(WireStatus::kProtocolError,
                                      "unsupported protocol version"));
        conn->goodbye = true;
        return;
      }
      if (conn->tenant != nullptr) {
        QueueToConn(conn, EncodeError(WireStatus::kProtocolError,
                                      "duplicate HELLO"));
        conn->goodbye = true;
        return;
      }
      Tenant* tenant = tenants_.Resolve(hello.tenant_id);
      if (tenant == nullptr) {
        QueueToConn(conn, EncodeError(WireStatus::kUnknownTenant,
                                      "unknown or invalid tenant id"));
        conn->goodbye = true;
        return;
      }
      conn->tenant = tenant;
      QueueToConn(conn, EncodeHelloOk());
      return;
    }
    case FrameType::kQuery:
      HandleQuery(conn, frame);
      return;
    case FrameType::kStats:
      QueueToConn(conn, EncodeStatsJson(StatsFrameJson()));
      return;
    case FrameType::kGoodbye:
      conn->goodbye = true;
      return;
    default:
      // FrameReader only passes known types through; server-direction types
      // arriving here are a client bug.
      QueueToConn(conn, EncodeError(WireStatus::kProtocolError,
                                    "unexpected frame type"));
      conn->goodbye = true;
      return;
  }
}

void Server::HandleQuery(Connection* conn, const Frame& frame) {
  std::string err;
  if (conn->tenant == nullptr) {
    QueueToConn(conn,
                EncodeError(WireStatus::kProtocolError, "QUERY before HELLO"));
    conn->goodbye = true;
    return;
  }
  QueryFrame query;
  if (!DecodeQuery(frame.payload, &query, &err)) {
    QueueToConn(conn, EncodeError(WireStatus::kProtocolError, err));
    conn->goodbye = true;
    return;
  }
  Tenant* tenant = conn->tenant;

  ResponseFrame reject;
  reject.request_id = query.request_id;
  if (drain_requested_.load(std::memory_order_acquire)) {
    reject.status = WireStatus::kCancelledDrain;
    reject.retryable = WireStatusRetryable(reject.status);
    tenant->counters().drain_cancelled.fetch_add(1, std::memory_order_relaxed);
    QueueToConn(conn, EncodeResponse(reject));
    return;
  }
  uint32_t retry_after_ms = 0;
  if (scheduler_.queued() >= options_.max_queued) {
    reject.status = WireStatus::kShedOverload;
    reject.retryable = true;
    reject.retry_after_ms = 1000;
    tenant->counters().shed.fetch_add(1, std::memory_order_relaxed);
    QueueToConn(conn, EncodeResponse(reject));
    return;
  }
  if (!tenants_.TryReserve(tenant, &retry_after_ms)) {
    reject.status = WireStatus::kShedOverload;
    reject.retryable = true;
    reject.retry_after_ms = retry_after_ms;
    tenant->counters().shed.fetch_add(1, std::memory_order_relaxed);
    QueueToConn(conn, EncodeResponse(reject));
    return;
  }

  ServeRequest req;
  req.conn_id = conn->id;
  req.request_id = query.request_id;
  req.tenant = tenant;
  req.mode = query.mode;
  req.p_src = std::move(query.p);
  req.q_src = std::move(query.q);
  req.enqueue_ns = NowNs();
  if (!scheduler_.Submit(std::move(req))) {
    // The drain door closed between the check above and here; the slot is
    // returned and the request answered — never silently dropped.
    tenants_.ReleaseSlot(tenant);
    reject.status = WireStatus::kCancelledDrain;
    reject.retryable = WireStatusRetryable(reject.status);
    tenant->counters().drain_cancelled.fetch_add(1, std::memory_order_relaxed);
    QueueToConn(conn, EncodeResponse(reject));
    return;
  }
  tenant->counters().admitted.fetch_add(1, std::memory_order_relaxed);
  accepted_.fetch_add(1, std::memory_order_relaxed);
}

void Server::QueueToConn(Connection* conn, std::string bytes) {
  if (conn->broken) return;
  if (conn->outbox.size() - conn->outbox_sent + bytes.size() >
      kMaxOutboxBytes) {
    conn->broken = true;  // non-reading client; cut off, don't buffer
    return;
  }
  // Compact the sent prefix opportunistically.
  if (conn->outbox_sent > 0 && conn->outbox_sent == conn->outbox.size()) {
    conn->outbox.clear();
    conn->outbox_sent = 0;
  }
  conn->outbox += bytes;
  FlushOutbox(conn);
}

void Server::FlushOutbox(Connection* conn) {
  while (!conn->broken && conn->outbox_sent < conn->outbox.size()) {
    const ssize_t n =
        send(conn->fd, conn->outbox.data() + conn->outbox_sent,
             conn->outbox.size() - conn->outbox_sent, MSG_NOSIGNAL);
    if (n > 0) {
      conn->outbox_sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return;  // poll() will report POLLOUT
    }
    conn->broken = true;
  }
}

void Server::CloseConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  close(it->second.fd);
  conns_.erase(it);
}

// ---- Workers ----

void Server::PushResponse(uint64_t conn_id, std::string bytes) {
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_.push_back(PendingResponse{conn_id, std::move(bytes)});
  }
  WakeIo();
}

void Server::RespondUnrun(const ServeRequest& req, WireStatus status) {
  ResponseFrame resp;
  resp.request_id = req.request_id;
  resp.status = status;
  resp.retryable = WireStatusRetryable(status);
  req.tenant->counters().drain_cancelled.fetch_add(1,
                                                   std::memory_order_relaxed);
  req.tenant->counters().completed.fetch_add(1, std::memory_order_relaxed);
  tenants_.ReleaseSlot(req.tenant);
  drain_cancelled_.fetch_add(1, std::memory_order_relaxed);
  responded_.fetch_add(1, std::memory_order_relaxed);
  PushResponse(req.conn_id, EncodeResponse(resp));
}

void Server::ProcessOne(EngineContext* ctx, ServeRequest& req) {
  Tenant* tenant = req.tenant;
  TenantCounters& counters = tenant->counters();
  counters.queue_wait_ns.fetch_add(req.queue_wait_ns,
                                   std::memory_order_relaxed);
  if (drain_expired_.load(std::memory_order_acquire)) {
    // Past the drain deadline the backlog is answered, not run.
    RespondUnrun(req, WireStatus::kCancelledDrain);
    return;
  }

  const TenantQuota& quota = tenant->quota();
  ctx->budget().Arm(quota.step_limit, quota.deadline_ms, quota.memory_limit);
  const int64_t t0 = NowNs();

  ResponseFrame resp;
  resp.request_id = req.request_id;
  ParseDiagnostic diag;
  std::optional<Tpq> p = ParseTpqChecked(req.p_src, pool_, &diag);
  std::optional<Tpq> q =
      p.has_value() ? ParseTpqChecked(req.q_src, pool_, &diag) : std::nullopt;
  if (!p.has_value() || !q.has_value()) {
    resp.status = WireStatus::kBadRequest;
    resp.detail = (p.has_value() ? "q: " : "p: ") + diag.ToString();
    counters.bad_requests.fetch_add(1, std::memory_order_relaxed);
  } else {
    const ContainmentResult result =
        service_->ContainsFor(*p, *q, req.mode, ctx);
    if (result.outcome == Outcome::kDecided) {
      resp.status = WireStatus::kOk;
      resp.contained = result.contained;
      if (!result.contained && result.counterexample.has_value()) {
        resp.detail = result.counterexample->ToString(*pool_);
      }
      counters.decided.fetch_add(1, std::memory_order_relaxed);
    } else {
      ExhaustionReason reason = result.reason;
      if (reason == ExhaustionReason::kNone) reason = ctx->budget().reason();
      if (reason == ExhaustionReason::kNone) {
        reason = ExhaustionReason::kSteps;  // undecided must name a cause
      }
      resp.status = WireStatusForReason(reason);
      switch (reason) {
        case ExhaustionReason::kDeadline:
          counters.deadline_expired.fetch_add(1, std::memory_order_relaxed);
          break;
        case ExhaustionReason::kMemory:
          counters.memory_exhausted.fetch_add(1, std::memory_order_relaxed);
          break;
        case ExhaustionReason::kCancelled:
          counters.drain_cancelled.fetch_add(1, std::memory_order_relaxed);
          break;
        default:
          counters.steps_exhausted.fetch_add(1, std::memory_order_relaxed);
          break;
      }
    }
  }
  resp.retryable = WireStatusRetryable(resp.status);
  if (resp.status == WireStatus::kCancelledDrain) {
    drain_cancelled_.fetch_add(1, std::memory_order_relaxed);
  }
  counters.decide_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
  counters.completed.fetch_add(1, std::memory_order_relaxed);
  tenants_.ReleaseSlot(tenant);
  responded_.fetch_add(1, std::memory_order_relaxed);
  PushResponse(req.conn_id, EncodeResponse(resp));
}

void Server::WorkerLoop(int worker_index) {
  EngineContext* ctx = worker_ctxs_[static_cast<size_t>(worker_index)].get();
  ServeRequest req;
  while (scheduler_.Next(&req)) ProcessOne(ctx, req);
  workers_done_.fetch_add(1, std::memory_order_acq_rel);
  WakeIo();
}

}  // namespace serve
}  // namespace tpc
