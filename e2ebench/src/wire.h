// The benchmark's side of the daemon: a child `tpc_serve` process and a
// minimal poll()-driven client connection speaking serve/protocol.h.
//
// The library's `serve::Client` blocks in `ReadResponse`, which an open-loop
// sender cannot afford (it must send on schedule while responses arrive), so
// the connection here exposes a timed `Poll` over the same FrameReader and
// frame encoders.

#ifndef E2EBENCH_WIRE_H_
#define E2EBENCH_WIRE_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.h"

namespace e2e {

/// Monotonic clock in nanoseconds.
int64_t NowNs();

/// A `tpc_serve` child process.  The destructor kills (SIGKILL) and reaps a
/// child that was not stopped cleanly, so no error path leaks a process.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Starts `binary --unix socket_path args...` with stdout/stderr sent to
  /// `log_path`.  False with `*error` when the process cannot be spawned.
  bool Start(const std::string& binary, const std::string& socket_path,
             const std::vector<std::string>& args, const std::string& log_path,
             std::string* error);

  /// Sends SIGTERM (graceful drain) and waits for exit.  Returns true when
  /// the daemon exited 0; `peak_rss_kb` receives its ru_maxrss.
  bool Stop(int64_t* peak_rss_kb, std::string* error);

 private:
  pid_t pid_ = -1;
};

/// One client connection over a Unix-domain socket.
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Connects (retrying until `deadline_ns` while the daemon starts) and
  /// performs the HELLO exchange for `tenant`.
  bool Connect(const std::string& socket_path, const std::string& tenant,
               int64_t deadline_ns, std::string* error);

  /// Writes `bytes` fully (blocking).
  bool Send(const std::string& bytes, std::string* error);

  /// Waits up to `timeout_ns` (-1 = forever) for the next frame.  Returns
  /// 1 with `*frame` filled, 0 on timeout, -1 on error/disconnect.
  int Poll(tpc::serve::Frame* frame, int64_t timeout_ns, std::string* error);

  /// Requests the daemon's STATS_JSON dump.  Call only while no query is
  /// outstanding: any other frame arriving first fails the call.
  bool Stats(std::string* json, std::string* error);

  void Close();

 private:
  int fd_ = -1;
  tpc::serve::FrameReader reader_;
};

}  // namespace e2e

#endif  // E2EBENCH_WIRE_H_
