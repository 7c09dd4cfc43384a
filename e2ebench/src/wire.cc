#include "wire.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

extern char** environ;

namespace e2e {

namespace serve = tpc::serve;

namespace {
constexpr int64_t kReplyTimeoutNs = 10'000'000'000;
}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- Daemon

Daemon::~Daemon() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
}

bool Daemon::Start(const std::string& binary, const std::string& socket_path,
                   const std::vector<std::string>& args,
                   const std::string& log_path, std::string* error) {
  std::vector<std::string> argv_s = {binary, "--unix", socket_path};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    *error = "cannot spawn " + binary + ": " + std::strerror(rc);
    return false;
  }
  return true;
}

bool Daemon::Stop(int64_t* peak_rss_kb, std::string* error) {
  if (pid_ <= 0) {
    *error = "daemon not running";
    return false;
  }
  kill(pid_, SIGTERM);
  int status = 0;
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  pid_t r;
  while ((r = wait4(pid_, &status, 0, &usage)) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  if (r < 0) {
    *error = std::string("wait4: ") + std::strerror(errno);
    return false;
  }
  *peak_rss_kb = usage.ru_maxrss;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "tpc_serve did not drain cleanly (status " +
             std::to_string(status) + ")";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------- Connection

Connection::~Connection() { Close(); }

void Connection::Close() {
  if (fd_ >= 0) {
    const std::string bye = serve::EncodeGoodbye();
    (void)!write(fd_, bye.data(), bye.size());
    close(fd_);
    fd_ = -1;
  }
}

bool Connection::Connect(const std::string& socket_path,
                         const std::string& tenant, int64_t deadline_ns,
                         std::string* error) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long: " + socket_path;
    return false;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size());
  while (true) {
    fd_ = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) {
      *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      break;
    }
    close(fd_);
    fd_ = -1;
    if (NowNs() > deadline_ns) {
      *error = "cannot connect to " + socket_path + ": " +
               std::strerror(errno);
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (!Send(serve::EncodeHello(tenant), error)) return false;
  serve::Frame frame;
  if (Poll(&frame, kReplyTimeoutNs, error) != 1) {
    if (error->empty()) *error = "no HELLO_OK";
    return false;
  }
  if (frame.type != serve::FrameType::kHelloOk) {
    *error = "HELLO refused";
    return false;
  }
  return true;
}

bool Connection::Send(const std::string& bytes, std::string* error) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      *error = std::string("send: ") + std::strerror(errno);
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

int Connection::Poll(serve::Frame* frame, int64_t timeout_ns,
                     std::string* error) {
  const int64_t deadline = timeout_ns < 0 ? -1 : NowNs() + timeout_ns;
  char buf[1 << 16];
  while (true) {
    switch (reader_.Poll(frame, error)) {
      case serve::FrameReader::Result::kFrame:
        return 1;
      case serve::FrameReader::Result::kError:
        return -1;
      case serve::FrameReader::Result::kNeedMore:
        break;
    }
    timespec wait;
    timespec* wait_ptr = nullptr;
    if (deadline >= 0) {
      const int64_t left = std::max<int64_t>(0, deadline - NowNs());
      wait.tv_sec = static_cast<time_t>(left / 1000000000);
      wait.tv_nsec = static_cast<long>(left % 1000000000);
      wait_ptr = &wait;
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int pr = ppoll(&pfd, 1, wait_ptr, nullptr);
    if (pr < 0) {
      if (errno == EINTR) continue;
      *error = std::string("poll: ") + std::strerror(errno);
      return -1;
    }
    if (pr == 0) {
      if (deadline >= 0 && NowNs() >= deadline) return 0;
      continue;
    }
    const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      *error = std::string("recv: ") + std::strerror(errno);
      return -1;
    }
    if (n == 0) {
      *error = "daemon closed the connection";
      return -1;
    }
    reader_.Feed(buf, static_cast<size_t>(n));
  }
}

bool Connection::Stats(std::string* json, std::string* error) {
  if (!Send(serve::EncodeStatsRequest(), error)) return false;
  serve::Frame frame;
  if (Poll(&frame, kReplyTimeoutNs, error) != 1) {
    if (error->empty()) *error = "no STATS_JSON";
    return false;
  }
  if (frame.type != serve::FrameType::kStatsJson) {
    *error = "unexpected frame while waiting for STATS_JSON";
    return false;
  }
  *json = std::move(frame.payload);
  return true;
}

}  // namespace e2e
