#include "procs.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "net/client.h"

namespace perfbench {

namespace {

/// Live server pids. Plain atomics, not a locked container, because
/// KillAllServers also runs from a signal handler.
constexpr int kMaxServers = 8;
std::atomic<pid_t> g_live[kMaxServers];

void Register(pid_t pid) {
  for (auto& slot : g_live) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
}

void Unregister(pid_t pid) {
  for (auto& slot : g_live) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

/// waitpid with a timeout; true once reaped.
bool WaitFor(pid_t pid, int timeout_ms) {
  const auto end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    int status = 0;
    pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) return true;
    if (std::chrono::steady_clock::now() >= end) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

ufilter::Result<ServerProc> SpawnServer(const std::string& bin,
                                        const std::vector<std::string>& args,
                                        const std::string& log_path,
                                        int timeout_ms) {
  int out[2];
  if (::pipe(out) != 0) return ufilter::Status::Internal("pipe failed");
  std::vector<std::string> argv_s{bin};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = ::fork();
  if (pid < 0) return ufilter::Status::Internal("fork failed");
  if (pid == 0) {
    ::dup2(out[1], STDOUT_FILENO);
    int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) ::dup2(log, STDERR_FILENO);
    ::close(out[0]);
    ::close(out[1]);
    ::execv(bin.c_str(), argv.data());
    std::fprintf(stderr, "exec %s failed: %s\n", bin.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }
  Register(pid);
  ::close(out[1]);
  ServerProc proc;
  proc.pid = pid;
  std::string buf;
  const auto end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  bool ready = false;
  while (!ready) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          end - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) break;
    pollfd pfd{out[0], POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left)) <= 0) continue;
    char chunk[256];
    ssize_t n = ::read(out[0], chunk, sizeof(chunk));
    if (n <= 0) break;  // the process exited before READY
    buf.append(chunk, static_cast<size_t>(n));
    size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      unsigned port = 0;
      if (std::sscanf(line.c_str(), "REPL %u", &port) == 1) {
        proc.repl_port = static_cast<uint16_t>(port);
      } else if (std::sscanf(line.c_str(), "READY %u", &port) == 1) {
        proc.port = static_cast<uint16_t>(port);
        ready = true;
      }
    }
  }
  // The server writes nothing to stdout after READY; closing our end is
  // safe (a later write would only raise EPIPE in the child).
  ::close(out[0]);
  if (!ready) {
    StopServer(&proc, 1000);
    return ufilter::Status::Internal("server did not print READY: " + bin);
  }
  return proc;
}

void StopServer(ServerProc* p, int timeout_ms) {
  if (p->pid <= 0) return;
  ::kill(p->pid, SIGCONT);  // in case a self-test left it stopped
  ::kill(p->pid, SIGTERM);
  if (!WaitFor(p->pid, timeout_ms)) {
    ::kill(p->pid, SIGKILL);
    WaitFor(p->pid, 5000);
  }
  Unregister(p->pid);
  p->pid = -1;
}

void KillAllServers() {
  for (auto& slot : g_live) {
    const pid_t pid = slot.exchange(0);
    if (pid <= 0) continue;
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
}

double PeakRssMb(pid_t pid) {
  std::string path = "/proc/" + std::to_string(pid) + "/status";
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

double CpuSeconds(pid_t pid) {
  std::string path = "/proc/" + std::to_string(pid) + "/stat";
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  char buf[1024];
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  // Fields 14 and 15 (utime, stime) follow the parenthesised command name,
  // which may itself hold spaces: count from its closing parenthesis.
  const char* p = std::strrchr(buf, ')');
  unsigned long long utime = 0, stime = 0;
  if (p == nullptr ||
      std::sscanf(p + 2, "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                  &utime, &stime) != 2) {
    return 0;
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

ufilter::Result<ufilter::net::MetricsMsg> Scrape(uint16_t port) {
  ufilter::net::ClientOptions opts;
  opts.port = port;
  opts.max_attempts = 1;
  opts.request_timeout = std::chrono::milliseconds(5000);
  opts.max_frame_bytes = ufilter::net::kReplMaxFrameBytes;
  ufilter::net::Client client(opts);
  return client.Metrics();
}

uint64_t MetricValue(const ufilter::net::MetricsMsg& m,
                     const std::string& name) {
  const ufilter::net::WireMetric* e = m.Find(name);
  return e != nullptr ? e->value : 0;
}

}  // namespace perfbench
