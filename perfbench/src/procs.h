// Spawning and stopping ufilter_server processes, plus the kMetrics
// scrapes the benchmark takes from them.
#ifndef UFILTER_PERFBENCH_PROCS_H_
#define UFILTER_PERFBENCH_PROCS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "net/frame.h"

namespace perfbench {

struct ServerProc {
  pid_t pid = -1;
  uint16_t port = 0;
  /// Replication port ("REPL <port>"), 0 when the process has none.
  uint16_t repl_port = 0;
};

/// fork+exec `bin args...` with stderr appended to `log_path`; waits up to
/// `timeout_ms` for its "READY <port>" line. Every spawned process (at most
/// 8 at a time) is registered so that KillAllServers can reap it on an
/// early exit.
ufilter::Result<ServerProc> SpawnServer(const std::string& bin,
                                        const std::vector<std::string>& args,
                                        const std::string& log_path,
                                        int timeout_ms);

/// SIGTERM (graceful drain), then SIGKILL after `timeout_ms`; always reaps.
void StopServer(ServerProc* p, int timeout_ms = 10000);

/// SIGKILLs and reaps every server still registered (async-signal-safe).
void KillAllServers();

/// VmHWM of `pid` in MiB (0 when unreadable).
double PeakRssMb(pid_t pid);

/// User plus system CPU time of `pid`, all threads, in seconds (0 when
/// unreadable).
double CpuSeconds(pid_t pid);

/// One kMetrics scrape over a short-lived client connection.
ufilter::Result<ufilter::net::MetricsMsg> Scrape(uint16_t port);

/// Value of a counter/gauge in a scrape (0 when absent).
uint64_t MetricValue(const ufilter::net::MetricsMsg& m,
                     const std::string& name);

}  // namespace perfbench

#endif  // UFILTER_PERFBENCH_PROCS_H_
