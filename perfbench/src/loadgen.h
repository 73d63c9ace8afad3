// Open-loop, pipelined load generator over UFNET001. Two generator threads
// drive every connection with ppoll(2): requests go out at their Poisson
// due times whether or not earlier ones were answered, and each request is
// timed from its due time, so a server stall also counts against the
// requests queued behind it (no coordinated omission).
//
// Thread 0 owns check connection 0. Thread 1 owns check connection 1, the
// apply connection and the follower poll connection, which scrapes the
// follower's db_commit_epoch gauge over kMetrics about once a millisecond
// while a window carries applies.
#ifndef UFILTER_PERFBENCH_LOADGEN_H_
#define UFILTER_PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

int64_t NowNs();

/// One connection's requests in one window, in due order.
struct StreamPlan {
  std::vector<Request> reqs;
  /// Due offsets from the window start, ns, non-decreasing.
  std::vector<int64_t> due;
};

/// Per-request timeline, ns relative to the window start. done < 0 means
/// no response arrived.
struct Outcome {
  int64_t due = 0;
  int64_t sent = 0;
  int64_t done = -1;
  bool ok = false;
};

struct PollSample {
  int64_t sent = 0;
  int64_t done = 0;
  uint64_t epoch = 0;
};

struct WindowPlan {
  StreamPlan checks[2];
  StreamPlan applies;
  /// Poll the follower until its epoch reaches this (0 = do not poll).
  uint64_t follower_target_epoch = 0;
};

struct WindowResult {
  std::vector<Outcome> checks[2];
  std::vector<Outcome> applies;
  std::vector<PollSample> polls;
  uint64_t failed = 0;
  /// First few failure descriptions, for the result file.
  std::vector<std::string> errors;
  /// True when the follower reached the target epoch before the deadline.
  bool follower_caught_up = true;
};

class LoadGen {
 public:
  /// Opens the two check connections and the apply connection to the
  /// primary, plus the poll connection when follower_port != 0.
  static std::unique_ptr<LoadGen> Connect(uint16_t primary_port,
                                          uint16_t follower_port,
                                          std::string* error);
  ~LoadGen();

  /// Runs one window: starts shortly after the call, returns once every
  /// request was answered (or `drain_ns` past the last due time).
  WindowResult Run(const WindowPlan& plan, int64_t drain_ns);

  /// A window starts this long after Run is called.
  static constexpr int64_t kStartDelayNs = 10'000'000;

  struct Conn;

 private:
  LoadGen() = default;
  std::vector<std::unique_ptr<Conn>> conns_;  // check0, check1, apply, poll
};

/// Latency quantile (linear interpolation between order statistics).
double Quantile(std::vector<double> v, double q);

}  // namespace perfbench

#endif  // UFILTER_PERFBENCH_LOADGEN_H_
