// C++ client for the network front end: connect/request timeouts, deadline
// propagation, and jittered exponential-backoff retry on transient
// failures.
//
// Retry policy (the contract the chaos tests pin down):
//   - retried: connect refused/timed out (nothing reached the server),
//     kShed / kDraining verdicts (the server certifies nothing executed;
//     honors the server's retry_after_ms as a floor under the backoff),
//     and kDeadlineExceeded verdicts (admission reject or queue purge —
//     the server certifies the request never executed, so even an apply
//     is safe to resend);
//   - retried only for check-only requests: a connection that dies or
//     times out *after* an apply request was sent — the server may have
//     executed it, the client cannot know (indeterminate), and resending
//     could double-apply. Those return kUnavailable/kDeadlineExceeded to
//     the caller, counted in metrics().indeterminate.
// Backoff is full-jitter exponential: uniform(0, min(base * 2^attempt,
// max)), deterministic per client via jitter_seed.
//
// A Client owns one connection, lazily (re)established; any failed attempt
// closes it so no stale bytes of a previous exchange can be misread as a
// response. Not thread-safe — one Client per thread (they are cheap).
#ifndef UFILTER_NET_CLIENT_H_
#define UFILTER_NET_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <random>
#include <string>

#include "common/result.h"
#include "net/frame.h"
#include "net/socket.h"

namespace ufilter::net {

struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::chrono::milliseconds connect_timeout{1000};
  /// Per-attempt budget; also the deadline the request carries to the
  /// server (minus nothing — the server rebases it on arrival).
  std::chrono::milliseconds request_timeout{2000};
  /// Total tries per call, the first included.
  int max_attempts = 4;
  std::chrono::milliseconds backoff_base{10};
  std::chrono::milliseconds backoff_max{250};
  /// Seed of the deterministic jitter stream (tests pin it).
  uint32_t jitter_seed = 1;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

struct ClientMetrics {
  uint64_t requests = 0;
  uint64_t retries = 0;
  uint64_t reconnects = 0;
  /// Retry-triggering verdicts seen (shed/draining and deadline-exceeded).
  uint64_t shed_seen = 0;
  uint64_t deadline_seen = 0;
  /// Applies abandoned because their outcome is unknowable (connection
  /// died after the request was sent). Never retried.
  uint64_t indeterminate = 0;
};

class Client {
 public:
  explicit Client(ClientOptions options);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// One end-to-end check with retries. OK holds the server's verdict
  /// (which may be a rejection — kInvalid etc.; transport succeeded).
  /// Errors: kUnavailable (server unreachable / retries exhausted /
  /// indeterminate apply), kDeadlineExceeded (client-side budget spent).
  Result<CheckResponseMsg> Check(const std::string& update_text, bool apply);

  /// Round-trips a ping (no retries beyond the standard policy).
  Status Ping();

  /// Fetches the server's full metric registry (counters, gauges, latency
  /// histograms) — everything obs::Registry::Collect() sees in-process.
  Result<MetricsMsg> Metrics();

  const ClientMetrics& metrics() const { return metrics_; }

  /// Drops the connection; the next call reconnects.
  void Disconnect();

  bool connected() const { return fd_ >= 0; }

 private:
  /// Sends `payload` and waits for the response frame with `request_id`.
  /// `sent` reports whether any request bytes may have reached the wire
  /// (the indeterminacy marker for applies).
  Result<std::string> RoundTrip(const std::string& payload,
                                uint64_t request_id, bool* sent);
  Status EnsureConnected();
  std::chrono::milliseconds BackoffDelay(int attempt, uint32_t floor_ms);

  ClientOptions options_;
  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  std::mt19937 jitter_;
  ClientMetrics metrics_;
};

}  // namespace ufilter::net

#endif  // UFILTER_NET_CLIENT_H_
