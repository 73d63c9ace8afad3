// Socket-level fault-injection proxy for the tests/net/ chaos suite.
//
// The proxy relays 127.0.0.1:<port()> <-> 127.0.0.1:<target_port> byte
// streams and, on command, misbehaves exactly the way a sick network does:
//
//   - SetDelayMs(d)       every forwarded chunk sleeps d first (both
//                         directions) — latency injection;
//   - CorruptNext()       flips one bit of the next client->server chunk
//                         (the CRC must catch it and the server must drop
//                         only that connection);
//   - TruncateAfter(n)    forwards exactly n more client->server bytes,
//                         then severs the connection — lets a test tear a
//                         frame mid-length-prefix;
//   - SeverDownstreamAfter(n) / CorruptDownstreamAt(n)
//                         the same faults on the server->client stream of
//                         the next connection: sever after exactly n
//                         bytes, or flip one bit of byte n (a frame torn
//                         or damaged at a chosen offset, e.g. mid-chunk);
//   - Blackhole(on)       swallows client->server bytes without
//                         forwarding (the client must hit its deadline,
//                         never hang);
//   - SeverAll()          resets every proxied connection right now.
//
// Faults are armed from the test thread via atomics; the pump threads
// observe them per-chunk. One pump thread per direction per connection,
// with 50ms poll ticks so shutdown is never blocked on a quiet socket.
#ifndef UFILTER_TESTS_SUPPORT_CHAOS_PROXY_H_
#define UFILTER_TESTS_SUPPORT_CHAOS_PROXY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"
#include "net/socket.h"

namespace ufilter::testing {

class ChaosProxy {
 public:
  /// Listens on an ephemeral port relaying to 127.0.0.1:target_port.
  /// Aborts the test process on listen failure (test-only code).
  explicit ChaosProxy(uint16_t target_port) : target_port_(target_port) {
    auto listen = net::ListenTcp(0);
    if (!listen.ok()) std::abort();
    listen_fd_ = *listen;
    auto port = net::LocalPort(listen_fd_);
    if (!port.ok()) std::abort();
    port_ = *port;
    accept_thread_ = std::thread([this] { AcceptLoop(); });
  }

  ~ChaosProxy() { Stop(); }

  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  uint16_t port() const { return port_; }

  void SetDelayMs(int64_t ms) {
    delay_ms_.store(ms, std::memory_order_relaxed);
  }
  void CorruptNext() { corrupt_next_.store(true, std::memory_order_relaxed); }
  /// Forward exactly `n` more client->server bytes, then sever.
  void TruncateAfter(int64_t n) {
    truncate_remaining_.store(n, std::memory_order_relaxed);
  }
  void Blackhole(bool on) { blackhole_.store(on, std::memory_order_relaxed); }
  /// Arm before the connection exists: offsets count from its first
  /// server->client byte. One-shot.
  void SeverDownstreamAfter(int64_t n) {
    downstream_sever_at_.store(n, std::memory_order_relaxed);
  }
  void CorruptDownstreamAt(int64_t n) {
    downstream_corrupt_at_.store(n, std::memory_order_relaxed);
  }

  void SeverAll() {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) conn->Sever();
  }

  uint64_t bytes_forwarded() const {
    return bytes_forwarded_.load(std::memory_order_relaxed);
  }

  /// Stops accepting and severs everything; joins all threads.
  void Stop() {
    bool expected = false;
    if (!stopped_.compare_exchange_strong(expected, true)) return;
    net::ShutdownFd(listen_fd_);
    accept_thread_.join();
    net::CloseFd(listen_fd_);
    SeverAll();
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) conn->Join();
    conns_.clear();
  }

 private:
  struct Conn {
    int client_fd = -1;
    int upstream_fd = -1;
    std::atomic<bool> stop{false};
    std::thread c2s;
    std::thread s2c;

    void Sever() {
      stop.store(true, std::memory_order_relaxed);
      net::ShutdownFd(client_fd);
      net::ShutdownFd(upstream_fd);
    }
    void Join() {
      if (c2s.joinable()) c2s.join();
      if (s2c.joinable()) s2c.join();
      net::CloseFd(client_fd);
      net::CloseFd(upstream_fd);
    }
  };

  void AcceptLoop() {
    while (!stopped_.load(std::memory_order_relaxed)) {
      auto fd = net::AcceptWithTimeout(listen_fd_, 100);
      if (!fd.ok()) {
        if (fd.status().IsDeadlineExceeded()) continue;
        return;  // listener shut down
      }
      auto upstream = net::ConnectTcp("127.0.0.1", target_port_,
                                      std::chrono::milliseconds(1000));
      if (!upstream.ok()) {
        net::CloseFd(*fd);
        continue;
      }
      auto conn = std::make_unique<Conn>();
      conn->client_fd = *fd;
      conn->upstream_fd = *upstream;
      Conn* raw = conn.get();
      conn->c2s = std::thread([this, raw] {
        Pump(raw, raw->client_fd, raw->upstream_fd, /*client_to_server=*/true);
      });
      conn->s2c = std::thread([this, raw] {
        Pump(raw, raw->upstream_fd, raw->client_fd, /*client_to_server=*/false);
      });
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
  }

  void Pump(Conn* conn, int from, int to, bool client_to_server) {
    char buf[4096];
    // Server->client faults belong to the connection that claims them.
    int64_t sever_at = -1;
    int64_t corrupt_at = -1;
    if (!client_to_server) {
      sever_at = downstream_sever_at_.exchange(-1, std::memory_order_relaxed);
      corrupt_at =
          downstream_corrupt_at_.exchange(-1, std::memory_order_relaxed);
    }
    int64_t seen = 0;  // bytes of this direction read so far
    while (!conn->stop.load(std::memory_order_relaxed) &&
           !stopped_.load(std::memory_order_relaxed)) {
      auto deadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
      auto got = net::RecvSome(from, buf, sizeof(buf), deadline);
      if (!got.ok()) {
        if (got.status().IsDeadlineExceeded()) continue;  // idle tick
        break;  // peer gone
      }
      size_t n = *got;
      int64_t delay = delay_ms_.load(std::memory_order_relaxed);
      if (delay > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      }
      // A blackhole is silent in both directions — requests vanish and so
      // do responses/heartbeats; only the peers' own deadlines can notice.
      if (blackhole_.load(std::memory_order_relaxed)) continue;
      if (!client_to_server) {
        if (corrupt_at >= seen && corrupt_at < seen + static_cast<int64_t>(n)) {
          buf[corrupt_at - seen] ^= 0x40;
        }
        if (sever_at >= 0 && sever_at < seen + static_cast<int64_t>(n)) {
          const size_t keep = static_cast<size_t>(sever_at - seen);
          if (keep > 0) {
            (void)net::SendAll(to, buf, keep,
                               std::chrono::steady_clock::now() +
                                   std::chrono::milliseconds(1000));
          }
          conn->Sever();
          break;
        }
        seen += static_cast<int64_t>(n);
      }
      if (client_to_server) {
        bool expected = true;
        if (corrupt_next_.compare_exchange_strong(expected, false)) {
          buf[0] ^= 0x40;
        }
        int64_t remaining = truncate_remaining_.load(std::memory_order_relaxed);
        if (remaining >= 0) {
          if (static_cast<int64_t>(n) >= remaining) {
            n = static_cast<size_t>(remaining);
            // One-shot: disarm so later connections relay normally.
            truncate_remaining_.store(-1, std::memory_order_relaxed);
            if (n > 0) {
              (void)net::SendAll(
                  to, buf, n,
                  std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(1000));
              bytes_forwarded_.fetch_add(n, std::memory_order_relaxed);
            }
            conn->Sever();
            break;
          }
          truncate_remaining_.store(remaining - static_cast<int64_t>(n),
                                    std::memory_order_relaxed);
        }
      }
      Status sent = net::SendAll(to, buf, n,
                                      std::chrono::steady_clock::now() +
                                          std::chrono::milliseconds(2000));
      if (!sent.ok()) break;
      bytes_forwarded_.fetch_add(n, std::memory_order_relaxed);
    }
    // One dead direction kills the whole proxied connection: half-open
    // relays only hide bugs the real network would expose.
    conn->Sever();
  }

  uint16_t target_port_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopped_{false};

  std::atomic<int64_t> delay_ms_{0};
  std::atomic<bool> corrupt_next_{false};
  std::atomic<int64_t> truncate_remaining_{-1};
  std::atomic<bool> blackhole_{false};
  std::atomic<int64_t> downstream_sever_at_{-1};
  std::atomic<int64_t> downstream_corrupt_at_{-1};
  std::atomic<uint64_t> bytes_forwarded_{0};

  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace ufilter::testing

#endif  // UFILTER_TESTS_SUPPORT_CHAOS_PROXY_H_
