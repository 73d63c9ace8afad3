#include "loadgen.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include "net/frame.h"
#include "net/socket.h"

namespace perfbench {

namespace net = ufilter::net;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct LoadGen::Conn {
  int fd = -1;
  net::FrameReader reader;
  std::string out;
  size_t out_off = 0;
  uint64_t next_id = 1;
  bool dead = false;
};

namespace {

constexpr int64_t kPollPeriodNs = 1'000'000;
constexpr int64_t kMaxSleepNs = 2'000'000;

/// One connection's work in the current window.
struct Slot {
  LoadGen::Conn* c = nullptr;
  const StreamPlan* plan = nullptr;
  std::vector<Outcome>* res = nullptr;
  size_t next = 0;
  /// The requests encoded before the window starts; request i carries id
  /// first_id + i.
  std::vector<std::string> frames;
  uint64_t first_id = 0;
  /// (request id, index into plan) in send order; the server answers each
  /// connection in request order.
  std::deque<std::pair<uint64_t, size_t>> inflight;
};

struct PollSlot {
  LoadGen::Conn* c = nullptr;
  uint64_t target = 0;
  std::vector<PollSample>* samples = nullptr;
  bool outstanding = false;
  int64_t sent_at = 0;
  int64_t next_at = 0;
  uint64_t last_epoch = 0;
};

struct Shared {
  std::mutex mu;
  WindowResult* result = nullptr;

  void Fail(uint64_t n, const std::string& why) {
    std::lock_guard<std::mutex> lock(mu);
    result->failed += n;
    if (result->errors.size() < 8) result->errors.push_back(why);
  }
};

void FailInflight(Slot* s, Shared* shared, const std::string& why) {
  uint64_t n = s->inflight.size() + (s->plan->reqs.size() - s->next);
  s->inflight.clear();
  s->next = s->plan->reqs.size();
  if (n > 0) shared->Fail(n, why);
}

/// Parses every complete frame buffered on `c`. Returns false when the
/// connection is unusable.
bool DrainFrames(LoadGen::Conn* c, Slot* s, PollSlot* p, int64_t now,
                 Shared* shared) {
  for (;;) {
    auto next = c->reader.Next();
    if (!next.ok()) {
      shared->Fail(0, "frame error: " + next.status().ToString());
      return false;
    }
    if (!next->has_value()) return true;
    const std::string& payload = **next;
    if (p != nullptr) {
      auto m = net::DecodeMetricsResponse(payload);
      if (!m.ok()) {
        shared->Fail(0, "bad metrics response: " + m.status().ToString());
        return false;
      }
      const net::WireMetric* e = m->Find("db_commit_epoch");
      p->last_epoch = e != nullptr ? e->value : 0;
      p->samples->push_back({p->sent_at, now, p->last_epoch});
      p->outstanding = false;
      continue;
    }
    auto r = net::DecodeCheckResponse(payload);
    if (!r.ok() || s->inflight.empty() ||
        r->request_id != s->inflight.front().first) {
      shared->Fail(0, "unexpected response frame");
      return false;
    }
    const size_t idx = s->inflight.front().second;
    s->inflight.pop_front();
    const Request& req = s->plan->reqs[idx];
    Outcome& o = (*s->res)[idx];
    o.done = now;
    o.ok = r->verdict == req.expect && r->rows_affected == req.expect_rows;
    if (!o.ok) {
      shared->Fail(1, std::string(KindName(req.kind)) + (req.apply ? " apply" : " check") +
                          ": got " + net::VerdictName(r->verdict) + "/" +
                          std::to_string(r->rows_affected) + " want " +
                          net::VerdictName(req.expect) + "/" +
                          std::to_string(req.expect_rows) + " (" +
                          r->message + ")");
    }
  }
}

void Drive(std::vector<Slot> slots, PollSlot* poll, int64_t t0,
           int64_t hard_deadline, Shared* shared) {
  std::vector<LoadGen::Conn*> conns;
  for (Slot& s : slots) conns.push_back(s.c);
  if (poll != nullptr) conns.push_back(poll->c);
  std::vector<pollfd> fds(conns.size());
  char buf[1 << 16];
  for (;;) {
    const int64_t now = NowNs() - t0;
    bool all_done = true;
    int64_t wake = now + kMaxSleepNs;
    for (Slot& s : slots) {
      const StreamPlan& plan = *s.plan;
      while (s.next < plan.reqs.size() && plan.due[s.next] <= now) {
        s.c->out += s.frames[s.next];
        (*s.res)[s.next].sent = now;
        s.inflight.push_back({s.first_id + s.next, s.next});
        ++s.next;
      }
      if (s.next < plan.reqs.size()) wake = std::min(wake, plan.due[s.next]);
      if (s.next < plan.reqs.size() || !s.inflight.empty()) all_done = false;
    }
    if (poll != nullptr) {
      if (!poll->outstanding && now >= poll->next_at) {
        poll->c->out += net::FramePayload(net::EncodeMetricsRequest());
        poll->outstanding = true;
        poll->sent_at = now;
        poll->next_at = now + kPollPeriodNs;
      }
      if (!poll->outstanding) wake = std::min(wake, poll->next_at);
      // Keep polling until the follower shows the last apply.
      if (poll->last_epoch < poll->target) all_done = false;
    }
    if (all_done) break;
    if (now > hard_deadline) {
      for (Slot& s : slots) FailInflight(&s, shared, "no response before deadline");
      if (poll != nullptr) {
        std::lock_guard<std::mutex> lock(shared->mu);
        shared->result->follower_caught_up = false;
      }
      break;
    }
    for (size_t i = 0; i < conns.size(); ++i) {
      LoadGen::Conn* c = conns[i];
      while (c->out_off < c->out.size()) {
        ssize_t n = ::send(c->fd, c->out.data() + c->out_off,
                           c->out.size() - c->out_off,
                           MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
          c->out_off += static_cast<size_t>(n);
        } else {
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n < 0 && errno == EINTR) continue;
          c->dead = true;
          break;
        }
      }
      if (c->out_off == c->out.size()) {
        c->out.clear();
        c->out_off = 0;
      }
      fds[i].fd = c->fd;
      fds[i].events = POLLIN | (c->out.empty() ? 0 : POLLOUT);
      fds[i].revents = 0;
    }
    const int64_t sleep_ns = std::max<int64_t>(0, wake - (NowNs() - t0));
    timespec ts{static_cast<time_t>(sleep_ns / 1'000'000'000),
                static_cast<long>(sleep_ns % 1'000'000'000)};
    int rc = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (rc < 0 && errno != EINTR) {
      for (Slot& s : slots) FailInflight(&s, shared, "ppoll failed");
      break;
    }
    const int64_t done_at = NowNs() - t0;
    for (size_t i = 0; i < conns.size(); ++i) {
      LoadGen::Conn* c = conns[i];
      if (!c->dead && (fds[i].revents & (POLLIN | POLLHUP | POLLERR))) {
        for (;;) {
          ssize_t n = ::recv(c->fd, buf, sizeof(buf), MSG_DONTWAIT);
          if (n > 0) {
            c->reader.Feed(buf, static_cast<size_t>(n));
            if (static_cast<size_t>(n) < sizeof(buf)) break;
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n < 0 && errno == EINTR) continue;
          c->dead = true;  // EOF or reset
          break;
        }
        Slot* s = i < slots.size() ? &slots[i] : nullptr;
        PollSlot* p = i < slots.size() ? nullptr : poll;
        if (!DrainFrames(c, s, p, done_at, shared)) c->dead = true;
      }
      if (c->dead) {
        if (i < slots.size()) {
          FailInflight(&slots[i], shared, "connection lost");
        } else if (poll != nullptr) {
          shared->Fail(0, "follower poll connection lost");
          std::lock_guard<std::mutex> lock(shared->mu);
          shared->result->follower_caught_up = false;
          poll = nullptr;
          conns.pop_back();
          fds.pop_back();
          break;
        }
      }
    }
  }
}

std::unique_ptr<LoadGen::Conn> Open(uint16_t port, std::string* error) {
  auto fd = net::ConnectTcp("127.0.0.1", port, std::chrono::milliseconds(2000));
  if (!fd.ok()) {
    *error = fd.status().ToString();
    return nullptr;
  }
  auto c = std::make_unique<LoadGen::Conn>();
  c->fd = *fd;
  int one = 1;
  ::setsockopt(c->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(c->fd, F_SETFL, ::fcntl(c->fd, F_GETFL) | O_NONBLOCK);
  c->out.assign(net::kNetMagic, net::kNetMagicLen);
  return c;
}

}  // namespace

std::unique_ptr<LoadGen> LoadGen::Connect(uint16_t primary_port,
                                          uint16_t follower_port,
                                          std::string* error) {
  std::unique_ptr<LoadGen> g(new LoadGen());
  for (int i = 0; i < 3; ++i) {
    auto c = Open(primary_port, error);
    if (c == nullptr) return nullptr;
    g->conns_.push_back(std::move(c));
  }
  if (follower_port != 0) {
    auto c = Open(follower_port, error);
    if (c == nullptr) return nullptr;
    g->conns_.push_back(std::move(c));
  }
  return g;
}

LoadGen::~LoadGen() {
  for (auto& c : conns_) net::CloseFd(c->fd);
}

WindowResult LoadGen::Run(const WindowPlan& plan, int64_t drain_ns) {
  WindowResult result;
  Shared shared;
  shared.result = &result;
  int64_t last_due = 0;
  auto slot = [&](int conn, const StreamPlan& p, std::vector<Outcome>* res) {
    res->resize(p.reqs.size());
    for (size_t i = 0; i < p.reqs.size(); ++i) (*res)[i].due = p.due[i];
    if (!p.due.empty()) last_due = std::max(last_due, p.due.back());
    Slot s;
    s.c = conns_[conn].get();
    s.plan = &p;
    s.res = res;
    s.first_id = s.c->next_id;
    s.frames.reserve(p.reqs.size());
    for (const Request& req : p.reqs) {
      net::CheckRequestMsg msg;
      msg.request_id = s.c->next_id++;
      msg.apply = req.apply;
      msg.update_text = req.text;
      s.frames.push_back(net::FramePayload(net::EncodeCheckRequest(msg)));
    }
    if (s.c->dead) FailInflight(&s, &shared, "connection lost earlier");
    return s;
  };
  std::vector<Slot> t0_slots{slot(0, plan.checks[0], &result.checks[0])};
  std::vector<Slot> t1_slots{slot(1, plan.checks[1], &result.checks[1]),
                             slot(2, plan.applies, &result.applies)};
  PollSlot poll;
  PollSlot* poll_ptr = nullptr;
  if (plan.follower_target_epoch > 0 && conns_.size() > 3) {
    poll.c = conns_[3].get();
    poll.target = plan.follower_target_epoch;
    poll.samples = &result.polls;
    poll_ptr = &poll;
  }
  const int64_t t0 = NowNs() + kStartDelayNs;
  const int64_t hard = last_due + drain_ns;
  std::thread other(Drive, std::move(t1_slots), poll_ptr, t0, hard, &shared);
  Drive(std::move(t0_slots), nullptr, t0, hard, &shared);
  other.join();
  return result;
}

}  // namespace perfbench
