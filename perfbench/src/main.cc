// ufbench: the end-to-end benchmark of the U-Filter server.
//
//   ufbench --workload NAME --seed N --seconds S --trace 0|1
//           [--server-bin PATH] [--out-dir DIR]
//           [--stall-primary-ms MS] [--pause-follower-ms MS]
//
// Starts a ufilter_server primary and a --follow replica, drives them over
// UFNET001 with the open-loop generator (loadgen.h), checks every verdict,
// and prints each end-to-end metric with its unit and sample count; with
// --trace 1 it adds the in-process traced replay (traced.h) and its
// per-layer metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The full result (both metric sets, the stage cross-check, the ladder
// rungs) goes to DIR/<workload>-seed<N>-trace<T>.json. See README.md.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.h"
#include "obs/trace.h"
#include "procs.h"
#include "traced.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr int kSetups = 11;
/// A capacity rung's p99 is the median of the p99s of this many equal
/// spans of the rung (see RungP99Us).
constexpr int kRungSpans = 9;
/// The ladder spans check_rate * 2^-6 .. check_rate * 2^6.
constexpr int kLadderOctaves = 6;
/// Counted as the latency of a request that failed: it misses every limit.
constexpr double kFailedLatencyUs = 1e12;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string server_bin;
  std::string out_dir = ".bench_out";
  int stall_primary_ms = 0;
  int pause_follower_ms = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = kFailedLatencyUs;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// --- window planning and evaluation --------------------------------------

/// Checks at `check_rate` (one Poisson stream split round-robin over the
/// two check connections) and applies at `apply_rate`, over `seconds`.
WindowPlan MakePlan(RequestSource* src, double check_rate, double apply_rate,
                    double seconds, uint64_t check_seed, uint64_t apply_seed) {
  WindowPlan p;
  if (check_rate > 0) {
    std::vector<int64_t> due = PoissonDueTimes(check_rate, seconds, check_seed);
    for (size_t i = 0; i < due.size(); ++i) {
      p.checks[i % 2].due.push_back(due[i]);
      p.checks[i % 2].reqs.push_back(src->NextCheck());
    }
  }
  if (apply_rate > 0) {
    p.applies.due = PoissonDueTimes(apply_rate, seconds, apply_seed);
    for (size_t i = 0; i < p.applies.due.size(); ++i) {
      p.applies.reqs.push_back(src->NextApply());
    }
  }
  return p;
}

std::vector<Outcome> CheckOutcomes(const WindowResult& r) {
  std::vector<Outcome> all = r.checks[0];
  all.insert(all.end(), r.checks[1].begin(), r.checks[1].end());
  return all;
}

/// Latency from due time in us; failures count as missing every limit.
std::vector<double> LatenciesUs(const std::vector<Outcome>& v) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const Outcome& o : v) {
    out.push_back(o.ok && o.done >= 0
                      ? static_cast<double>(o.done - o.due) / 1e3
                      : kFailedLatencyUs);
  }
  return out;
}

std::vector<double> LatenessUs(const std::vector<Outcome>& v) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const Outcome& o : v) {
    out.push_back(static_cast<double>(o.sent - o.due) / 1e3);
  }
  return out;
}

/// Time-averaged number of requests due but unanswered over [a, b) (ns
/// into the window); a failed request stays in flight.
double MeanInFlight(const std::vector<Outcome>& v, int64_t a, int64_t b) {
  double busy = 0;
  for (const Outcome& o : v) {
    const int64_t done = o.done < 0 ? b : o.done;
    const int64_t lo = std::max(a, o.due), hi = std::min(b, done);
    if (hi > lo) busy += static_cast<double>(hi - lo);
  }
  return busy / static_cast<double>(b - a);
}

/// The p99 a capacity rung is judged by: the rung is cut into kRungSpans
/// equal spans of due time and the median of their p99s is taken. On a
/// shared VM the generator's own wake-ups run a few ms late now and then,
/// even at 60 checks/s, so a pooled p99 over a short rung would judge the
/// host, not the server. Reported latency quantiles are pooled.
double RungP99Us(const std::vector<Outcome>& v, const std::vector<double>& lat,
                 double window_s) {
  std::vector<std::vector<double>> spans(kRungSpans);
  const double span_ns = window_s * 1e9 / kRungSpans;
  for (size_t i = 0; i < v.size(); ++i) {
    const size_t k = std::min<size_t>(
        kRungSpans - 1,
        static_cast<size_t>(static_cast<double>(v[i].due) / span_ns));
    spans[k].push_back(lat[i]);
  }
  std::vector<double> p99s;
  for (const auto& span : spans) {
    if (!span.empty()) p99s.push_back(Quantile(span, 0.99));
  }
  return Quantile(p99s, 0.5);
}

struct Rung {
  int k = 0;
  double offered_rps = 0;
  double achieved_rps = 0;
  uint64_t checks = 0;
  double p99_us = 0;
  double late_p99_us = 0;
  double inflight_q2 = 0;
  double inflight_q4 = 0;
  uint64_t failed = 0;
  bool pass = false;
  std::vector<double> lateness;
};

/// A rung passes when its check p99 (RungP99Us) is within the limit, no
/// request failed and the backlog did not grow: the mean in-flight count
/// over the last quarter stays below 1.5x that of the second quarter + 8
/// (the first quarter still fills the pipeline).
Rung Evaluate(int k, double offered, const WindowResult& r, double window_s,
              double limit_us) {
  Rung g;
  g.k = k;
  g.offered_rps = offered;
  const std::vector<Outcome> checks = CheckOutcomes(r);
  g.checks = checks.size();
  g.failed = r.failed;
  g.lateness = LatenessUs(checks);
  g.late_p99_us = Quantile(g.lateness, 0.99);
  g.achieved_rps = static_cast<double>(g.checks) / window_s;
  g.p99_us = RungP99Us(checks, LatenciesUs(checks), window_s);
  const int64_t end = static_cast<int64_t>(window_s * 1e9);
  g.inflight_q2 = MeanInFlight(checks, end / 4, end / 2);
  g.inflight_q4 = MeanInFlight(checks, end * 3 / 4, end);
  const bool growing = g.inflight_q4 > 1.5 * g.inflight_q2 + 8;
  g.pass = g.failed == 0 && g.p99_us <= limit_us && !growing;
  return g;
}

/// Follower visibility of each apply: from its ack to the first follower
/// poll, sent after the ack, that shows db_commit_epoch >= base + i.
std::vector<double> VisibilityMs(const std::vector<Outcome>& applies,
                                 const std::vector<PollSample>& polls,
                                 uint64_t base_epoch) {
  std::vector<double> out;
  size_t j = 0;
  for (size_t i = 0; i < applies.size(); ++i) {
    const Outcome& a = applies[i];
    if (!a.ok || a.done < 0) {
      out.push_back(kFailedLatencyUs);
      continue;
    }
    const uint64_t target = base_epoch + i + 1;
    while (j < polls.size() &&
           (polls[j].sent < a.done || polls[j].epoch < target)) {
      ++j;
    }
    out.push_back(j < polls.size()
                      ? static_cast<double>(polls[j].done - a.done) / 1e6
                      : kFailedLatencyUs);
  }
  return out;
}

/// Stage cross-check: the server's own check_latency_ns and stage_*_ns
/// histograms, diffed over a window. The stage means (per request) must
/// sum to the latency mean within 10%; response_write happens after the
/// latency is recorded, so it is reported but not summed.
std::string StageCrossCheck(const ufilter::net::MetricsMsg& before,
                            const ufilter::net::MetricsMsg& after,
                            bool* flagged) {
  auto delta = [&](const std::string& name, double* sum, double* count) {
    const ufilter::net::WireMetric* a = after.Find(name);
    const ufilter::net::WireMetric* b = before.Find(name);
    *sum = a == nullptr ? 0 : static_cast<double>(a->hist_sum);
    *count = a == nullptr ? 0 : static_cast<double>(a->hist_count);
    if (b != nullptr) {
      *sum -= static_cast<double>(b->hist_sum);
      *count -= static_cast<double>(b->hist_count);
    }
  };
  double lat_sum = 0, requests = 0;
  delta("check_latency_ns", &lat_sum, &requests);
  std::string json = "{\"requests\":" + Num(requests) + ",\"stages\":{";
  double stage_total = 0;
  for (size_t i = 0; i < ufilter::obs::kStageCount; ++i) {
    const auto stage = static_cast<ufilter::obs::Stage>(i);
    double sum = 0, count = 0;
    delta(std::string("stage_") + ufilter::obs::StageName(stage) + "_ns", &sum,
          &count);
    if (stage != ufilter::obs::Stage::kResponseWrite) stage_total += sum;
    json += std::string(i == 0 ? "" : ",") + "\"" +
            ufilter::obs::StageName(stage) + "\":{\"mean_us\":" +
            Num(count > 0 ? sum / count / 1e3 : 0) +
            ",\"per_request_us\":" +
            Num(requests > 0 ? sum / requests / 1e3 : 0) +
            ",\"count\":" + Num(count) + "}";
  }
  const double lat_mean = requests > 0 ? lat_sum / requests : 0;
  const double stage_mean = requests > 0 ? stage_total / requests : 0;
  const double ratio = lat_mean > 0 ? stage_mean / lat_mean : 0;
  *flagged = requests > 0 && std::fabs(ratio - 1.0) > 0.10;
  json += "},\"check_latency_mean_us\":" + Num(lat_mean / 1e3) +
          ",\"stage_sum_us\":" + Num(stage_mean / 1e3) +
          ",\"ratio\":" + Num(ratio) +
          ",\"flagged\":" + (*flagged ? "true" : "false") + "}";
  return json;
}

// --- the end-to-end run ---------------------------------------------------

struct Servers {
  ServerProc primary;
  ServerProc follower;
};

class Run {
 public:
  Run(const Options& o, const WorkloadSpec& w, std::string dir)
      : o_(o), w_(w), dir_(std::move(dir)), src_(w, o.seed) {}

  bool Execute();

  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  double late_p99_us = 0;
  std::string detail;  // JSON members for the result file

 private:
  bool Setup(Servers* s, double* seconds);
  bool FollowerCaughtUp(const Servers& s);
  WindowResult RunWindow(const WindowPlan& plan, double window_s,
                         pid_t fault_pid = 0, int fault_ms = 0);
  void Account(const WindowResult& r, const WindowPlan& p);
  bool Error(const std::string& why) {
    errors.push_back(why);
    ++failed;
    return false;
  }

  const Options& o_;
  const WorkloadSpec& w_;
  std::string dir_;
  RequestSource src_;
  std::unique_ptr<LoadGen> gen_;
  uint64_t applies_ok_ = 0;
};

bool Run::FollowerCaughtUp(const Servers& s) {
  auto p = Scrape(s.primary.port);
  if (!p.ok()) return false;
  const uint64_t target = MetricValue(*p, "db_commit_epoch");
  const int64_t end = NowNs() + 60'000'000'000;
  while (NowNs() < end) {
    auto f = Scrape(s.follower.port);
    if (f.ok() && MetricValue(*f, "db_commit_epoch") >= target) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return false;
}

/// Spawn to READY, follower included and caught up to the seed epoch.
bool Run::Setup(Servers* s, double* seconds) {
  const std::string wal = dir_ + "/primary.wal";
  ::unlink(wal.c_str());
  const std::string log = dir_ + "/servers.log";
  const int64_t t0 = NowNs();
  auto primary = SpawnServer(
      o_.server_bin,
      {"--port=0", "--wal=" + wal, "--depth=" + std::to_string(w_.depth),
       "--rows=" + std::to_string(w_.rows), "--workers=2", "--fsync=group",
       "--repl-port=0"},
      log, 120000);
  if (!primary.ok()) return Error(primary.status().ToString());
  s->primary = *primary;
  auto follower = SpawnServer(
      o_.server_bin,
      {"--port=0",
       "--follow=127.0.0.1:" + std::to_string(s->primary.repl_port),
       "--depth=" + std::to_string(w_.depth), "--workers=2"},
      log, 120000);
  if (!follower.ok()) return Error(follower.status().ToString());
  s->follower = *follower;
  if (!FollowerCaughtUp(*s)) return Error("follower never caught up");
  *seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return true;
}

/// Runs one window. With a fault pid and duration, SIGSTOPs that process
/// once, for `fault_ms`, in the middle of the window.
WindowResult Run::RunWindow(const WindowPlan& plan, double window_s,
                            pid_t fault_pid, int fault_ms) {
  std::thread fault;
  if (fault_pid > 0 && fault_ms > 0) {
    const int64_t at = NowNs() + LoadGen::kStartDelayNs +
                       static_cast<int64_t>(window_s * 1e9 / 2);
    fault = std::thread([=] {
      std::this_thread::sleep_for(std::chrono::nanoseconds(at - NowNs()));
      ::kill(fault_pid, SIGSTOP);
      std::this_thread::sleep_for(std::chrono::milliseconds(fault_ms));
      ::kill(fault_pid, SIGCONT);
    });
  }
  WindowResult r = gen_->Run(plan, 20'000'000'000);
  if (fault.joinable()) fault.join();
  return r;
}

void Run::Account(const WindowResult& r, const WindowPlan& p) {
  attempted += p.checks[0].reqs.size() + p.checks[1].reqs.size() +
               p.applies.reqs.size();
  failed += r.failed;
  for (const Outcome& a : r.applies) applies_ok_ += a.ok ? 1 : 0;
  for (const std::string& e : r.errors) {
    if (errors.size() < 16) errors.push_back(e);
  }
}

bool Run::Execute() {
  // Set-up, several times: the first ones are torn down again.
  std::vector<double> setups;
  Servers s;
  for (int i = 0; i < kSetups; ++i) {
    double secs = 0;
    if (!Setup(&s, &secs)) return false;
    setups.push_back(secs);
    if (i + 1 < kSetups) {
      StopServer(&s.follower);
      StopServer(&s.primary);
    }
  }
  std::string err;
  gen_ = LoadGen::Connect(s.primary.port, s.follower.port, &err);
  if (gen_ == nullptr) return Error("connect: " + err);

  // Warm-up (not measured): every pooled text once, so plan-cache fills and
  // lazy columnar builds are paid before timing. Distinct-text workloads
  // have nothing to warm.
  if (!src_.pool().empty()) {
    WindowPlan warm;
    for (size_t i = 0; i < src_.pool().size(); ++i) {
      warm.checks[i % 2].reqs.push_back(src_.pool()[i]);
      warm.checks[i % 2].due.push_back(static_cast<int64_t>(i) * 1'000'000);
    }
    WindowResult r = gen_->Run(warm, 20'000'000'000);
    Account(r, warm);
  }

  const double fixed_s = o_.seconds * w_.fixed_share;
  const double rung_s = std::max(0.5, o_.seconds * w_.ladder_share / 8);
  const double apply_s = o_.seconds * w_.apply_share;

  // 1. The fixed-rate window (applies beside it when the workload has
  // them), with the server's own metrics scraped around it.
  auto before = Scrape(s.primary.port);
  if (!before.ok()) return Error("scrape: " + before.status().ToString());
  const uint64_t base_epoch = MetricValue(*before, "db_commit_epoch");
  WindowPlan fixed = MakePlan(
      &src_, w_.check_rate, w_.concurrent_applies ? w_.apply_rate : 0, fixed_s,
      StreamSeed(o_.seed, "fixed-check"), StreamSeed(o_.seed, "fixed-apply"));
  if (w_.concurrent_applies) {
    fixed.follower_target_epoch = base_epoch + fixed.applies.reqs.size();
  }
  const bool pause_fixed = w_.concurrent_applies && o_.pause_follower_ms > 0;
  const double cpu0 = CpuSeconds(s.primary.pid);
  WindowResult fr =
      RunWindow(fixed, fixed_s, pause_fixed ? s.follower.pid : s.primary.pid,
                pause_fixed ? o_.pause_follower_ms : o_.stall_primary_ms);
  const double fixed_cpu_s = CpuSeconds(s.primary.pid) - cpu0;
  uint64_t fixed_done = 0;
  for (const auto* v : {&fr.checks[0], &fr.checks[1], &fr.applies}) {
    for (const Outcome& x : *v) fixed_done += x.ok ? 1 : 0;
  }
  Account(fr, fixed);
  if (!fr.follower_caught_up) Error("follower did not reach the last apply");
  auto after = Scrape(s.primary.port);
  if (!after.ok()) return Error("scrape: " + after.status().ToString());
  bool flagged = false;
  detail += "\"stage_crosscheck\":" + StageCrossCheck(*before, *after, &flagged);
  if (flagged) {
    std::fprintf(stderr,
                 "warning: server stage means do not sum to check latency "
                 "within 10%%\n");
  }
  const std::vector<Outcome> checks = CheckOutcomes(fr);
  const std::vector<double> lat = LatenciesUs(checks);

  // 2. Capacity ladder. Rung 0 is the fixed-rate window itself; the search
  // climbs an octave at a time until a rung fails, then bisects.
  std::map<int, Rung> rungs;
  rungs[0] = Evaluate(0, w_.check_rate, fr, fixed_s, w_.check_limit_us);
  auto run_rung = [&](int k) -> const Rung& {
    const double rate = LadderRate(w_, k);
    const std::string tag = "rung" + std::to_string(k);
    WindowPlan p = MakePlan(&src_, rate,
                            w_.concurrent_applies ? w_.apply_rate : 0, rung_s,
                            StreamSeed(o_.seed, (tag + "-check").c_str()),
                            StreamSeed(o_.seed, (tag + "-apply").c_str()));
    WindowResult r = RunWindow(p, rung_s);
    Account(r, p);
    rungs[k] = Evaluate(k, rate, r, rung_s, w_.check_limit_us);
    return rungs[k];
  };
  constexpr int kNone = std::numeric_limits<int>::min();
  const int step = kLadderStepsPerOctave;
  int lo = 0, hi = 0;
  bool bounded = true;
  if (rungs[0].pass) {
    bounded = false;
    for (int k = step; k <= kLadderOctaves * step; k += step) {
      if (!run_rung(k).pass) {
        hi = k;
        bounded = true;
        break;
      }
      lo = k;
    }
  } else {
    lo = kNone;
    for (int k = -step; k >= -kLadderOctaves * step; k -= step) {
      if (run_rung(k).pass) {
        lo = k;
        break;
      }
      hi = k;
    }
  }
  if (lo == kNone) {
    // A measurement, not a wrong answer: every request of the ladder was
    // still checked (a failed one fails the run through Account). On a
    // shared VM it happens when the host stalls the generator itself.
    std::fprintf(stderr,
                 "warning: no rung of the capacity ladder met the check p99 "
                 "limit; check_capacity_rps is 0 (fixed-rate generator late "
                 "p99 %.0f us)\n",
                 rungs[0].late_p99_us);
  } else if (bounded) {
    while (hi - lo > 1) {
      const int mid = lo + (hi - lo) / 2;
      if (run_rung(mid).pass) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
  }
  const Rung* top = lo == kNone ? nullptr : &rungs[lo];

  // 3. Applies: beside the checks (mixed) or in their own window.
  std::vector<Outcome> applies = fr.applies;
  std::vector<PollSample> polls = fr.polls;
  uint64_t apply_base = base_epoch;
  if (!w_.concurrent_applies) {
    auto b = Scrape(s.primary.port);
    if (!b.ok()) return Error("scrape: " + b.status().ToString());
    apply_base = MetricValue(*b, "db_commit_epoch");
    WindowPlan p = MakePlan(&src_, 0, w_.apply_rate, apply_s, 0,
                            StreamSeed(o_.seed, "apply-window"));
    p.follower_target_epoch = apply_base + p.applies.reqs.size();
    WindowResult ar =
        RunWindow(p, apply_s, s.follower.pid, o_.pause_follower_ms);
    Account(ar, p);
    if (!ar.follower_caught_up) Error("follower did not reach the last apply");
    applies = ar.applies;
    polls = ar.polls;
  }
  const std::vector<double> apply_lat = LatenciesUs(applies);
  const std::vector<double> vis = VisibilityMs(applies, polls, apply_base);

  // Every apply published exactly one epoch, on both servers.
  auto pe = Scrape(s.primary.port);
  auto fe = Scrape(s.follower.port);
  if (!pe.ok() || !fe.ok()) return Error("final scrape failed");
  const uint64_t primary_epoch = MetricValue(*pe, "db_commit_epoch");
  const uint64_t follower_epoch = MetricValue(*fe, "db_commit_epoch");
  const uint64_t expect_epoch = base_epoch + applies_ok_;
  if (primary_epoch != expect_epoch) {
    Error("primary epoch " + std::to_string(primary_epoch) + ", expected " +
          std::to_string(expect_epoch));
  }
  if (follower_epoch > primary_epoch) Error("follower ahead of primary");

  const double rss = PeakRssMb(s.primary.pid) + PeakRssMb(s.follower.pid);
  StopServer(&s.follower);
  StopServer(&s.primary);
  gen_.reset();

  std::vector<double> late = rungs[0].lateness;
  if (top != nullptr) {
    late.insert(late.end(), top->lateness.begin(), top->lateness.end());
  }
  late_p99_us = Quantile(late, 0.99);

  auto add = [&](const char* name, double v, const char* unit, size_t n) {
    metrics.push_back({name, v, unit, static_cast<uint64_t>(n)});
  };
  add("check_p50_us", Quantile(lat, 0.5), "us", lat.size());
  add("check_p99_us", Quantile(lat, 0.99), "us", lat.size());
  add("server_cpu_us_per_request",
      fixed_done == 0 ? 0 : fixed_cpu_s * 1e6 / static_cast<double>(fixed_done),
      "us", fixed_done);
  add("check_capacity_rps", top != nullptr ? top->achieved_rps : 0, "1/s",
      top != nullptr ? top->checks : 0);
  add("apply_p50_us", Quantile(apply_lat, 0.5), "us", apply_lat.size());
  add("apply_p99_us", Quantile(apply_lat, 0.99), "us", apply_lat.size());
  add("repl_visible_p50_ms", Quantile(vis, 0.5), "ms", vis.size());
  add("repl_visible_p99_ms", Quantile(vis, 0.99), "ms", vis.size());
  add("failed_share",
      attempted == 0 ? 0
                     : static_cast<double>(failed) /
                           static_cast<double>(attempted),
      "fraction", attempted);
  add("setup_s", Quantile(setups, 0.5), "s", setups.size());
  add("server_peak_rss_mb", rss, "MiB", 2);

  auto list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + Num(v[i]);
    return out + "]";
  };
  detail += ",\"setup_runs_s\":" + list(setups);
  detail += ",\"generator\":{\"fixed_late_p50_us\":" +
            Num(Quantile(rungs[0].lateness, 0.5)) +
            ",\"fixed_late_p99_us\":" + Num(rungs[0].late_p99_us) +
            ",\"capacity_rung_late_p99_us\":" +
            Num(top != nullptr ? top->late_p99_us : 0) + "}";
  detail += ",\"ladder\":{\"rung_seconds\":" + Num(rung_s) +
            ",\"limit_us\":" + Num(w_.check_limit_us) + ",\"rungs\":[";
  bool first = true;
  for (const auto& [k, g] : rungs) {
    detail += std::string(first ? "" : ",") + "{\"rung\":" +
              std::to_string(k) + ",\"offered_rps\":" + Num(g.offered_rps) +
              ",\"achieved_rps\":" + Num(g.achieved_rps) +
              ",\"p99_us\":" + Num(g.p99_us) +
              ",\"late_p99_us\":" + Num(g.late_p99_us) +
              ",\"inflight_q2\":" + Num(g.inflight_q2) +
              ",\"inflight_q4\":" + Num(g.inflight_q4) +
              ",\"pass\":" + (g.pass ? "true" : "false") + "}";
    first = false;
  }
  detail += "]},\"epochs\":{\"primary\":" + std::to_string(primary_epoch) +
            ",\"follower\":" + std::to_string(follower_epoch) + "}";
  return true;
}

// --- entry point ----------------------------------------------------------

void OnSignal(int) {
  KillAllServers();
  std::_Exit(1);
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--workload" && value(&v)) {
      o->workload = v;
    } else if (a == "--seed" && value(&v)) {
      o->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds" && value(&v)) {
      o->seconds = std::atof(v.c_str());
    } else if (a == "--trace" && value(&v)) {
      o->trace = std::atoi(v.c_str());
    } else if (a == "--server-bin" && value(&v)) {
      o->server_bin = v;
    } else if (a == "--out-dir" && value(&v)) {
      o->out_dir = v;
    } else if (a == "--stall-primary-ms" && value(&v)) {
      o->stall_primary_ms = std::atoi(v.c_str());
    } else if (a == "--pause-follower-ms" && value(&v)) {
      o->pause_follower_ms = std::atoi(v.c_str());
    } else {
      std::fprintf(stderr, "bad argument: %s\n", a.c_str());
      return false;
    }
  }
  return !o->workload.empty() && o->seconds > 0 &&
         (o->trace == 0 || o->trace == 1);
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: ufbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--server-bin PATH] [--out-dir DIR]\n");
    return 2;
  }
  const WorkloadSpec* w = FindWorkload(o.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
    return 2;
  }
  if (o.server_bin.empty()) {
    std::string self = argv[0];
    o.server_bin = self.substr(0, self.find_last_of('/') + 1) +
                   "ufilter/ufilter_server";
  }
  ::signal(SIGINT, OnSignal);
  ::signal(SIGTERM, OnSignal);
  ::signal(SIGPIPE, SIG_IGN);
  const std::string dir = o.out_dir + "/run-" + o.workload + "-" +
                          std::to_string(::getpid());
  std::error_code mkdir_error;
  std::filesystem::create_directories(dir, mkdir_error);
  if (mkdir_error) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                 mkdir_error.message().c_str());
    return 2;
  }

  Run run(o, *w, dir);
  const bool ran = run.Execute();
  KillAllServers();

  TracedResult traced;
  if (o.trace == 1 && ran) {
    traced = RunTraced(*w, o.seed, o.out_dir);
    for (const std::string& e : traced.errors) run.errors.push_back(e);
    traced.metrics.push_back({"gen.late_p99_us", run.late_p99_us, "us"});
  }
  ::unlink((dir + "/primary.wal").c_str());
  ::unlink((dir + "/servers.log").c_str());
  ::rmdir(dir.c_str());

  const uint64_t failed = run.failed + traced.failed;
  const uint64_t attempted = std::max<uint64_t>(1, run.attempted);
  const bool correct = ran && failed == 0;

  // Human-readable lines, then the result file, then the JSON line.
  std::printf("workload %s seed %llu (%g s per run)\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds);
  for (const Metric& m : run.metrics) {
    std::printf("  %-26s %14.3f %-8s n=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  for (const LayerMetric& m : traced.metrics) {
    std::printf("  %-38s %14.3f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& e : run.errors) {
    std::printf("  error: %s\n", e.c_str());
  }
  if (!traced.trace_path.empty()) {
    std::printf("  trace: %s (span coverage %.1f%%)\n",
                traced.trace_path.c_str(), traced.coverage_pct);
  }

  auto metric_json = [](const std::string& name, double v,
                        const std::string& unit) {
    return Quote(name) + ":{\"value\":" + Num(v) + ",\"unit\":" + Quote(unit) +
           "}";
  };
  std::string e2e, layers;
  for (const Metric& m : run.metrics) {
    e2e += (e2e.empty() ? "" : ",") + Quote(m.name) + ":{\"value\":" +
           Num(m.value) + ",\"unit\":" + Quote(m.unit) +
           ",\"samples\":" + std::to_string(m.samples) + "}";
  }
  for (const LayerMetric& m : traced.metrics) {
    layers += (layers.empty() ? "" : ",") + metric_json(m.name, m.value, m.unit);
  }
  std::string errs;
  for (const std::string& e : run.errors) {
    errs += (errs.empty() ? "" : ",") + Quote(e);
  }
  const std::string result_path = o.out_dir + "/" + o.workload + "-seed" +
                                  std::to_string(o.seed) + "-trace" +
                                  std::to_string(o.trace) + ".json";
  if (std::FILE* f = std::fopen(result_path.c_str(), "w")) {
    std::string body =
        "{\"workload\":" + Quote(o.workload) +
        ",\"seed\":" + std::to_string(o.seed) + ",\"seconds\":" +
        Num(o.seconds) + ",\"correct\":" + (correct ? "true" : "false") +
        ",\"attempted\":" + std::to_string(attempted) +
        ",\"failed\":" + std::to_string(failed) + ",\"errors\":[" + errs +
        "],\"end_to_end\":{" + e2e + "},\"per_layer\":{" + layers + "}" +
        (run.detail.empty() ? "" : "," + run.detail) +
        (traced.detail_json.empty() ? ""
                                    : ",\"traced\":" + traced.detail_json) +
        ",\"trace_file\":" + Quote(traced.trace_path) + "}\n";
    std::fputs(body.c_str(), f);
    std::fclose(f);
  }

  // The JSON line: every nonzero end-to-end metric (failed_share is 0 on a
  // correct run and travels as failed/attempted), plus the per-layer
  // metrics when traced. BENCHMARK.json decides which of them are gated.
  std::string out;
  for (const Metric& m : run.metrics) {
    if (m.value == 0) continue;
    out += (out.empty() ? "" : ",") + metric_json(m.name, m.value, m.unit);
  }
  if (!layers.empty()) out += (out.empty() ? "" : ",") + layers;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
