#include "traced.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <optional>

#include "fixtures/synthetic.h"
#include "loadgen.h"
#include "net/client.h"
#include "net/server.h"
#include "relational/database.h"
#include "relational/wal.h"
#include "service/check_service.h"
#include "ufilter/checker.h"
#include "xquery/normalize.h"

namespace perfbench {

namespace rel = ufilter::relational;
namespace chk = ufilter::check;
namespace net = ufilter::net;

namespace {

/// The request prefix both the wire run and the replay use, in replay
/// order: checks and applies merged by due time when the workload runs
/// them together, applies after the checks otherwise.
std::vector<Request> ReplayPrefix(const WorkloadSpec& w, uint64_t seed) {
  RequestSource src(w, seed);
  std::vector<Request> checks, applies;
  for (int i = 0; i < w.trace_checks; ++i) checks.push_back(src.NextCheck());
  for (int i = 0; i < w.trace_applies; ++i) applies.push_back(src.NextApply());
  if (!w.concurrent_applies) {
    checks.insert(checks.end(), applies.begin(), applies.end());
    return checks;
  }
  // The fixed-rate window's arrival order: the same Poisson streams the
  // wire run draws (a longer horizon only extends them; 4x the expected
  // span leaves no realistic chance of running short).
  const double horizon =
      4 * std::max(w.trace_checks / w.check_rate,
                   w.trace_applies / w.apply_rate) +
      10;
  std::vector<int64_t> cdue = PoissonDueTimes(
      w.check_rate, horizon, StreamSeed(seed, "fixed-check"));
  std::vector<int64_t> adue = PoissonDueTimes(
      w.apply_rate, horizon, StreamSeed(seed, "fixed-apply"));
  std::vector<Request> merged;
  size_t c = 0, a = 0;
  auto due = [](const std::vector<int64_t>& v, size_t i) {
    return i < v.size() ? v[i] : std::numeric_limits<int64_t>::max();
  };
  while (c < checks.size() || a < applies.size()) {
    if (a == applies.size() ||
        (c < checks.size() && due(cdue, c) <= due(adue, a))) {
      merged.push_back(std::move(checks[c++]));
    } else {
      merged.push_back(std::move(applies[a++]));
    }
  }
  return merged;
}

enum SpanId : uint8_t {
  kRoot,
  kNormalize,
  kPin,
  kPrepare,
  kDatacheck,
  kFallback,
  kApply,
  kPublish,
  kWalSync,
  kSpanCount
};

const char* const kSpanNames[kSpanCount] = {
    "request",           "xquery.normalize",     "relational.snapshot_pin",
    "ufilter.prepare",   "ufilter.datacheck",    "ufilter.execute_fallback",
    "relational.apply",  "relational.publish",   "relational.wal_sync"};

struct Span {
  uint32_t req;
  SpanId id;
  int64_t start;
  int64_t dur;
};

struct Fixture {
  std::unique_ptr<rel::Database> db;
  std::unique_ptr<chk::UFilter> uf;
  std::string wal;
  double seed_ms = 0;
  double create_ms = 0;
};

/// The server's start-up sequence in-process: durable chain database
/// seeded through the WAL, then the compiled filter.
ufilter::Result<Fixture> MakeFixture(const WorkloadSpec& w,
                                     const std::string& wal) {
  ::unlink(wal.c_str());
  Fixture fx;
  fx.wal = wal;
  UFILTER_ASSIGN_OR_RETURN(fx.db, rel::Database::Create(
                                      ufilter::fixtures::MakeChainSchema(
                                          w.depth)));
  rel::DurabilityOptions d;
  d.wal_path = wal;
  d.fsync_policy = rel::FsyncPolicy::kGroup;
  UFILTER_RETURN_NOT_OK(fx.db->EnableDurability(d));
  int64_t t = NowNs();
  UFILTER_RETURN_NOT_OK(
      ufilter::fixtures::PopulateChain(fx.db.get(), w.depth, w.rows));
  UFILTER_RETURN_NOT_OK(fx.db->PublishVersion().status());
  UFILTER_RETURN_NOT_OK(fx.db->SyncWal());
  fx.seed_ms = static_cast<double>(NowNs() - t) / 1e6;
  t = NowNs();
  UFILTER_ASSIGN_OR_RETURN(
      fx.uf, chk::UFilter::Create(fx.db.get(),
                                  ufilter::fixtures::ChainViewQuery(w.depth)));
  fx.create_ms = static_cast<double>(NowNs() - t) / 1e6;
  return fx;
}

net::Verdict VerdictOf(chk::CheckOutcome o) {
  switch (o) {
    case chk::CheckOutcome::kExecuted: return net::Verdict::kExecuted;
    case chk::CheckOutcome::kInvalid: return net::Verdict::kInvalid;
    case chk::CheckOutcome::kUntranslatable:
      return net::Verdict::kUntranslatable;
    case chk::CheckOutcome::kDataConflict: return net::Verdict::kDataConflict;
    default: return net::Verdict::kError;
  }
}

/// The work counters the replay reports, summed over requests.
struct Work {
  uint64_t rows_scanned = 0, index_lookups = 0, queries = 0,
           columnar_rows = 0, columnar_builds = 0, compiles = 0,
           cache_hits = 0, cache_misses = 0, wal_bytes = 0, wal_fsyncs = 0;

  void Add(const rel::EngineStats& d) {
    rows_scanned += d.rows_scanned;
    index_lookups += d.index_lookups;
    queries += d.queries_executed;
    columnar_rows += d.columnar_scan_rows;
    columnar_builds += d.columnar_builds;
    compiles += d.updates_compiled;
    cache_hits += d.plan_cache_hits;
    cache_misses += d.plan_cache_misses;
    wal_bytes += d.wal_bytes;
    wal_fsyncs += d.wal_fsyncs;
  }
  bool operator==(const Work& o) const {
    return rows_scanned == o.rows_scanned &&
           index_lookups == o.index_lookups && queries == o.queries &&
           columnar_rows == o.columnar_rows &&
           columnar_builds == o.columnar_builds && compiles == o.compiles &&
           cache_hits == o.cache_hits && cache_misses == o.cache_misses &&
           wal_bytes == o.wal_bytes && wal_fsyncs == o.wal_fsyncs;
  }
};

struct Pass {
  /// [0] = check requests, [1] = applies.
  double span_ns[2][kSpanCount] = {};
  uint64_t span_n[2][kSpanCount] = {};
  Work work[2];
  uint64_t count[2] = {};
  uint64_t fallbacks = 0;
  double child_ns = 0;
  double root_ns = 0;

  double MeanUs(int side, SpanId id) const {
    return span_n[side][id] == 0
               ? 0
               : span_ns[side][id] / static_cast<double>(span_n[side][id]) /
                     1e3;
  }
};

void CheckVerdict(const Request& r, net::Verdict got, int64_t rows,
                  const char* path, TracedResult* out) {
  if (got == r.expect && rows == r.expect_rows) return;
  ++out->failed;
  if (out->errors.size() < 8) {
    out->errors.push_back(std::string(path) + " " + KindName(r.kind) +
                          ": got " + net::VerdictName(got) + "/" +
                          std::to_string(rows) + " want " +
                          net::VerdictName(r.expect) + "/" +
                          std::to_string(r.expect_rows));
  }
}

/// Replays request `i` on `fx`, mirroring CheckService::Process. With
/// `spans` every public call is wrapped in a span; without, only the root
/// is timed (the overhead baseline). Work counters are diffed either way.
void ReplayOne(Fixture* fx, rel::ExecutionContext* ctx, uint32_t i,
               const Request& r, bool spans, std::vector<Span>* out,
               Pass* pass, TracedResult* res) {
  rel::Database* db = fx->db.get();
  chk::UFilter* uf = fx->uf.get();
  const int side = r.apply ? 1 : 0;
  double children = 0;
  auto span = [&](SpanId id, const std::function<void()>& f) {
    if (!spans) {
      f();
      return;
    }
    const int64_t a = NowNs();
    f();
    const int64_t d = NowNs() - a;
    out->push_back({i, id, a, d});
    pass->span_ns[side][id] += static_cast<double>(d);
    pass->span_n[side][id]++;
    children += static_cast<double>(d);
  };
  const rel::EngineStats before = db->SnapshotWorkCounters();
  chk::CheckOptions opts;
  opts.apply = r.apply;
  chk::CheckReport report;
  ufilter::Status synced;
  const int64_t root0 = NowNs();
  span(kNormalize, [&] { ufilter::xq::NormalizeUpdateText(r.text); });
  span(kPin, [&] { ctx->PinReadSnapshot(db->OpenSnapshot()); });
  std::shared_ptr<const chk::PreparedUpdate> plan;
  span(kPrepare, [&] { plan = uf->Prepare(r.text, nullptr, ctx); });
  std::optional<chk::CheckReport> fast;
  span(kDatacheck, [&] { fast = uf->TryCheckReadOnly(*plan, opts, ctx); });
  ctx->ClearReadSnapshot();
  if (fast.has_value()) {
    report = *std::move(fast);
  } else {
    if (!r.apply) ++pass->fallbacks;
    std::optional<rel::Database::WriterGuard> guard;
    guard.emplace(db);
    if (!r.apply) guard->AbandonPublish();
    span(r.apply ? kApply : kFallback, [&] {
      report = uf->Execute(*plan, opts, ctx);
      if (report.outcome != chk::CheckOutcome::kExecuted) {
        guard->AbandonPublish();
      }
      if (!r.apply) guard.reset();
    });
    if (r.apply) {
      span(kPublish, [&] { guard.reset(); });
      span(kWalSync, [&] { synced = db->SyncWal(); });
    }
  }
  const int64_t root = NowNs() - root0;
  if (spans) out->push_back({i, kRoot, root0, root});
  pass->span_ns[side][kRoot] += static_cast<double>(root);
  pass->span_n[side][kRoot]++;
  pass->root_ns += static_cast<double>(root);
  pass->child_ns += children;
  pass->work[side].Add(db->SnapshotWorkCounters().DiffSince(before));
  pass->count[side]++;
  CheckVerdict(r, VerdictOf(report.outcome), report.rows_affected,
               spans ? "traced" : "untraced", res);
  if (!synced.ok()) {
    ++res->failed;
    res->errors.push_back("SyncWal: " + synced.ToString());
  }
}

/// Mean per-check latency of `call` over `seq` (applies run but are not
/// timed); verdicts are checked on every request.
double TimedChecks(const std::vector<Request>& seq, const char* path,
                   TracedResult* res,
                   const std::function<bool(const Request&, net::Verdict*,
                                            int64_t*)>& call) {
  double total = 0;
  uint64_t n = 0;
  for (const Request& r : seq) {
    net::Verdict v = net::Verdict::kError;
    int64_t rows = -1;
    const int64_t t = NowNs();
    const bool ok = call(r, &v, &rows);
    const int64_t d = NowNs() - t;
    if (!r.apply) {
      total += static_cast<double>(d);
      ++n;
    }
    if (!ok) v = net::Verdict::kError;
    CheckVerdict(r, v, rows, path, res);
  }
  return n == 0 ? 0 : total / static_cast<double>(n) / 1e3;
}

void WriteTrace(const std::string& path, const std::vector<Span>& spans,
                const std::vector<Request>& seq) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  const int64_t base = spans.empty() ? 0 : spans.front().start;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const Request& r = seq[s.req];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request_id\":"
                 "%u,\"kind\":\"%s\",\"apply\":%s}}\n",
                 i == 0 ? "" : ",", kSpanNames[s.id],
                 s.id == kRoot ? "root" : "layer",
                 static_cast<double>(s.start - base) / 1e3,
                 static_cast<double>(s.dur) / 1e3, s.req, KindName(r.kind),
                 r.apply ? "true" : "false");
  }
  std::fputs("]}\n", f);
  std::fclose(f);
}

/// The follower's apply path: `fx`'s WAL read back and applied record by
/// record to a fresh database, which must land on the same published
/// state. Returns the mean ApplyReplicatedEpoch time per apply record (us;
/// record 0 is the seed).
double ReplayWal(const WorkloadSpec& w, Fixture* fx, uint64_t applies,
                 TracedResult* res) {
  auto fail = [res](const std::string& why) {
    ++res->failed;
    res->errors.push_back(why);
    return 0.0;
  };
  auto wal = rel::ReadWal(fx->wal);
  auto replica =
      rel::Database::Create(ufilter::fixtures::MakeChainSchema(w.depth));
  if (!wal.ok() || !replica.ok()) return fail("replica replay set-up");
  if (wal->records.size() != 1 + applies) {
    return fail("WAL holds " + std::to_string(wal->records.size()) +
                " records, expected the seed plus one per apply");
  }
  double total_ns = 0;
  for (size_t i = 0; i < wal->records.size(); ++i) {
    const int64_t t = NowNs();
    ufilter::Status st = (*replica)->ApplyReplicatedEpoch(wal->records[i]);
    if (i > 0) total_ns += static_cast<double>(NowNs() - t);
    if (!st.ok()) return fail("ApplyReplicatedEpoch: " + st.ToString());
  }
  auto a = fx->db->SerializePublishedState();
  auto b = (*replica)->SerializePublishedState();
  if (!a.ok() || !b.ok() || *a != *b) return fail("replica state differs");
  return applies == 0 ? 0 : total_ns / static_cast<double>(applies) / 1e3;
}

double PerCheck(uint64_t v, uint64_t checks) {
  return checks == 0 ? 0 : static_cast<double>(v) / static_cast<double>(checks);
}

}  // namespace

TracedResult RunTraced(const WorkloadSpec& w, uint64_t seed,
                       const std::string& out_dir) {
  TracedResult res;
  const std::vector<Request> seq = ReplayPrefix(w, seed);
  auto fail = [&](const std::string& why) {
    ++res.failed;
    res.errors.push_back(why);
    return res;
  };
  std::vector<double> seed_ms, create_ms;

  // Pass 1: traced. Pass 2: the same replay with only the root timed, on a
  // second identical fixture; its work counts must repeat exactly.
  std::vector<Span> spans;
  spans.reserve(seq.size() * 6);
  Pass traced;
  Pass plain;
  double repl_us = 0;
  bool deterministic = false;
  {
    auto fx1 = MakeFixture(w, out_dir + "/replay-traced.wal");
    if (!fx1.ok()) return fail("fixture: " + fx1.status().ToString());
    seed_ms.push_back(fx1->seed_ms);
    create_ms.push_back(fx1->create_ms);
    {
      auto fx2 = MakeFixture(w, out_dir + "/replay-plain.wal");
      if (!fx2.ok()) return fail("fixture: " + fx2.status().ToString());
      seed_ms.push_back(fx2->seed_ms);
      create_ms.push_back(fx2->create_ms);
      // The two passes take turns request by request, each going first
      // every other time, so drift in the host's speed hits both alike.
      auto ctx1 = fx1->db->CreateContext();
      auto ctx2 = fx2->db->CreateContext();
      for (uint32_t i = 0; i < seq.size(); ++i) {
        for (int k = 0; k < 2; ++k) {
          if ((k == 0) == (i % 2 == 0)) {
            ReplayOne(&*fx1, ctx1.get(), i, seq[i], true, &spans, &traced,
                      &res);
          } else {
            ReplayOne(&*fx2, ctx2.get(), i, seq[i], false, nullptr, &plain,
                      &res);
          }
        }
      }
      ::unlink(fx2->wal.c_str());
    }
    deterministic = traced.work[0] == plain.work[0] &&
                    traced.work[1] == plain.work[1];
    if (!deterministic) {
      fail("work counts differ between two replays of the same seed");
    }
    repl_us = ReplayWal(w, &*fx1, traced.count[1], &res);
    ::unlink(fx1->wal.c_str());
  }

  // The same prefix through the check service, then over the wire.
  double service_us = 0;
  {
    auto fx = MakeFixture(w, out_dir + "/replay-service.wal");
    if (!fx.ok()) return fail("fixture: " + fx.status().ToString());
    seed_ms.push_back(fx->seed_ms);
    create_ms.push_back(fx->create_ms);
    ufilter::service::CheckServiceOptions so;
    so.worker_threads = 2;
    ufilter::service::CheckService svc(fx->uf.get(), so);
    auto session = svc.OpenSession("replay");
    service_us = TimedChecks(
        seq, "service", &res,
        [&](const Request& r, net::Verdict* v, int64_t* rows) {
          chk::CheckOptions o;
          o.apply = r.apply;
          chk::CheckReport rep = svc.Submit(session, r.text, o).get();
          *v = VerdictOf(rep.outcome);
          *rows = rep.rows_affected;
          return true;
        });
    svc.Shutdown();
    ::unlink(fx->wal.c_str());
  }
  double net_us = 0;
  {
    auto fx = MakeFixture(w, out_dir + "/replay-net.wal");
    if (!fx.ok()) return fail("fixture: " + fx.status().ToString());
    seed_ms.push_back(fx->seed_ms);
    create_ms.push_back(fx->create_ms);
    net::ServerOptions so;
    so.service.worker_threads = 2;
    auto server = net::Server::Start(fx->uf.get(), so);
    if (!server.ok()) return fail("server: " + server.status().ToString());
    net::ClientOptions co;
    co.port = (*server)->port();
    co.max_attempts = 1;
    co.request_timeout = std::chrono::milliseconds(10000);
    net::Client client(co);
    net_us = TimedChecks(
        seq, "net", &res,
        [&](const Request& r, net::Verdict* v, int64_t* rows) {
          auto resp = client.Check(r.text, r.apply);
          if (!resp.ok()) return false;
          *v = resp->verdict;
          *rows = resp->rows_affected;
          return true;
        });
    client.Disconnect();
    (*server)->Drain();
    ::unlink(fx->wal.c_str());
  }

  res.trace_path = out_dir + "/" + w.name + "-seed" + std::to_string(seed) +
                   ".trace.json";
  WriteTrace(res.trace_path, spans, seq);
  res.coverage_pct =
      traced.root_ns > 0 ? 100.0 * traced.child_ns / traced.root_ns : 0;

  const uint64_t checks = traced.count[0];
  const uint64_t applies = traced.count[1];
  const Work& cw = traced.work[0];
  const Work& aw = traced.work[1];
  const double plain_root_us = plain.MeanUs(0, kRoot);
  auto median = [](std::vector<double> v) { return Quantile(v, 0.5); };
  auto add = [&](const char* name, double v, const char* unit) {
    res.metrics.push_back({name, v, unit});
  };
  add("net.roundtrip_us", net_us, "us");
  add("net.self_us", net_us - service_us, "us");
  // The root also holds a NormalizeUpdateText call that CheckService does
  // not make (Prepare normalizes internally); take it out.
  add("service.self_us",
      service_us - (plain_root_us - traced.MeanUs(0, kNormalize)), "us");
  add("xquery.normalize_us", traced.MeanUs(0, kNormalize), "us");
  add("ufilter.prepare_us", traced.MeanUs(0, kPrepare), "us");
  add("ufilter.plan_cache_hit_ratio",
      PerCheck(cw.cache_hits, cw.cache_hits + cw.cache_misses), "ratio");
  add("ufilter.compiles_per_check", PerCheck(cw.compiles, checks), "count");
  add("ufilter.datacheck_us", traced.MeanUs(0, kDatacheck), "us");
  add("ufilter.readonly_fallback_ratio", PerCheck(traced.fallbacks, checks),
      "ratio");
  add("relational.snapshot_pin_us", traced.MeanUs(0, kPin), "us");
  add("relational.rows_scanned_per_check", PerCheck(cw.rows_scanned, checks),
      "count");
  add("relational.index_lookups_per_check",
      PerCheck(cw.index_lookups, checks), "count");
  add("relational.probe_queries_per_check", PerCheck(cw.queries, checks),
      "count");
  add("relational.columnar_rows_per_check",
      PerCheck(cw.columnar_rows, checks), "count");
  add("relational.columnar_builds_per_kcheck",
      1000.0 * PerCheck(cw.columnar_builds, checks), "count");
  add("relational.apply_us", traced.MeanUs(1, kApply), "us");
  add("relational.publish_us", traced.MeanUs(1, kPublish), "us");
  add("relational.wal_sync_us", traced.MeanUs(1, kWalSync), "us");
  add("relational.wal_bytes_per_apply", PerCheck(aw.wal_bytes, applies),
      "bytes");
  add("relational.fsyncs_per_apply", PerCheck(aw.wal_fsyncs, applies),
      "count");
  add("repl.apply_us", repl_us, "us");
  add("relational.seed_ms", median(seed_ms), "ms");
  add("ufilter.create_ms", median(create_ms), "ms");
  // Checks only: an apply's fsync varies far more than the spans cost.
  add("trace.overhead_pct",
      plain_root_us > 0
          ? 100.0 * (traced.MeanUs(0, kRoot) - plain_root_us) / plain_root_us
          : 0,
      "%");

  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"checks\":%llu,\"applies\":%llu,\"deterministic\":%s,"
                "\"span_coverage_pct\":%.3f,\"root_check_us\":%.3f,"
                "\"root_check_untraced_us\":%.3f,\"root_apply_us\":%.3f,"
                "\"service_check_us\":%.3f,\"fallback_execute_us\":%.3f}",
                static_cast<unsigned long long>(checks),
                static_cast<unsigned long long>(applies),
                deterministic ? "true" : "false", res.coverage_pct,
                traced.MeanUs(0, kRoot), plain_root_us,
                traced.MeanUs(1, kRoot), service_us,
                traced.MeanUs(0, kFallback));
  res.detail_json = buf;
  return res;
}

}  // namespace perfbench
