// End-to-end tests of the network front end against a live TCP server:
// verdict parity with the in-process checker, deadline admission /
// queue-purge behavior, load shedding with retry-after, graceful drain,
// per-connection protocol-error isolation, and metrics over the wire.
#include "net/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../support/temp_dir.h"
#include "fixtures/bookdb.h"
#include "fixtures/synthetic.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"

namespace ufilter::net {
namespace {

using check::CheckOptions;
using check::CheckOutcome;
using check::CheckReport;
using check::UFilter;
using relational::Database;

struct Instance {
  std::unique_ptr<Database> db;
  std::unique_ptr<UFilter> uf;
};

Instance MakeBookInstance() {
  Instance inst;
  auto db = fixtures::MakeBookDatabase();
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  inst.db = std::move(*db);
  auto uf = UFilter::Create(inst.db.get(), fixtures::BookViewQuery());
  EXPECT_TRUE(uf.ok()) << uf.status().ToString();
  inst.uf = std::move(*uf);
  return inst;
}

Instance MakeChainInstance(int depth, int rows) {
  Instance inst;
  auto db = fixtures::MakeChainDatabase(depth, rows,
                                        relational::DeletePolicy::kCascade);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  inst.db = std::move(*db);
  auto uf = UFilter::Create(inst.db.get(), fixtures::ChainViewQuery(depth));
  EXPECT_TRUE(uf.ok()) << uf.status().ToString();
  inst.uf = std::move(*uf);
  return inst;
}

Verdict ExpectedVerdict(CheckOutcome outcome) {
  switch (outcome) {
    case CheckOutcome::kExecuted:
      return Verdict::kExecuted;
    case CheckOutcome::kInvalid:
      return Verdict::kInvalid;
    case CheckOutcome::kUntranslatable:
      return Verdict::kUntranslatable;
    case CheckOutcome::kDataConflict:
      return Verdict::kDataConflict;
    case CheckOutcome::kNotRun:
      return Verdict::kNotRun;
    case CheckOutcome::kDeadlineExceeded:
      return Verdict::kDeadlineExceeded;
  }
  return Verdict::kError;
}

ClientOptions ClientFor(const Server& server) {
  ClientOptions opts;
  opts.port = server.port();
  return opts;
}

/// One series of the server's registry, read in-process; 0 when absent.
uint64_t Metric(Server& server, const char* name) {
  return obs::SampleValue(server.service().registry().Collect(), name);
}

/// Frame-level connection for tests that need pipelining or bad bytes —
/// things the Client (correctly) refuses to do.
struct RawConn {
  int fd = -1;
  FrameReader frames;

  static RawConn Open(uint16_t port, bool send_magic = true) {
    RawConn conn;
    auto fd = ConnectTcp("127.0.0.1", port, std::chrono::milliseconds(1000));
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    conn.fd = *fd;
    if (send_magic) {
      Status st = SendAll(conn.fd, kNetMagic, kNetMagicLen,
                          std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(1000));
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    return conn;
  }

  Status Send(const std::string& payload) {
    std::string frame = FramePayload(payload);
    return SendAll(fd, frame.data(), frame.size(),
                   std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(2000));
  }

  Result<std::string> Recv(std::chrono::milliseconds timeout =
                               std::chrono::milliseconds(5000)) {
    auto deadline = std::chrono::steady_clock::now() + timeout;
    char buf[4096];
    while (true) {
      auto next = frames.Next();
      if (!next.ok()) return next.status();
      if (next->has_value()) return *std::move(*next);
      auto got = RecvSome(fd, buf, sizeof(buf), deadline);
      if (!got.ok()) return got.status();
      frames.Feed(buf, *got);
    }
  }

  void Close() {
    if (fd >= 0) {
      CloseFd(fd);
      fd = -1;
    }
  }
  ~RawConn() { Close(); }
};

// --- Verdict parity -------------------------------------------------------

TEST(ServerClientTest, CheckVerdictsMatchInProcessBaseline) {
  std::vector<std::string> updates;
  for (int u = 1; u <= 13; ++u) updates.push_back(fixtures::PaperUpdate(u));
  updates.push_back("THIS IS NOT AN UPDATE");

  CheckOptions dry;
  dry.apply = false;

  Instance baseline = MakeBookInstance();
  std::vector<CheckReport> expected;
  for (const std::string& u : updates) {
    expected.push_back(baseline.uf->Check(u, dry));
  }

  Instance inst = MakeBookInstance();
  ServerOptions opts;
  opts.service.worker_threads = 2;
  auto server = Server::Start(inst.uf.get(), opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  Client client(ClientFor(**server));
  for (size_t i = 0; i < updates.size(); ++i) {
    auto resp = client.Check(updates[i], /*apply=*/false);
    ASSERT_TRUE(resp.ok()) << updates[i] << ": " << resp.status().ToString();
    EXPECT_EQ(resp->verdict, ExpectedVerdict(expected[i].outcome))
        << updates[i];
    EXPECT_EQ(resp->status_code,
              static_cast<uint8_t>(expected[i].error.code()))
        << updates[i];
    EXPECT_EQ(resp->rows_affected, expected[i].rows_affected) << updates[i];
  }
  EXPECT_EQ(client.metrics().requests, updates.size());
  EXPECT_EQ(client.metrics().indeterminate, 0u);
}

TEST(ServerClientTest, AppliesExecuteOverTheWire) {
  Instance inst = MakeChainInstance(3, 32);
  ServerOptions opts;
  opts.service.worker_threads = 2;
  auto server = Server::Start(inst.uf.get(), opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  Client client(ClientFor(**server));
  auto resp =
      client.Check(fixtures::ChainReplaceUpdate(1, 5, "net-applied"), true);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->verdict, Verdict::kExecuted) << resp->message;
  EXPECT_GT(resp->rows_affected, 0);

  auto wire = client.Metrics();
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  obs::RegistrySnapshot scraped = SnapshotFromMetrics(*wire);
  EXPECT_GE(obs::SampleValue(scraped, "service_writer_lane"), 1u);
  EXPECT_GE(obs::SampleValue(scraped, "db_commit_epoch"), 1u);
}

// --- Deadlines ------------------------------------------------------------

TEST(ServerClientTest, ExpiredDeadlineRejectedAtAdmission) {
  Instance inst = MakeBookInstance();
  auto server = Server::Start(inst.uf.get());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  RawConn conn = RawConn::Open((*server)->port());
  CheckRequestMsg req;
  req.request_id = 1;
  req.deadline_ms = 0;  // expired the moment the server rebases it
  req.apply = true;     // still safe: admission certifies nothing ran
  req.update_text = fixtures::PaperUpdate(1);
  ASSERT_TRUE(conn.Send(EncodeCheckRequest(req)).ok());

  auto raw = conn.Recv();
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  auto resp = DecodeCheckResponse(*raw);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->request_id, 1u);
  EXPECT_EQ(resp->verdict, Verdict::kDeadlineExceeded);

  EXPECT_GE(Metric(**server, "server_admission_expired"), 1u);
  EXPECT_GE(Metric(**server, "service_deadline_expired"), 1u);
}

TEST(ServerClientTest, OverloadShedsAndPurgesQueuedDeadlines) {
  // One worker that holds the writer lane 300ms per apply, a queue of one:
  // pipelined applies with 40ms budgets must come back shed (queue full
  // past the budget) or deadline-expired (purged before execution) — and
  // the server must stay up and answer every single one.
  Instance inst = MakeChainInstance(2, 16);
  ServerOptions opts;
  opts.service.worker_threads = 1;
  opts.service.queue_capacity = 1;
  opts.service.writer_lane_hold_ms_for_testing = 300;
  auto server = Server::Start(inst.uf.get(), opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  constexpr int kRequests = 8;
  RawConn conn = RawConn::Open((*server)->port());
  for (int i = 0; i < kRequests; ++i) {
    CheckRequestMsg req;
    req.request_id = static_cast<uint64_t>(i + 1);
    req.deadline_ms = 40;
    req.apply = true;
    req.update_text = fixtures::ChainReplaceUpdate(1, 1, "storm");
    ASSERT_TRUE(conn.Send(EncodeCheckRequest(req)).ok());
  }

  int shed = 0, expired = 0, executed = 0;
  for (int i = 0; i < kRequests; ++i) {
    auto raw = conn.Recv(std::chrono::milliseconds(10000));
    ASSERT_TRUE(raw.ok()) << "response " << i << ": "
                          << raw.status().ToString();
    auto resp = DecodeCheckResponse(*raw);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    switch (resp->verdict) {
      case Verdict::kShed:
        ++shed;
        EXPECT_GT(resp->retry_after_ms, 0u);
        break;
      case Verdict::kDeadlineExceeded:
        ++expired;
        break;
      case Verdict::kExecuted:
        ++executed;
        break;
      default:
        FAIL() << "unexpected verdict " << VerdictName(resp->verdict) << ": "
               << resp->message;
    }
  }
  EXPECT_EQ(shed + expired + executed, kRequests);
  // The first request executes; with a 300ms hold against 40ms budgets at
  // least one later request must have been refused one way or the other.
  EXPECT_GE(shed + expired, 1) << "shed=" << shed << " expired=" << expired;

  // Both forms of refusal are observable in the service counters.
  EXPECT_GE(Metric(**server, "service_shed") +
                Metric(**server, "service_deadline_expired"),
            1u);
}

// --- Graceful drain -------------------------------------------------------

TEST(ServerClientTest, DrainFinishesInFlightAndRejectsNewWork) {
  Instance inst = MakeChainInstance(2, 16);
  ServerOptions opts;
  opts.service.worker_threads = 1;
  opts.service.writer_lane_hold_ms_for_testing = 400;
  auto server = Server::Start(inst.uf.get(), opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // A slow apply in flight keeps the drain in its grace loop.
  RawConn busy = RawConn::Open((*server)->port());
  CheckRequestMsg slow;
  slow.request_id = 1;
  slow.apply = true;
  slow.update_text = fixtures::ChainReplaceUpdate(1, 2, "before-drain");
  ASSERT_TRUE(busy.Send(EncodeCheckRequest(slow)).ok());

  // A second connection established *before* the listener closes.
  RawConn late = RawConn::Open((*server)->port());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::thread drainer([&] { (*server)->Drain(); });
  while (!(*server)->draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // New work on the surviving connection: refused with kDraining.
  CheckRequestMsg rejected;
  rejected.request_id = 2;
  rejected.update_text = fixtures::ChainReplaceUpdate(1, 3, "during-drain");
  Verdict late_verdict = Verdict::kError;
  if (late.Send(EncodeCheckRequest(rejected)).ok()) {
    auto raw = late.Recv();
    if (raw.ok()) {
      auto resp = DecodeCheckResponse(*raw);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      late_verdict = resp->verdict;
    }
  }

  // The in-flight apply still completes and its response is flushed.
  auto raw = busy.Recv(std::chrono::milliseconds(10000));
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  auto resp = DecodeCheckResponse(*raw);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->request_id, 1u);
  EXPECT_EQ(resp->verdict, Verdict::kExecuted) << resp->message;

  drainer.join();
  if (late_verdict != Verdict::kError) {
    EXPECT_EQ(late_verdict, Verdict::kDraining);
    EXPECT_GE(Metric(**server, "server_draining_rejects"), 1u);
  }

  // The listener is gone: new connections are refused.
  auto refused =
      ConnectTcp("127.0.0.1", (*server)->port(), std::chrono::milliseconds(200));
  EXPECT_FALSE(refused.ok());
}

// --- Protocol damage ------------------------------------------------------

TEST(ServerClientTest, BadMagicDropsOnlyThatConnection) {
  Instance inst = MakeBookInstance();
  auto server = Server::Start(inst.uf.get());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  {
    RawConn bad = RawConn::Open((*server)->port(), /*send_magic=*/false);
    const char junk[] = "NOTMAGIC";
    ASSERT_TRUE(SendAll(bad.fd, junk, 8,
                        std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(1000))
                    .ok());
    // The server hangs up on us without a response.
    char buf[16];
    auto got = RecvSome(bad.fd, buf, sizeof(buf),
                        std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(5000));
    EXPECT_FALSE(got.ok());
    EXPECT_TRUE(got.status().IsUnavailable()) << got.status().ToString();
  }

  // Well-behaved clients are unaffected.
  Client client(ClientFor(**server));
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_GE(Metric(**server, "server_protocol_errors"), 1u);
}

// Type bytes 5 and 6 carried a fixed-size stats summary before kMetrics
// replaced it. A peer that still sends one is treated like any other
// unknown message: its connection is dropped and counted once, and every
// other connection keeps working.
TEST(ServerClientTest, RetiredStatsRequestDropsOnlyThatConnection) {
  Instance inst = MakeBookInstance();
  auto server = Server::Start(inst.uf.get());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Client bystander(ClientFor(**server));
  ASSERT_TRUE(bystander.Ping().ok());
  const uint64_t connects = bystander.metrics().reconnects;

  RawConn old_client = RawConn::Open((*server)->port());
  ASSERT_TRUE(old_client.Send(std::string(1, '\x05')).ok());
  auto got = old_client.Recv();
  EXPECT_FALSE(got.ok()) << "the server answered a retired message type";
  EXPECT_TRUE(got.status().IsUnavailable()) << got.status().ToString();

  // The reader counts the error as it exits, just after the hang-up.
  uint64_t errors = 0;
  for (int i = 0; i < 200 && errors == 0; ++i) {
    errors = Metric(**server, "server_protocol_errors");
    if (errors == 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(errors, 1u);
  EXPECT_TRUE(bystander.Ping().ok());
  auto resp = bystander.Check(fixtures::PaperUpdate(1), /*apply=*/false);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(bystander.metrics().reconnects, connects)
      << "the bystander's connection was dropped too";
  EXPECT_EQ(Metric(**server, "server_protocol_errors"), 1u);
}

TEST(ServerClientTest, ServiceCountersTravelOverTheWire) {
  Instance inst = MakeBookInstance();
  auto server = Server::Start(inst.uf.get());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  Client client(ClientFor(**server));
  for (int i = 0; i < 3; ++i) {
    auto resp = client.Check(fixtures::PaperUpdate(1), /*apply=*/false);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  }
  auto wire = client.Metrics();
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  obs::RegistrySnapshot scraped = SnapshotFromMetrics(*wire);
  EXPECT_GE(obs::SampleValue(scraped, "service_submitted"), 3u);
  EXPECT_GE(obs::SampleValue(scraped, "service_completed"), 3u);
  EXPECT_GE(obs::SampleValue(scraped, "server_connections_accepted"), 1u);
  EXPECT_EQ(obs::SampleValue(scraped, "server_protocol_errors"), 0u);
  // The queue-wait histogram is always on: after three pops its
  // percentiles must be real (nonzero) readings.
  const obs::MetricSample* queue_wait =
      obs::FindSample(scraped, "stage_queue_wait_ns");
  ASSERT_NE(queue_wait, nullptr);
  EXPECT_GE(queue_wait->hist.count, 3u);
  EXPECT_GT(queue_wait->hist.Percentile(99), 0u);
  EXPECT_LE(queue_wait->hist.Percentile(50), queue_wait->hist.Percentile(99));
}

// Every engine counter of UFILTER_ENGINE_COUNTERS reaches a live kMetrics
// scrape and the Prometheus text rendered from it, under the name the
// list declares.
TEST(ServerClientTest, EveryEngineCounterIsExported) {
  Instance inst = MakeChainInstance(3, 32);
  auto server = Server::Start(inst.uf.get());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Client client(ClientFor(**server));
  auto resp = client.Check(fixtures::ChainDeleteUpdate(2, 0), false);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();

  auto wire = client.Metrics();
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  const std::string prom =
      obs::RenderPrometheus(SnapshotFromMetrics(*wire));
  std::vector<std::string> names;
#define UFILTER_ENGINE_NAME(field, metric, doc) names.push_back(metric);
  UFILTER_ENGINE_COUNTERS(UFILTER_ENGINE_NAME)
#undef UFILTER_ENGINE_NAME
  for (const std::string& name : names) {
    const WireMetric* m = wire->Find(name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_EQ(m->kind, static_cast<uint8_t>(obs::MetricKind::kCounter))
        << name;
    EXPECT_NE(prom.find("\nufilter_" + name + " "), std::string::npos)
        << name;
  }
}

// --- Full registry over the wire -----------------------------------------

// The parity acceptance: a remote Client::Metrics() scrape must agree with
// the in-process registry Collect(), including the WAL, columnar, plan
// cache and MVCC counters and the latency histograms.
TEST(ServerClientTest, MetricsParityOverWire) {
  test_support::TempDir tmp("net_metrics");
  ASSERT_TRUE(tmp.ok());
  Instance inst = MakeChainInstance(3, 32);
  ServerOptions opts;
  opts.service.worker_threads = 2;
  opts.service.durability.wal_path = tmp.path("parity.wal");
  // Fsync per commit so wal_fsyncs is deterministically nonzero at scrape
  // time (kGroup would defer it to the shutdown barrier).
  opts.service.durability.fsync_policy = relational::FsyncPolicy::kAlways;
  auto server = Server::Start(inst.uf.get(), opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE((*server)->service().durability_status().ok());

  Client client(ClientFor(**server));
  // Traffic that exercises every counter family: checks (columnar scans,
  // plan cache) and applies (writer lane, WAL records + fsyncs). The
  // i % 3 cycle repeats each delete text once — the plan-cache key is the
  // whitespace-normalized text, so only an exact repeat can hit.
  for (int i = 0; i < 6; ++i) {
    auto resp = client.Check(fixtures::ChainDeleteUpdate(2, i % 3), false);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->verdict, Verdict::kExecuted) << resp->message;
  }
  for (int i = 0; i < 2; ++i) {
    auto resp = client.Check(
        fixtures::ChainReplaceUpdate(2, i, "metrics-apply"), true);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->verdict, Verdict::kExecuted) << resp->message;
  }

  auto wire = client.Metrics();
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  obs::RegistrySnapshot remote = SnapshotFromMetrics(*wire);
  obs::RegistrySnapshot local = (*server)->service().registry().Collect();

  // Every local series crossed the wire (the scrape is the full registry).
  for (const obs::MetricSample& l : local) {
    ASSERT_NE(wire->Find(l.name), nullptr) << l.name;
  }

  // Monotonic counters: the wire value was read between our last request
  // and the local Collect(), so local >= wire >= the known traffic floor.
  auto wire_value = [&wire](const char* name) {
    const WireMetric* m = wire->Find(name);
    EXPECT_NE(m, nullptr) << name;
    return m == nullptr ? 0 : m->value;
  };
  struct FloorCheck {
    const char* name;
    uint64_t floor;
  };
  const FloorCheck checks[] = {
      {"service_submitted", 8},     {"service_completed", 8},
      {"service_fast_path", 6},     {"service_writer_lane", 2},
      {"wal_records", 2},           {"wal_fsyncs", 1},
      {"wal_bytes", 1},             {"columnar_builds", 1},
      {"columnar_scan_rows", 1},    {"plan_cache_hits", 3},
      {"plan_cache_misses", 3},     {"mvcc_snapshots_opened", 8},
  };
  for (const FloorCheck& c : checks) {
    uint64_t wired = wire_value(c.name);
    EXPECT_GE(wired, c.floor) << c.name;
    EXPECT_GE(obs::SampleValue(local, c.name), wired) << c.name;
  }
  // Gauges match the database's current state exactly (quiescent now).
  EXPECT_EQ(wire_value("db_commit_epoch"), inst.db->commit_epoch());

  // The latency histogram crossed the wire with its full shape: count
  // covers all 8 requests and percentile math works on the remote copy.
  const obs::MetricSample* lat = obs::FindSample(remote, "check_latency_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_GE(lat->hist.count, 8u);
  EXPECT_GT(lat->hist.Percentile(50), 0u);
  EXPECT_LE(lat->hist.Percentile(50), lat->hist.Percentile(99));
  const obs::MetricSample* local_lat =
      obs::FindSample(local, "check_latency_ns");
  ASSERT_NE(local_lat, nullptr);
  EXPECT_EQ(local_lat->hist.count, lat->hist.count);
  EXPECT_EQ(local_lat->hist.sum, lat->hist.sum);
  EXPECT_EQ(local_lat->hist.max, lat->hist.max);

  // Server transport counters live in the same registry.
  EXPECT_GE(wire_value("server_requests"), 8u);  // check requests only
  EXPECT_GE(wire_value("server_connections_accepted"), 1u);
}

// The MVCC copy-on-write gauges reach a live kMetrics scrape: an apply
// while a snapshot is pinned copies at least one page
// (mvcc_cow_slots_copied) and leaves the superseded table version retained
// for the pin (mvcc_retained_versions) until the pin closes.
TEST(ServerClientTest, MetricsScrapeExportsCopyOnWriteGauges) {
  Instance inst = MakeChainInstance(3, 32);
  ServerOptions opts;
  opts.service.worker_threads = 2;
  auto server = Server::Start(inst.uf.get(), opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Client client(ClientFor(**server));

  auto pin = inst.db->OpenSnapshot();
  auto resp =
      client.Check(fixtures::ChainReplaceUpdate(2, 0, "cow-metrics"), true);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->verdict, Verdict::kExecuted) << resp->message;

  auto wire = client.Metrics();
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  const WireMetric* copied = wire->Find("mvcc_cow_slots_copied");
  ASSERT_NE(copied, nullptr);
  EXPECT_GE(copied->value, relational::Table::kPageSlots);
  const WireMetric* retained = wire->Find("mvcc_retained_versions");
  ASSERT_NE(retained, nullptr);
  EXPECT_GE(retained->value, 1u);
  EXPECT_EQ(retained->value, inst.db->retained_version_count());

  pin.reset();  // GC reclaims the version only the pin still saw
  auto after = client.Metrics();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  const WireMetric* released = after->Find("mvcc_retained_versions");
  ASSERT_NE(released, nullptr);
  EXPECT_EQ(released->value, 0u);
}

}  // namespace
}  // namespace ufilter::net
