// End-to-end epoch-stream replication over real sockets: a primary server
// with a ReplicationSource, a follower server subscribed to it. The
// acceptance this file pins:
//   - the follower converges byte-equal to the primary's published state
//     and serves *identical* verdicts for the paper's u1..u13 workload at
//     the matched epoch;
//   - a subscriber arriving mid-stream bootstraps from a snapshot at the
//     primary's current epoch and then rides the live tail;
//   - replication_lag_epochs falls to 0 once the primary idles (heartbeats
//     keep the gauge fresh without commits);
//   - a follower is read-only: applies come back kRedirectToPrimary naming
//     the primary, and are never executed locally;
//   - shipping is event-driven: a commit reaches the follower even when the
//     source's only timer (the heartbeat) is 10 s away, Stop() never waits
//     one out, and acks land within one heartbeat;
//   - the repl_subscribers gauge counts concurrent subscribers exactly.
#include "net/replication.h"

#include <gtest/gtest.h>

#include <algorithm>
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
#include "net/server.h"
#include "obs/metrics.h"
#include "relational/wal.h"

namespace ufilter::net {
namespace {

using check::UFilter;
using relational::Database;
using test_support::TempDir;

constexpr int kDepth = 2;
constexpr int kRows = 12;

struct Node {
  std::unique_ptr<Database> db;
  std::unique_ptr<UFilter> uf;
  std::unique_ptr<Server> server;
};

/// A durable primary: schema + WAL on, then seeded *through* the WAL so
/// the log certifies everything (the snapshot bootstrap covers pre-WAL
/// state anyway, but the crash tests want the full history on disk).
Node MakeChainPrimary(const std::string& wal, int rows = kRows) {
  Node node;
  auto db = Database::Create(fixtures::MakeChainSchema(kDepth));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  node.db = std::move(*db);
  relational::DurabilityOptions dopts;
  dopts.wal_path = wal;
  dopts.fsync_policy = relational::FsyncPolicy::kGroup;
  EXPECT_TRUE(node.db->EnableDurability(dopts).ok());
  EXPECT_TRUE(fixtures::PopulateChain(node.db.get(), kDepth, rows).ok());
  EXPECT_TRUE(node.db->PublishVersion().ok());
  EXPECT_TRUE(node.db->SyncWal().ok());
  auto uf = UFilter::Create(node.db.get(), fixtures::ChainViewQuery(kDepth));
  EXPECT_TRUE(uf.ok()) << uf.status().ToString();
  node.uf = std::move(*uf);
  auto server = Server::Start(node.uf.get());
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  node.server = std::move(*server);
  return node;
}

/// The book database (u1..u13's world) as a durable primary. Seeding
/// happened before durability: the WAL only carries post-enable epochs and
/// the snapshot bootstrap ships the rest — deliberately exercising that
/// split.
Node MakeBookPrimary(const std::string& wal) {
  Node node;
  auto db = fixtures::MakeBookDatabase();
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  node.db = std::move(*db);
  relational::DurabilityOptions dopts;
  dopts.wal_path = wal;
  dopts.fsync_policy = relational::FsyncPolicy::kGroup;
  EXPECT_TRUE(node.db->EnableDurability(dopts).ok());
  EXPECT_TRUE(node.db->PublishVersion().ok());
  auto uf = UFilter::Create(node.db.get(), fixtures::BookViewQuery());
  EXPECT_TRUE(uf.ok()) << uf.status().ToString();
  node.uf = std::move(*uf);
  auto server = Server::Start(node.uf.get());
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  node.server = std::move(*server);
  return node;
}

/// A follower node: fresh database, redirecting server, no subscription
/// yet (the test owns the Follower so it can Stop/observe it).
Node MakeFollowerNode(const Node& primary, bool book) {
  Node node;
  auto db = Database::Create(book ? fixtures::MakeBookSchema()
                                  : fixtures::MakeChainSchema(kDepth));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  node.db = std::move(*db);
  auto uf = UFilter::Create(node.db.get(),
                            book ? fixtures::BookViewQuery()
                                 : fixtures::ChainViewQuery(kDepth));
  EXPECT_TRUE(uf.ok()) << uf.status().ToString();
  node.uf = std::move(*uf);
  ServerOptions sopts;
  sopts.redirect_primary =
      "127.0.0.1:" + std::to_string(primary.server->port());
  auto server = Server::Start(node.uf.get(), sopts);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  node.server = std::move(*server);
  return node;
}

std::unique_ptr<ReplicationSource> StartSource(
    Node* primary, const std::string& wal,
    ReplicationSourceOptions ropts = {}) {
  ropts.wal_path = wal;
  auto src = ReplicationSource::Start(
      primary->db.get(), &primary->server->service().registry(), ropts);
  EXPECT_TRUE(src.ok()) << src.status().ToString();
  return src.ok() ? std::move(*src) : nullptr;
}

std::unique_ptr<Follower> StartFollower(Node* follower_node,
                                        const ReplicationSource& src,
                                        FollowerOptions fopts = {}) {
  fopts.port = src.port();
  return Follower::Start(&follower_node->server->service(),
                         follower_node->db.get(), fopts);
}

std::string StateOf(Database* db) {
  auto state = db->SerializePublishedState();
  EXPECT_TRUE(state.ok()) << state.status().ToString();
  return state.ok() ? *state : std::string();
}

ClientOptions ClientFor(const Server& server) {
  ClientOptions opts;
  opts.port = server.port();
  return opts;
}

TEST(ReplicationTest, FollowerConvergesAndServesIdenticalVerdicts) {
  TempDir tmp("repl_e2e");
  ASSERT_TRUE(tmp.ok());
  const std::string wal = tmp.path("primary.wal");
  Node primary = MakeBookPrimary(wal);
  auto source = StartSource(&primary, wal);
  ASSERT_NE(source, nullptr);
  Node replica = MakeFollowerNode(primary, /*book=*/true);
  auto follower = StartFollower(&replica, *source);

  // Drive the primary through the paper's whole update workload; the
  // executed subset commits epochs into the WAL and onto the stream.
  Client writer(ClientFor(*primary.server));
  for (int u = 1; u <= 13; ++u) {
    auto resp = writer.Check(fixtures::PaperUpdate(u), /*apply=*/true);
    ASSERT_TRUE(resp.ok()) << "u" << u << ": " << resp.status().ToString();
  }

  const uint64_t target = primary.db->commit_epoch();
  ASSERT_TRUE(follower->WaitForEpoch(target, std::chrono::seconds(10)))
      << "follower stuck at epoch " << follower->applied_epoch() << " of "
      << target << " (status " << follower->status().ToString() << ")";
  EXPECT_TRUE(follower->status().ok());

  // Byte-equal convergence: published state is identical, not just similar.
  EXPECT_EQ(StateOf(replica.db.get()), StateOf(primary.db.get()));
  EXPECT_EQ(replica.db->commit_epoch(), target);

  // Verdict parity at the matched epoch: every u1..u13 dry-run answer from
  // the follower equals the primary's, field for field.
  Client on_primary(ClientFor(*primary.server));
  Client on_replica(ClientFor(*replica.server));
  for (int u = 1; u <= 13; ++u) {
    auto want = on_primary.Check(fixtures::PaperUpdate(u), /*apply=*/false);
    auto got = on_replica.Check(fixtures::PaperUpdate(u), /*apply=*/false);
    ASSERT_TRUE(want.ok()) << "u" << u << ": " << want.status().ToString();
    ASSERT_TRUE(got.ok()) << "u" << u << ": " << got.status().ToString();
    EXPECT_EQ(got->verdict, want->verdict) << "u" << u;
    EXPECT_EQ(got->status_code, want->status_code) << "u" << u;
    EXPECT_EQ(got->rows_affected, want->rows_affected) << "u" << u;
  }

  // The primary has idled through the parity pass: heartbeats must have
  // brought the lag gauges to zero.
  bool lag_zero = false;
  for (int i = 0; i < 200 && !lag_zero; ++i) {
    auto stats = follower->stats();
    lag_zero = stats.lag_epochs == 0 && stats.lag_ms == 0;
    if (!lag_zero) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(lag_zero) << "lag_epochs=" << follower->stats().lag_epochs;

  // Read-only contract: an apply against the follower is refused with a
  // redirect naming the primary, executes nothing, and the client hands
  // the verdict straight back (a redirect is not retry-safe).
  const uint64_t epoch_before = replica.db->commit_epoch();
  auto redirect = on_replica.Check(fixtures::PaperUpdate(4), /*apply=*/true);
  ASSERT_TRUE(redirect.ok()) << redirect.status().ToString();
  EXPECT_EQ(redirect->verdict, Verdict::kRedirectToPrimary);
  EXPECT_NE(redirect->message.find(
                "127.0.0.1:" + std::to_string(primary.server->port())),
            std::string::npos)
      << redirect->message;
  EXPECT_EQ(replica.db->commit_epoch(), epoch_before);
  EXPECT_GE(obs::SampleValue(replica.server->service().registry().Collect(),
                              "server_redirected_applies"),
            1u);
  EXPECT_EQ(on_replica.metrics().retries, 0u);

  // The source saw our acks climb to the target epoch.
  bool acked = false;
  for (int i = 0; i < 200 && !acked; ++i) {
    acked = source->stats().acked_epoch >= target;
    if (!acked) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(acked) << "acked_epoch=" << source->stats().acked_epoch;

  follower->Stop();
  source->Stop();
}

TEST(ReplicationTest, MidStreamSubscriberBootstrapsFromSnapshot) {
  TempDir tmp("repl_mid");
  ASSERT_TRUE(tmp.ok());
  const std::string wal = tmp.path("primary.wal");
  Node primary = MakeChainPrimary(wal);
  auto source = StartSource(&primary, wal);
  ASSERT_NE(source, nullptr);

  // History happens before the subscriber exists.
  for (int b = 0; b < 4; ++b) {
    ASSERT_TRUE(
        fixtures::ApplyChainBatch(primary.db.get(), kDepth, kRows, 11, b)
            .ok());
  }
  const uint64_t pre_subscribe_epoch = primary.db->commit_epoch();

  Node replica = MakeFollowerNode(primary, /*book=*/false);
  auto follower = StartFollower(&replica, *source);
  ASSERT_TRUE(
      follower->WaitForEpoch(pre_subscribe_epoch, std::chrono::seconds(10)));
  // The catch-up came from one snapshot, not a record-by-record replay of
  // history the subscriber never saw. The source counts a snapshot once
  // its send returns, which can be after the follower has loaded it.
  EXPECT_EQ(follower->stats().snapshots_loaded, 1u);
  for (int i = 0; i < 200 && source->stats().snapshots_shipped == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(source->stats().snapshots_shipped, 1u);
  EXPECT_EQ(StateOf(replica.db.get()), StateOf(primary.db.get()));

  // And the live tail continues past the bootstrap.
  for (int b = 4; b < 7; ++b) {
    ASSERT_TRUE(
        fixtures::ApplyChainBatch(primary.db.get(), kDepth, kRows, 11, b)
            .ok());
  }
  ASSERT_TRUE(follower->WaitForEpoch(primary.db->commit_epoch(),
                                     std::chrono::seconds(10)));
  EXPECT_EQ(StateOf(replica.db.get()), StateOf(primary.db.get()));
  EXPECT_GT(follower->stats().records_applied, 0u);

  follower->Stop();
  source->Stop();
}

/// Source and follower whose only timers are 10 s heartbeats / 60 s
/// liveness: nothing but a publish notification can move a record.
struct SlowHeartbeatPair {
  TempDir tmp{"repl_wake"};
  Node primary;
  std::unique_ptr<ReplicationSource> source;
  Node replica;
  std::unique_ptr<Follower> follower;

  SlowHeartbeatPair() {
    const std::string wal = tmp.path("primary.wal");
    primary = MakeChainPrimary(wal);
    ReplicationSourceOptions ropts;
    ropts.heartbeat_interval = std::chrono::seconds(10);
    source = StartSource(&primary, wal, ropts);
    replica = MakeFollowerNode(primary, /*book=*/false);
    FollowerOptions fopts;
    fopts.dead_after = std::chrono::seconds(60);
    follower = StartFollower(&replica, *source, fopts);
  }
  ~SlowHeartbeatPair() {
    follower->Stop();
    source->Stop();
  }
};

TEST(ReplicationTest, CommitShipsOnPublishNotOnATimer) {
  SlowHeartbeatPair pair;
  ASSERT_TRUE(pair.follower->WaitForEpoch(pair.primary.db->commit_epoch(),
                                          std::chrono::seconds(10)));
  // Let the subscriber send its first heartbeat and block in the wait.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  ASSERT_TRUE(
      fixtures::ApplyChainBatch(pair.primary.db.get(), kDepth, kRows, 5, 0)
          .ok());
  const uint64_t target = pair.primary.db->commit_epoch();
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(pair.follower->WaitForEpoch(target, std::chrono::seconds(2)))
      << "follower stuck at epoch " << pair.follower->applied_epoch()
      << " of " << target;
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
  EXPECT_EQ(StateOf(pair.replica.db.get()), StateOf(pair.primary.db.get()));
  EXPECT_EQ(pair.follower->stats().connects, 1u) << "no reconnect involved";
}

TEST(ReplicationTest, StopWakesAnIdleSubscriber) {
  SlowHeartbeatPair pair;
  ASSERT_TRUE(pair.follower->WaitForEpoch(pair.primary.db->commit_epoch(),
                                          std::chrono::seconds(10)));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(pair.source->stats().subscribers, 1u);

  // The subscriber sleeps until a heartbeat 10 s away; Stop must not.
  const auto start = std::chrono::steady_clock::now();
  pair.source->Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  EXPECT_EQ(pair.source->stats().subscribers, 0u);
}

TEST(ReplicationTest, WaitForEpochReturnsWhenTheFollowerStops) {
  SlowHeartbeatPair pair;
  ASSERT_TRUE(pair.follower->WaitForEpoch(pair.primary.db->commit_epoch(),
                                          std::chrono::seconds(10)));
  const uint64_t unreachable = pair.primary.db->commit_epoch() + 1;
  const auto start = std::chrono::steady_clock::now();
  bool reached = true;
  std::thread waiter([&] {
    reached = pair.follower->WaitForEpoch(unreachable,
                                          std::chrono::seconds(30));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  pair.follower->Stop();
  waiter.join();
  EXPECT_FALSE(reached);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
}

TEST(ReplicationTest, AckedEpochCatchesUpWhileThePrimaryIdles) {
  TempDir tmp("repl_ack");
  ASSERT_TRUE(tmp.ok());
  const std::string wal = tmp.path("primary.wal");
  Node primary = MakeChainPrimary(wal);
  auto source = StartSource(&primary, wal);  // default heartbeat (200 ms)
  ASSERT_NE(source, nullptr);
  Node replica = MakeFollowerNode(primary, /*book=*/false);
  auto follower = StartFollower(&replica, *source);

  for (int b = 0; b < 3; ++b) {
    ASSERT_TRUE(
        fixtures::ApplyChainBatch(primary.db.get(), kDepth, kRows, 9, b)
            .ok());
  }
  const uint64_t target = primary.db->commit_epoch();
  ASSERT_TRUE(follower->WaitForEpoch(target, std::chrono::seconds(10)));
  // The primary now idles: the follower's last ack is read on the next
  // heartbeat wake, at most one heartbeat_interval later (2 s is slack for
  // sanitizer builds).
  bool acked = false;
  for (int i = 0; i < 200 && !acked; ++i) {
    acked = source->stats().acked_epoch >= target;
    if (!acked) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(acked) << "acked_epoch=" << source->stats().acked_epoch
                     << " target=" << target;
  follower->Stop();
  source->Stop();
}

TEST(ReplicationTest, SubscriberGaugeCountsConcurrentSubscribersExactly) {
  TempDir tmp("repl_gauge");
  ASSERT_TRUE(tmp.ok());
  const std::string wal = tmp.path("primary.wal");
  Node primary = MakeChainPrimary(wal);
  auto source = StartSource(&primary, wal);
  ASSERT_NE(source, nullptr);

  // Eight raw subscribers resume from the primary's epoch (no snapshot),
  // all connecting at once so the gauge updates race.
  constexpr int kSubscribers = 8;
  std::vector<int> fds(kSubscribers, -1);
  std::atomic<bool> go{false};
  std::vector<std::thread> dialers;
  ReplSubscribeMsg sub;
  sub.start_epoch = primary.db->commit_epoch();
  const std::string subscribe = FramePayload(EncodeReplSubscribe(sub));
  for (int i = 0; i < kSubscribers; ++i) {
    dialers.emplace_back([&, i] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      auto fd = ConnectTcp("127.0.0.1", source->port(),
                           std::chrono::milliseconds(5000));
      if (!fd.ok()) return;
      fds[i] = *fd;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      (void)SendAll(*fd, kNetMagic, kNetMagicLen, deadline);
      (void)SendAll(*fd, subscribe.data(), subscribe.size(), deadline);
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : dialers) t.join();
  for (int fd : fds) ASSERT_GE(fd, 0);

  auto wait_for_gauge = [&](uint64_t want) {
    for (int i = 0; i < 500; ++i) {
      if (source->stats().subscribers == want) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  };
  EXPECT_TRUE(wait_for_gauge(kSubscribers))
      << "subscribers=" << source->stats().subscribers;
  // Commits fan out to all eight without disturbing the count.
  ASSERT_TRUE(
      fixtures::ApplyChainBatch(primary.db.get(), kDepth, kRows, 3, 0).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(source->stats().subscribers, static_cast<uint64_t>(kSubscribers));

  for (int fd : fds) CloseFd(fd);
  EXPECT_TRUE(wait_for_gauge(0))
      << "subscribers=" << source->stats().subscribers;
  source->Stop();
}

/// A hand-driven subscription: the frames a source sends, one at a time.
class RawSubscriber {
 public:
  RawSubscriber(uint16_t port, uint64_t start_epoch) {
    auto fd = ConnectTcp("127.0.0.1", port, std::chrono::milliseconds(5000));
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    if (!fd.ok()) return;
    fd_ = *fd;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    const std::string subscribe =
        FramePayload(EncodeReplSubscribe({start_epoch, 0}));
    EXPECT_TRUE(SendAll(fd_, kNetMagic, kNetMagicLen, deadline).ok());
    EXPECT_TRUE(
        SendAll(fd_, subscribe.data(), subscribe.size(), deadline).ok());
  }
  ~RawSubscriber() { CloseFd(fd_); }

  /// The next frame's payload.
  Result<std::string> Next() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    char buf[65536];
    while (true) {
      auto next = frames_.Next();
      UFILTER_RETURN_NOT_OK(next.status());
      if (next->has_value()) return std::move(**next);
      auto got = RecvSome(fd_, buf, sizeof(buf), deadline);
      UFILTER_RETURN_NOT_OK(got.status());
      frames_.Feed(buf, *got);
    }
  }

 private:
  int fd_ = -1;
  FrameReader frames_{/*expect_magic=*/false, kReplMaxFrameBytes};
};

// The bootstrap is a sequence of bounded chunks, whatever the state size:
// no frame is larger than one chunk plus its header, so no state is too
// big for the follower's frame cap. The tail that follows starts past the
// bootstrap epoch.
TEST(ReplicationTest, BootstrapShipsTheStateInBoundedChunks) {
  TempDir tmp("repl_chunks");
  ASSERT_TRUE(tmp.ok());
  const std::string wal = tmp.path("primary.wal");
  Node primary = MakeChainPrimary(wal, /*rows=*/4000);
  auto source = StartSource(&primary, wal);
  ASSERT_NE(source, nullptr);

  auto replica = Database::Create(fixtures::MakeChainSchema(kDepth));
  ASSERT_TRUE(replica.ok());
  auto loader = (*replica)->NewStateLoader();
  RawSubscriber sub(source->port(), /*start_epoch=*/0);
  size_t chunks = 0;
  size_t largest = 0;
  uint64_t frame_bytes = 0;
  uint64_t epoch = 0;
  while (!loader->complete()) {
    auto payload = sub.Next();
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    auto chunk = DecodeReplSnapshot(*payload);
    ASSERT_TRUE(chunk.ok()) << "frame " << chunks << " is not a chunk";
    if (chunks == 0) epoch = chunk->epoch;
    EXPECT_EQ(chunk->epoch, epoch) << "every chunk is of one snapshot";
    ASSERT_TRUE(loader->Apply(chunk->data, chunk->size).ok());
    largest = std::max(largest, payload->size());
    frame_bytes += kFrameHeaderLen + payload->size();
    ++chunks;
  }
  EXPECT_GE(chunks, 4u);
  EXPECT_LE(largest, kReplSnapshotHeaderLen + kReplSnapshotChunkBytes);
  EXPECT_EQ(epoch, primary.db->commit_epoch());

  auto heartbeat = sub.Next();
  ASSERT_TRUE(heartbeat.ok()) << heartbeat.status().ToString();
  auto records = DecodeReplRecords(*heartbeat);
  ASSERT_TRUE(records.ok()) << "the tail follows the final chunk";
  EXPECT_TRUE(records->records.empty())
      << "the seed epoch is inside the bootstrap and never re-shipped";

  ASSERT_TRUE(
      (*replica)->LoadReplicatedSnapshot(epoch, std::move(loader)).ok());
  EXPECT_EQ(StateOf(replica->get()), StateOf(primary.db.get()));
  bool counted = false;
  for (int i = 0; i < 200 && !counted; ++i) {
    counted = source->stats().snapshots_shipped == 1;
    if (!counted) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(counted);
  EXPECT_EQ(source->stats().snapshot_chunks_shipped, chunks);
  EXPECT_EQ(source->stats().snapshot_bytes_shipped, frame_bytes);
  source->Stop();
}

// A subscriber resuming at epoch E receives exactly the records past E,
// and no bootstrap.
TEST(ReplicationTest, ResumingSubscriberReceivesOnlyLaterRecords) {
  TempDir tmp("repl_resume");
  ASSERT_TRUE(tmp.ok());
  const std::string wal = tmp.path("primary.wal");
  Node primary = MakeChainPrimary(wal);
  for (int b = 0; b < 6; ++b) {
    ASSERT_TRUE(
        fixtures::ApplyChainBatch(primary.db.get(), kDepth, kRows, 13, b)
            .ok());
  }
  auto source = StartSource(&primary, wal);
  ASSERT_NE(source, nullptr);
  const uint64_t last = primary.db->commit_epoch();
  const uint64_t resume = last - 3;

  RawSubscriber sub(source->port(), resume);
  std::vector<uint64_t> epochs;
  while (epochs.empty() || epochs.back() < last) {
    auto payload = sub.Next();
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    auto msg = DecodeReplRecords(*payload);
    ASSERT_TRUE(msg.ok()) << "a resuming subscriber got a non-records frame";
    for (const std::string& rec : msg->records) {
      auto record = relational::DecodeWalPayload(rec);
      ASSERT_TRUE(record.ok());
      epochs.push_back(record->epoch);
    }
  }
  EXPECT_EQ(epochs, (std::vector<uint64_t>{resume + 1, resume + 2, last}));
  EXPECT_EQ(source->stats().snapshots_shipped, 0u);
  source->Stop();
}

TEST(ReplicationTest, SourceRefusesToStartWithoutDurability) {
  auto db = fixtures::MakeChainDatabase(kDepth, kRows,
                                        relational::DeletePolicy::kCascade);
  ASSERT_TRUE(db.ok());
  obs::Registry registry;
  ReplicationSourceOptions ropts;
  ropts.wal_path = "/tmp/never-used.wal";
  auto src = ReplicationSource::Start(db->get(), &registry, ropts);
  EXPECT_FALSE(src.ok()) << "the stream *is* the WAL: no WAL, no stream";
}

}  // namespace
}  // namespace ufilter::net
