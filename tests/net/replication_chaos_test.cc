// Replication under injected transport faults: the follower's subscription
// runs through the chaos proxy and must survive severed connections,
// blackholes and corrupt bytes by reconnecting and resuming from its own
// epoch — converging to the primary every time, with no epoch ever applied
// twice. Also pins the source's side of the contract: one bad frame drops
// exactly that subscription.
#include "net/replication.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "../support/chaos_proxy.h"
#include "../support/temp_dir.h"
#include "fixtures/synthetic.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "relational/wal.h"

namespace ufilter::net {
namespace {

using check::UFilter;
using relational::Database;
using test_support::TempDir;
using testing::ChaosProxy;

constexpr int kDepth = 2;
constexpr int kRows = 10;

struct Rig {
  Rig() = default;
  Rig(Rig&&) = default;
  Rig& operator=(Rig&&) = default;

  int rows = kRows;
  std::unique_ptr<Database> primary_db;
  std::unique_ptr<UFilter> primary_uf;
  std::unique_ptr<Server> primary_server;
  std::unique_ptr<ReplicationSource> source;
  std::unique_ptr<ChaosProxy> proxy;
  std::unique_ptr<Database> follower_db;
  std::unique_ptr<UFilter> follower_uf;
  std::unique_ptr<Server> follower_server;
  std::unique_ptr<Follower> follower;

  /// `before_follow` runs once everything but the Follower is up: the
  /// place to arm proxy faults for the very first subscription.
  static Rig Up(const std::string& wal, int rows = kRows,
                const std::function<void(Rig*)>& before_follow = {}) {
    Rig rig;
    rig.rows = rows;
    auto db = Database::Create(fixtures::MakeChainSchema(kDepth));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    rig.primary_db = std::move(*db);
    relational::DurabilityOptions dopts;
    dopts.wal_path = wal;
    dopts.fsync_policy = relational::FsyncPolicy::kGroup;
    EXPECT_TRUE(rig.primary_db->EnableDurability(dopts).ok());
    EXPECT_TRUE(
        fixtures::PopulateChain(rig.primary_db.get(), kDepth, rows).ok());
    EXPECT_TRUE(rig.primary_db->PublishVersion().ok());
    auto uf = UFilter::Create(rig.primary_db.get(),
                              fixtures::ChainViewQuery(kDepth));
    EXPECT_TRUE(uf.ok()) << uf.status().ToString();
    rig.primary_uf = std::move(*uf);
    auto server = Server::Start(rig.primary_uf.get());
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    rig.primary_server = std::move(*server);

    ReplicationSourceOptions ropts;
    ropts.wal_path = wal;
    auto src = ReplicationSource::Start(
        rig.primary_db.get(), &rig.primary_server->service().registry(),
        ropts);
    EXPECT_TRUE(src.ok()) << src.status().ToString();
    rig.source = std::move(*src);
    rig.proxy = std::make_unique<ChaosProxy>(rig.source->port());

    auto fdb = Database::Create(fixtures::MakeChainSchema(kDepth));
    EXPECT_TRUE(fdb.ok()) << fdb.status().ToString();
    rig.follower_db = std::move(*fdb);
    auto fuf = UFilter::Create(rig.follower_db.get(),
                               fixtures::ChainViewQuery(kDepth));
    EXPECT_TRUE(fuf.ok()) << fuf.status().ToString();
    rig.follower_uf = std::move(*fuf);
    auto fserver = Server::Start(rig.follower_uf.get());
    EXPECT_TRUE(fserver.ok()) << fserver.status().ToString();
    rig.follower_server = std::move(*fserver);
    if (before_follow) before_follow(&rig);

    FollowerOptions fopts;
    fopts.port = rig.proxy->port();
    // Tight liveness so a blackholed connection is declared dead fast.
    fopts.dead_after = std::chrono::milliseconds(400);
    fopts.backoff_max = std::chrono::milliseconds(100);
    rig.follower = Follower::Start(&rig.follower_server->service(),
                                   rig.follower_db.get(), fopts);
    return rig;
  }

  Status Commit(int batch) {
    return fixtures::ApplyChainBatch(primary_db.get(), kDepth, rows,
                                     /*seed=*/23, batch);
  }

  void ExpectConverged(const char* label) {
    ASSERT_TRUE(follower->WaitForEpoch(primary_db->commit_epoch(),
                                       std::chrono::seconds(15)))
        << label << ": follower stuck at " << follower->applied_epoch()
        << " of " << primary_db->commit_epoch() << " (status "
        << follower->status().ToString() << ")";
    auto want = primary_db->SerializePublishedState();
    auto got = follower_db->SerializePublishedState();
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, *want) << label;
    EXPECT_TRUE(follower->status().ok()) << label;
  }

  ~Rig() {
    if (follower != nullptr) follower->Stop();
    if (proxy != nullptr) proxy->Stop();
    if (source != nullptr) source->Stop();
  }
};

TEST(ReplicationChaosTest, SeveredSubscriptionReconnectsAndResumes) {
  TempDir tmp("repl_sever");
  ASSERT_TRUE(tmp.ok());
  Rig rig = Rig::Up(tmp.path("primary.wal"));
  ASSERT_TRUE(rig.Commit(0).ok());
  rig.ExpectConverged("initial catch-up");
  const uint64_t connects_before = rig.follower->stats().connects;
  const uint64_t applied_before = rig.follower->stats().records_applied;

  rig.proxy->SeverAll();
  ASSERT_TRUE(rig.Commit(1).ok());
  ASSERT_TRUE(rig.Commit(2).ok());
  rig.ExpectConverged("post-sever");
  EXPECT_GT(rig.follower->stats().connects, connects_before)
      << "convergence without a reconnect means the sever missed";
  // Exactly the two severed-era epochs applied: resume-from-epoch never
  // replays what the follower already has (idempotent skips aside).
  EXPECT_EQ(rig.follower->stats().records_applied, applied_before + 2);
}

TEST(ReplicationChaosTest, BlackholedStreamIsDeclaredDeadAndRebuilt) {
  TempDir tmp("repl_hole");
  ASSERT_TRUE(tmp.ok());
  Rig rig = Rig::Up(tmp.path("primary.wal"));
  ASSERT_TRUE(rig.Commit(0).ok());
  rig.ExpectConverged("initial catch-up");
  const uint64_t connects_before = rig.follower->stats().connects;

  // Bytes vanish silently: no FIN, no RST. Only the dead_after watchdog
  // can notice. Commits continue during the outage.
  rig.proxy->Blackhole(true);
  ASSERT_TRUE(rig.Commit(1).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  rig.proxy->Blackhole(false);
  ASSERT_TRUE(rig.Commit(2).ok());
  rig.ExpectConverged("post-blackhole");
  EXPECT_GT(rig.follower->stats().connects, connects_before);
}

TEST(ReplicationChaosTest, CorruptFrameDropsSubscriptionThenResumes) {
  TempDir tmp("repl_corrupt");
  ASSERT_TRUE(tmp.ok());
  Rig rig = Rig::Up(tmp.path("primary.wal"));
  ASSERT_TRUE(rig.Commit(0).ok());
  rig.ExpectConverged("initial catch-up");

  // Flip a bit in the follower's next upstream chunk (an ack): the source
  // fails the CRC, drops that subscription, and the follower rebuilds it.
  rig.proxy->CorruptNext();
  ASSERT_TRUE(rig.Commit(1).ok());
  rig.ExpectConverged("post-corruption");
  bool dropped = false;
  for (int i = 0; i < 100 && !dropped; ++i) {
    dropped = rig.source->stats().protocol_errors >= 1;
    if (!dropped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(dropped) << "the corrupt frame was never noticed";

  // Chaos over: the stream keeps working.
  ASSERT_TRUE(rig.Commit(2).ok());
  rig.ExpectConverged("post-recovery");
}

TEST(ReplicationChaosTest, RepeatedFaultsNeverDoubleApplyAnEpoch) {
  TempDir tmp("repl_storm");
  ASSERT_TRUE(tmp.ok());
  Rig rig = Rig::Up(tmp.path("primary.wal"));
  int batch = 0;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(rig.Commit(batch++).ok());
    rig.proxy->SeverAll();
    ASSERT_TRUE(rig.Commit(batch++).ok());
    rig.proxy->CorruptNext();
    ASSERT_TRUE(rig.Commit(batch++).ok());
    rig.ExpectConverged("storm round");
  }
  // Convergence is byte-equal (checked each round); on top of that the
  // accounting must balance: each of the `batch` committed epochs was
  // applied at most once (the bootstrap snapshot may cover a prefix), and
  // anything a resume re-delivered was skipped, never re-applied.
  auto stats = rig.follower->stats();
  EXPECT_LE(stats.records_applied, static_cast<uint64_t>(batch))
      << "more records applied than epochs committed: an epoch ran twice";
  EXPECT_EQ(rig.follower_db->commit_epoch(), rig.primary_db->commit_epoch());
}

// One bad frame — wrong type or garbage bytes — costs exactly that
// subscription, nothing else.
TEST(ReplicationChaosTest, BadFirstFrameIsRefusedWithoutCollateral) {
  TempDir tmp("repl_bad");
  ASSERT_TRUE(tmp.ok());
  Rig rig = Rig::Up(tmp.path("primary.wal"));
  ASSERT_TRUE(rig.Commit(0).ok());
  rig.ExpectConverged("healthy subscriber up");
  const uint64_t errors_before = rig.source->stats().protocol_errors;

  // A peer whose first frame is not kReplSubscribe (a check request on the
  // replication plane) is hung up on.
  {
    auto fd = ConnectTcp("127.0.0.1", rig.source->port(),
                         std::chrono::milliseconds(1000));
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(2000);
    ASSERT_TRUE(SendAll(*fd, kNetMagic, kNetMagicLen, deadline).ok());
    CheckRequestMsg req;
    req.request_id = 1;
    req.update_text = "not a subscription";
    std::string frame = FramePayload(EncodeCheckRequest(req));
    ASSERT_TRUE(SendAll(*fd, frame.data(), frame.size(), deadline).ok());
    char buf[16];
    auto got = RecvSome(*fd, buf, sizeof(buf),
                        std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(5000));
    EXPECT_FALSE(got.ok()) << "the source answered a non-subscribe frame";
    CloseFd(*fd);
  }
  bool counted = false;
  for (int i = 0; i < 100 && !counted; ++i) {
    counted = rig.source->stats().protocol_errors > errors_before;
    if (!counted) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(counted);

  // The healthy subscription never noticed.
  ASSERT_TRUE(rig.Commit(1).ok());
  rig.ExpectConverged("after the bad peer");
  EXPECT_TRUE(rig.follower->status().ok());
}

/// A hand-driven subscriber connection to the source's port.
int ConnectRaw(uint16_t port) {
  auto fd = ConnectTcp("127.0.0.1", port, std::chrono::milliseconds(1000));
  EXPECT_TRUE(fd.ok()) << fd.status().ToString();
  if (!fd.ok()) return -1;
  Status st = SendAll(*fd, kNetMagic, kNetMagicLen,
                      std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(1000));
  EXPECT_TRUE(st.ok()) << st.ToString();
  return *fd;
}

/// Polls the source's protocol-error count until it passes `before`.
bool ProtocolErrorCounted(const ReplicationSource& source, uint64_t before,
                          std::chrono::milliseconds within) {
  const auto deadline = std::chrono::steady_clock::now() + within;
  while (source.stats().protocol_errors <= before) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

// The proxy's CorruptNext flips bit 0x40 of an ack's first byte, turning
// its length prefix from 9 into 73. The source must refuse that header at
// once: a reader that waited for 73 bytes would only notice after four
// more acks, which at one per heartbeat takes about as long as the
// convergence wait of CorruptFrameDropsSubscriptionThenResumes.
TEST(ReplicationChaosTest, CorruptAckLengthIsCountedBeforeAnotherAck) {
  TempDir tmp("repl_ack_len");
  ASSERT_TRUE(tmp.ok());
  Rig rig = Rig::Up(tmp.path("primary.wal"));
  ASSERT_TRUE(rig.Commit(0).ok());
  rig.ExpectConverged("healthy subscriber up");
  const uint64_t errors_before = rig.source->stats().protocol_errors;

  int fd = ConnectRaw(rig.source->port());
  ASSERT_GE(fd, 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(2000);
  const uint64_t epoch = rig.primary_db->commit_epoch();
  std::string subscribe = FramePayload(EncodeReplSubscribe({epoch, 0}));
  ASSERT_TRUE(SendAll(fd, subscribe.data(), subscribe.size(), deadline).ok());
  // The first records frame (a heartbeat) proves the handshake is done.
  char buf[4096];
  ASSERT_TRUE(RecvSome(fd, buf, sizeof(buf), deadline).ok());

  std::string ack = FramePayload(EncodeReplAck({epoch}));
  ack[0] = static_cast<char>(ack[0] ^ 0x40);
  ASSERT_TRUE(SendAll(fd, ack.data(), ack.size(), deadline).ok());
  EXPECT_TRUE(ProtocolErrorCounted(*rig.source, errors_before,
                                   std::chrono::milliseconds(3000)))
      << "the source is still waiting for the body of a 73-byte ack";
  CloseFd(fd);

  ASSERT_TRUE(rig.Commit(1).ok());
  rig.ExpectConverged("after the corrupt ack");
}

// A subscribe frame is a few bytes; a length prefix of 32 MiB is refused
// when its header arrives, not after the handshake timeout.
TEST(ReplicationChaosTest, OversizedSubscribeIsRefusedBeforeItsBody) {
  TempDir tmp("repl_big_sub");
  ASSERT_TRUE(tmp.ok());
  Rig rig = Rig::Up(tmp.path("primary.wal"));
  const uint64_t errors_before = rig.source->stats().protocol_errors;

  int fd = ConnectRaw(rig.source->port());
  ASSERT_GE(fd, 0);
  std::string header;
  const uint32_t len = 32u << 20;
  for (int i = 0; i < 4; ++i) header.push_back(char((len >> (8 * i)) & 0xFF));
  header.append(4, '\0');  // CRC placeholder; never read
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(SendAll(fd, header.data(), header.size(),
                      start + std::chrono::milliseconds(1000))
                  .ok());
  char buf[16];
  auto got = RecvSome(fd, buf, sizeof(buf),
                      start + std::chrono::milliseconds(3000));
  EXPECT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsUnavailable())
      << "expected a hang-up, got " << got.status().ToString();
  EXPECT_TRUE(ProtocolErrorCounted(*rig.source, errors_before,
                                   std::chrono::milliseconds(1000)));
  CloseFd(fd);
}

/// Frame sizes of the bootstrap `db` ships while its state stays as it is
/// now: header + kReplSnapshot header + one chunk each.
std::vector<int64_t> BootstrapFrameSizes(Database* db) {
  auto snapshot = db->OpenSnapshot();
  relational::StateEncoder encoder(db->schema(), *snapshot);
  std::vector<int64_t> sizes;
  std::string chunk;
  while (!encoder.done()) {
    chunk.clear();
    encoder.AppendChunk(&chunk, kReplSnapshotChunkBytes);
    sizes.push_back(static_cast<int64_t>(kFrameHeaderLen +
                                         kReplSnapshotHeaderLen + chunk.size()));
  }
  return sizes;
}

/// A bootstrap broken in the middle of its second chunk — severed, or one
/// bit flipped so the frame fails its CRC — is dropped whole: the
/// follower's published epoch stays 0 (never a partial state), then it
/// resubscribes from 0, bootstraps again and converges, and only the
/// complete load counts in repl_snapshots_loaded.
void BrokenBootstrapIsNeverVisible(bool corrupt) {
  TempDir tmp(corrupt ? "repl_boot_corrupt" : "repl_boot_sever");
  ASSERT_TRUE(tmp.ok());
  constexpr int kBigRows = 3000;  // several kReplSnapshotChunkBytes chunks
  std::atomic<bool> stop{false};
  std::set<uint64_t> epochs_seen;
  std::thread sampler;
  uint64_t boot_epoch = 0;
  size_t chunks = 0;
  Rig rig = Rig::Up(tmp.path("primary.wal"), kBigRows, [&](Rig* r) {
    boot_epoch = r->primary_db->commit_epoch();
    std::vector<int64_t> frames = BootstrapFrameSizes(r->primary_db.get());
    chunks = frames.size();
    ASSERT_GE(frames.size(), 3u);
    const int64_t mid_second_chunk = frames[0] + frames[1] / 2;
    if (corrupt) {
      r->proxy->CorruptDownstreamAt(mid_second_chunk);
    } else {
      r->proxy->SeverDownstreamAfter(mid_second_chunk);
    }
    obs::Registry* registry = &r->follower_server->service().registry();
    sampler = std::thread([&stop, &epochs_seen, registry] {
      while (!stop.load()) {
        epochs_seen.insert(
            obs::SampleValue(registry->Collect(), "db_commit_epoch"));
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  });
  if (chunks >= 3) rig.ExpectConverged("after the broken bootstrap");
  stop.store(true);
  if (sampler.joinable()) sampler.join();
  ASSERT_GE(chunks, 3u);
  // Convergence can return between two samples: take the last one here.
  epochs_seen.insert(obs::SampleValue(
      rig.follower_server->service().registry().Collect(), "db_commit_epoch"));
  EXPECT_EQ(epochs_seen, (std::set<uint64_t>{0, boot_epoch}))
      << "the follower published something other than nothing or the "
         "whole bootstrap";
  const FollowerStats stats = rig.follower->stats();
  EXPECT_GE(stats.connects, 2u) << "the fault never broke the bootstrap";
  EXPECT_EQ(stats.snapshots_loaded, 1u);
  EXPECT_EQ(stats.records_applied, 0u);
  EXPECT_GT(rig.source->stats().snapshot_chunks_shipped, chunks)
      << "the second bootstrap must resend from the first chunk";

  // The stream carries on past the bootstrap.
  ASSERT_TRUE(rig.Commit(0).ok());
  rig.ExpectConverged("after a commit");
}

TEST(ReplicationChaosTest, BootstrapSeveredMidChunkIsDroppedWhole) {
  BrokenBootstrapIsNeverVisible(/*corrupt=*/false);
}

TEST(ReplicationChaosTest, BootstrapCorruptedMidChunkIsDroppedWhole) {
  BrokenBootstrapIsNeverVisible(/*corrupt=*/true);
}

}  // namespace
}  // namespace ufilter::net
