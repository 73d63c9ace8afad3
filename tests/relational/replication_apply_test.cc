// The replication substrate below the wire: WalTailer incremental reads
// over a live log, and the follower apply path (a chunked StateLoader
// installed by Database::LoadReplicatedSnapshot, then ApplyReplicatedEpoch)
// proven byte-equal against RecoverFrom — the stream and the log must be
// the same artifact.
#include "relational/wal.h"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "../support/paged_tombstones.h"
#include "../support/temp_dir.h"
#include "fixtures/synthetic.h"
#include "relational/database.h"

namespace ufilter::relational {
namespace {

using test_support::TempDir;

constexpr int kDepth = 2;
constexpr int kRows = 8;
constexpr uint64_t kNoCap = 64u << 20;

std::unique_ptr<Database> MakeEmptyChain() {
  auto db = Database::Create(fixtures::MakeChainSchema(kDepth));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(*db);
}

/// A durable primary with the seed plus `batches` committed batches.
std::unique_ptr<Database> MakePrimary(const std::string& wal, int batches,
                                      uint32_t seed = 7) {
  auto db = MakeEmptyChain();
  DurabilityOptions opts;
  opts.wal_path = wal;
  opts.fsync_policy = FsyncPolicy::kGroup;
  opts.group_commit_size = 4;
  EXPECT_TRUE(db->EnableDurability(opts).ok());
  EXPECT_TRUE(fixtures::PopulateChain(db.get(), kDepth, kRows).ok());
  for (int b = 0; b < batches; ++b) {
    EXPECT_TRUE(
        fixtures::ApplyChainBatch(db.get(), kDepth, kRows, seed, b).ok());
  }
  EXPECT_TRUE(db->SyncWal().ok());
  return db;
}

std::string StateOf(Database* db) {
  auto state = db->SerializePublishedState();
  EXPECT_TRUE(state.ok()) << state.status().ToString();
  return state.ok() ? *state : std::string();
}

/// Loads `primary`'s published state into a loader of `follower` chunk by
/// chunk, exactly what the kReplSnapshot frames carry. Returns the loader
/// (complete) and sets `*epoch` to the bootstrap epoch.
std::unique_ptr<StateLoader> LoadStateOf(Database* primary,
                                         const Database& follower,
                                         uint64_t* epoch,
                                         size_t chunk_bytes = kStateChunkBytes) {
  auto snapshot = primary->OpenSnapshot();
  *epoch = snapshot->epoch();
  auto loader = follower.NewStateLoader();
  StateEncoder encoder(primary->schema(), *snapshot);
  std::string chunk;
  while (!encoder.done()) {
    chunk.clear();
    encoder.AppendChunk(&chunk, chunk_bytes);
    Status st = loader->Apply(chunk.data(), chunk.size());
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  EXPECT_TRUE(loader->complete());
  return loader;
}

// --- WalTailer ------------------------------------------------------------

TEST(WalTailerTest, SeesRecordsAsTheyCommitAndOnlyOnce) {
  TempDir tmp("tailer_live");
  ASSERT_TRUE(tmp.ok());
  const std::string wal = tmp.path("live.wal");

  WalTailer tailer(wal);
  // Before the writer even creates the file: an empty batch, not an error.
  auto none = tailer.Poll(kNoCap);
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_TRUE(none->empty());

  auto db = MakePrimary(wal, /*batches=*/3);
  auto first = tailer.Poll(kNoCap);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_FALSE(first->empty());
  uint64_t prev_epoch = 0;
  uint64_t prev_end = 0;
  for (const auto& rec : *first) {
    EXPECT_GT(rec.epoch, prev_epoch) << "epochs strictly increase";
    EXPECT_GT(rec.end_offset, prev_end);
    prev_epoch = rec.epoch;
    prev_end = rec.end_offset;
    auto decoded = DecodeWalPayload(rec.payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->epoch, rec.epoch);
  }
  EXPECT_EQ(prev_epoch, db->commit_epoch());
  EXPECT_EQ(tailer.offset(), tailer.known_file_bytes());

  // Nothing new: an empty poll, never a re-delivery.
  auto again = tailer.Poll(kNoCap);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->empty());

  // A later commit shows up incrementally. kGroup staging means the bytes
  // may still be in the writer's buffer — FlushWalToFile makes them
  // file-visible without disturbing the fsync schedule.
  ASSERT_TRUE(fixtures::ApplyChainBatch(db.get(), kDepth, kRows, 7, 3).ok());
  ASSERT_TRUE(db->FlushWalToFile().ok());
  auto incr = tailer.Poll(kNoCap);
  ASSERT_TRUE(incr.ok()) << incr.status().ToString();
  ASSERT_FALSE(incr->empty());
  EXPECT_EQ(incr->back().epoch, db->commit_epoch());
}

TEST(WalTailerTest, BatchCapSplitsButNeverDropsRecords) {
  TempDir tmp("tailer_cap");
  ASSERT_TRUE(tmp.ok());
  const std::string wal = tmp.path("cap.wal");
  auto db = MakePrimary(wal, /*batches=*/6);

  WalTailer capped(wal);
  size_t polls = 0;
  uint64_t last_epoch = 0;
  while (true) {
    auto batch = capped.Poll(/*max_batch_bytes=*/1);  // one record per poll
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    if (batch->empty()) break;
    ++polls;
    for (const auto& rec : *batch) {
      EXPECT_GT(rec.epoch, last_epoch);
      last_epoch = rec.epoch;
    }
  }
  EXPECT_EQ(last_epoch, db->commit_epoch());
  EXPECT_GT(polls, 1u) << "the cap never split the stream";
}

TEST(WalTailerTest, IncompleteTailIsNotYetCorruptionBehindTailIs) {
  TempDir tmp("tailer_tail");
  ASSERT_TRUE(tmp.ok());
  const std::string full = tmp.path("full.wal");
  auto db = MakePrimary(full, /*batches=*/2);
  uint64_t final_epoch = db->commit_epoch();
  db.reset();

  auto read = ReadWal(full);
  ASSERT_TRUE(read.ok());
  ASSERT_GE(read->records.size(), 2u);

  std::ifstream in(full, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  // Torn tail: everything but the last 3 bytes of the final frame. The
  // tailer hands out the complete prefix and treats the stub as
  // "mid-append" — then delivers the record once the bytes arrive.
  const std::string torn = tmp.path("torn.wal");
  {
    std::ofstream out(torn, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 3));
  }
  WalTailer tailer(torn);
  auto batch = tailer.Poll(kNoCap);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_FALSE(batch->empty());
  EXPECT_LT(batch->back().epoch, final_epoch);
  EXPECT_GT(tailer.known_file_bytes(), tailer.offset());

  {
    std::ofstream out(torn, std::ios::binary | std::ios::app);
    out.write(bytes.data() + bytes.size() - 3, 3);
  }
  auto rest = tailer.Poll(kNoCap);
  ASSERT_TRUE(rest.ok()) << rest.status().ToString();
  ASSERT_EQ(rest->size(), 1u);
  EXPECT_EQ(rest->front().epoch, final_epoch);

  // A complete-length frame with a flipped byte is *behind* the tail an
  // append-only writer extends: permanent corruption, not patience.
  const std::string corrupt = tmp.path("corrupt.wal");
  {
    std::string damaged = bytes;
    damaged[damaged.size() / 2] ^= 0x40;
    std::ofstream out(corrupt, std::ios::binary);
    out.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
  }
  WalTailer bad(corrupt);
  std::vector<WalTailer::TailedRecord> all;
  Status st = Status::OK();
  while (st.ok()) {
    auto polled = bad.Poll(kNoCap);
    if (!polled.ok()) {
      st = polled.status();
      break;
    }
    if (polled->empty()) break;
    all.insert(all.end(), polled->begin(), polled->end());
  }
  EXPECT_FALSE(st.ok()) << "mid-file corruption must be fatal";
}

// --- Follower apply path --------------------------------------------------

/// Ships every WAL record from `wal` into `follower` through the public
/// apply path, exactly like the wire does.
void ShipAll(const std::string& wal, Database* follower) {
  WalTailer tailer(wal);
  while (true) {
    auto batch = tailer.Poll(kNoCap);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    if (batch->empty()) break;
    for (const auto& rec : *batch) {
      auto record = DecodeWalPayload(rec.payload);
      ASSERT_TRUE(record.ok()) << record.status().ToString();
      Status st = follower->ApplyReplicatedEpoch(*record);
      ASSERT_TRUE(st.ok()) << "epoch " << record->epoch << ": "
                           << st.ToString();
    }
  }
}

TEST(ReplicatedApplyTest, StreamedApplyConvergesByteEqualToRecovery) {
  TempDir tmp("repl_apply");
  ASSERT_TRUE(tmp.ok());
  const std::string wal = tmp.path("primary.wal");
  auto primary = MakePrimary(wal, /*batches=*/8);

  // The follower applies the shipped stream; the oracle recovers from the
  // very same log. All three must agree byte-for-byte.
  auto follower = MakeEmptyChain();
  ShipAll(wal, follower.get());

  auto oracle = MakeEmptyChain();
  ASSERT_TRUE(oracle->RecoverFrom(wal).ok());

  EXPECT_EQ(follower->commit_epoch(), primary->commit_epoch());
  std::string primary_state = StateOf(primary.get());
  EXPECT_EQ(StateOf(follower.get()), primary_state);
  EXPECT_EQ(StateOf(oracle.get()), primary_state);
}

TEST(ReplicatedApplyTest, StaleEpochsAreIdempotentSkips) {
  TempDir tmp("repl_stale");
  ASSERT_TRUE(tmp.ok());
  const std::string wal = tmp.path("primary.wal");
  auto primary = MakePrimary(wal, /*batches=*/2);

  auto follower = MakeEmptyChain();
  ShipAll(wal, follower.get());
  const uint64_t epoch = follower->commit_epoch();
  const std::string state = StateOf(follower.get());

  // A reconnect that replays the whole log (lost ack, resume from 0):
  // every record is at or below the commit epoch — applied zero times.
  ShipAll(wal, follower.get());
  EXPECT_EQ(follower->commit_epoch(), epoch);
  EXPECT_EQ(StateOf(follower.get()), state);
}

TEST(ReplicatedApplyTest, SnapshotBootstrapThenTailMatchesPrimary) {
  TempDir tmp("repl_boot");
  ASSERT_TRUE(tmp.ok());
  const std::string wal = tmp.path("primary.wal");
  auto primary = MakePrimary(wal, /*batches=*/3);

  // Bootstrap at the current epoch, exactly what kReplSnapshot carries.
  uint64_t boot_epoch = 0;
  auto follower = MakeEmptyChain();
  auto loader = LoadStateOf(primary.get(), *follower, &boot_epoch);
  ASSERT_TRUE(
      follower->LoadReplicatedSnapshot(boot_epoch, std::move(loader)).ok());
  EXPECT_EQ(follower->commit_epoch(), boot_epoch);
  EXPECT_EQ(StateOf(follower.get()), StateOf(primary.get()));

  // The live tail continues past the bootstrap; stale records (<= the
  // bootstrap epoch) skip, later ones apply.
  ASSERT_TRUE(fixtures::ApplyChainBatch(primary.get(), kDepth, kRows, 7, 3)
                  .ok());
  ASSERT_TRUE(fixtures::ApplyChainBatch(primary.get(), kDepth, kRows, 7, 4)
                  .ok());
  ASSERT_TRUE(primary->FlushWalToFile().ok());
  ShipAll(wal, follower.get());
  EXPECT_EQ(follower->commit_epoch(), primary->commit_epoch());
  EXPECT_EQ(StateOf(follower.get()), StateOf(primary.get()));

  // A second bootstrap into a non-fresh database must refuse: the wire
  // twin of RecoverFrom's fresh-database precondition.
  uint64_t again_epoch = 0;
  auto again = LoadStateOf(primary.get(), *follower, &again_epoch);
  EXPECT_FALSE(
      follower->LoadReplicatedSnapshot(again_epoch, std::move(again)).ok());
}

TEST(ReplicatedApplyTest, SnapshotBootstrapKeepsPagedTombstonesAndRowIds) {
  // The wire bootstrap must reproduce page-straddling and whole-page
  // tombstones slot-exactly, so the tail shipped after it addresses the
  // same RowIds on the follower as on the primary.
  TempDir tmp("repl_paged");
  ASSERT_TRUE(tmp.ok());
  const std::string wal = tmp.path("primary.wal");
  auto primary = MakeEmptyChain();
  DurabilityOptions opts;
  opts.wal_path = wal;
  ASSERT_TRUE(primary->EnableDurability(opts).ok());
  ASSERT_TRUE(test_support::SeedPagedTombstones(primary.get()).ok());

  // Tiny chunks: tombstone runs and pages straddle chunk boundaries.
  uint64_t boot_epoch = 0;
  auto follower = MakeEmptyChain();
  auto loader = LoadStateOf(primary.get(), *follower, &boot_epoch,
                            /*chunk_bytes=*/64);
  EXPECT_GT(loader->chunks_applied(), 4u);
  ASSERT_TRUE(
      follower->LoadReplicatedSnapshot(boot_epoch, std::move(loader)).ok());
  EXPECT_EQ(StateOf(follower.get()), StateOf(primary.get()));
  EXPECT_EQ(test_support::LiveRowsById(follower.get()),
            test_support::LiveRowsById(primary.get()));

  ASSERT_TRUE(test_support::AppendAfterTombstones(primary.get()).ok());
  ASSERT_TRUE(primary->FlushWalToFile().ok());
  ShipAll(wal, follower.get());
  EXPECT_EQ(follower->commit_epoch(), primary->commit_epoch());
  EXPECT_EQ(StateOf(follower.get()), StateOf(primary.get()));
  EXPECT_EQ(test_support::LiveRowsById(follower.get()),
            test_support::LiveRowsById(primary.get()));
}

TEST(ReplicatedApplyTest, FollowerRelogsLocallyAndResumesAfterRestart) {
  TempDir tmp("repl_relog");
  ASSERT_TRUE(tmp.ok());
  const std::string primary_wal = tmp.path("primary.wal");
  const std::string follower_wal = tmp.path("follower.wal");
  auto primary = MakePrimary(primary_wal, /*batches=*/5);

  // A durable follower re-logs every applied epoch into its own WAL.
  {
    auto follower = MakeEmptyChain();
    DurabilityOptions opts;
    opts.wal_path = follower_wal;
    opts.fsync_policy = FsyncPolicy::kAlways;
    ASSERT_TRUE(follower->EnableDurability(opts).ok());
    ShipAll(primary_wal, follower.get());
    ASSERT_TRUE(follower->SyncWal().ok());
  }

  // Restart: local recovery lands on the shipped epoch — no wire needed —
  // and a resumed stream has nothing new to apply.
  auto restarted = MakeEmptyChain();
  ASSERT_TRUE(restarted->RecoverFrom(follower_wal).ok());
  EXPECT_EQ(restarted->commit_epoch(), primary->commit_epoch());
  EXPECT_EQ(StateOf(restarted.get()), StateOf(primary.get()));
}

TEST(ReplicatedApplyTest, LocalWriterActivityOnAFollowerIsRefused) {
  TempDir tmp("repl_writer");
  ASSERT_TRUE(tmp.ok());
  const std::string wal = tmp.path("primary.wal");
  auto primary = MakePrimary(wal, /*batches=*/1);

  auto follower = MakeEmptyChain();
  WalTailer tailer(wal);
  auto batch = tailer.Poll(kNoCap);
  ASSERT_TRUE(batch.ok());
  ASSERT_GE(batch->size(), 2u) << "need the seed epoch plus one batch";
  auto seed = DecodeWalPayload(batch->front().payload);
  ASSERT_TRUE(seed.ok());
  auto next = DecodeWalPayload((*batch)[1].payload);
  ASSERT_TRUE(next.ok());
  // The seed lands first so the follower's epoch is past the fresh-database
  // epoch 1 that WriterGuard's publish-on-entry would otherwise mint —
  // the refusal below must come from the busy check, not a stale skip.
  ASSERT_TRUE(follower->ApplyReplicatedEpoch(*seed).ok());
  ASSERT_LT(follower->commit_epoch(), next->epoch);

  // An active writer transaction means the live tables are not a published
  // epoch: applying a replicated record under it could interleave two
  // writers' half-states. Internal error, nothing applied.
  const uint64_t epoch_under_guard = follower->commit_epoch();
  {
    Database::WriterGuard guard(follower.get());
    Status st = follower->ApplyReplicatedEpoch(*next);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
    EXPECT_EQ(follower->commit_epoch(), epoch_under_guard);
  }

  // With the guard gone the same record applies.
  EXPECT_TRUE(follower->ApplyReplicatedEpoch(*next).ok());
  EXPECT_EQ(follower->commit_epoch(), next->epoch);
}

}  // namespace
}  // namespace ufilter::relational
