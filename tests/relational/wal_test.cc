// WAL + checkpoint persistence: record codec round-trips, CRC rejection,
// torn-tail truncation at *every* byte offset, fsync-policy accounting, and
// the recovery equivalences (full replay == live state; checkpoint + WAL
// suffix == full replay). Runs under ASan/UBSan in CI.
#include "relational/wal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../support/paged_tombstones.h"
#include "../support/temp_dir.h"
#include "fixtures/synthetic.h"
#include "relational/database.h"

namespace ufilter::relational {
namespace {

using test_support::TempDir;

WalRecord SampleRecord(uint64_t epoch) {
  WalRecord record;
  record.epoch = epoch;
  RedoOp insert;
  insert.kind = RedoOp::Kind::kInsert;
  insert.table = "t0";
  insert.row_id = 3;
  insert.row = Row{Value::Int(7), Value::String("seven"), Value::Null(),
                   Value::Double(2.5)};
  RedoOp update;
  update.kind = RedoOp::Kind::kUpdate;
  update.table = "t1";
  update.row_id = 0;
  update.row = Row{Value::String("")};  // empty strings must survive
  RedoOp del;
  del.kind = RedoOp::Kind::kDelete;
  del.table = "t0";
  del.row_id = 12;
  record.ops = {insert, update, del};
  return record;
}

void ExpectRecordsEqual(const WalRecord& a, const WalRecord& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].kind, b.ops[i].kind) << "op " << i;
    EXPECT_EQ(a.ops[i].table, b.ops[i].table) << "op " << i;
    EXPECT_EQ(a.ops[i].row_id, b.ops[i].row_id) << "op " << i;
    ASSERT_EQ(a.ops[i].row.size(), b.ops[i].row.size()) << "op " << i;
    for (size_t c = 0; c < a.ops[i].row.size(); ++c) {
      EXPECT_TRUE(a.ops[i].row[c] == b.ops[i].row[c])
          << "op " << i << " col " << c;
    }
  }
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void Dump(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size()));
}

TEST(WalCodecTest, PayloadRoundTrip) {
  const WalRecord record = SampleRecord(42);
  const std::string payload = EncodeWalPayload(record);
  Result<WalRecord> back = DecodeWalPayload(payload);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectRecordsEqual(record, *back);
}

TEST(WalCodecTest, EmptyRecordRoundTrip) {
  WalRecord record;
  record.epoch = 1;
  Result<WalRecord> back = DecodeWalPayload(EncodeWalPayload(record));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->epoch, 1u);
  EXPECT_TRUE(back->ops.empty());
}

TEST(WalCodecTest, DecodeRejectsTrailingGarbage) {
  std::string payload = EncodeWalPayload(SampleRecord(7));
  payload.push_back('\0');
  EXPECT_FALSE(DecodeWalPayload(payload).ok());
}

TEST(WalCodecTest, DecodeRejectsTruncatedPayload) {
  const std::string payload = EncodeWalPayload(SampleRecord(7));
  for (size_t n = 0; n < payload.size(); ++n) {
    EXPECT_FALSE(DecodeWalPayload(payload.substr(0, n)).ok())
        << "prefix of " << n << " bytes decoded";
  }
}

TEST(WalCodecTest, Crc32KnownVector) {
  // The classic IEEE check value: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(WalWriterTest, AppendReadRoundTrip) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::string path = tmp.path("round.wal");
  {
    auto writer =
        WalWriter::Open(path, FsyncPolicy::kAlways, 1, nullptr);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (uint64_t e = 1; e <= 3; ++e) {
      ASSERT_TRUE((*writer)->Append(SampleRecord(e)).ok());
    }
    EXPECT_EQ((*writer)->records_appended(), 3u);
    EXPECT_EQ((*writer)->fsyncs(), 3u);  // kAlways: one per record
  }
  Result<WalReadResult> read = ReadWal(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->records.size(), 3u);
  EXPECT_FALSE(read->tail_truncated);
  EXPECT_EQ(read->valid_bytes, std::filesystem::file_size(path));
  for (uint64_t e = 1; e <= 3; ++e) {
    ExpectRecordsEqual(SampleRecord(e), read->records[e - 1]);
  }
}

TEST(WalWriterTest, ReopenAppendsAfterExistingRecords) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::string path = tmp.path("reopen.wal");
  {
    auto writer = WalWriter::Open(path, FsyncPolicy::kAlways, 1, nullptr);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(SampleRecord(1)).ok());
  }
  {
    auto writer = WalWriter::Open(path, FsyncPolicy::kAlways, 1, nullptr);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(SampleRecord(2)).ok());
  }
  auto read = ReadWal(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 2u);
  EXPECT_EQ(read->records[1].epoch, 2u);
}

TEST(WalWriterTest, OpenRejectsForeignFile) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::string path = tmp.path("foreign.wal");
  Dump(path, "definitely not a ufilter WAL file");
  EXPECT_FALSE(WalWriter::Open(path, FsyncPolicy::kNever, 1, nullptr).ok());
  EXPECT_FALSE(ReadWal(path).ok());
}

TEST(WalWriterTest, MissingFileIsNotFound) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  Result<WalReadResult> read = ReadWal(tmp.path("absent.wal"));
  EXPECT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsNotFound());
}

TEST(WalWriterTest, FsyncPolicyAccounting) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  {  // kGroup(4): one fsync per four appends.
    auto writer =
        WalWriter::Open(tmp.path("group.wal"), FsyncPolicy::kGroup, 4,
                        nullptr);
    ASSERT_TRUE(writer.ok());
    for (uint64_t e = 1; e <= 8; ++e) {
      ASSERT_TRUE((*writer)->Append(SampleRecord(e)).ok());
    }
    EXPECT_EQ((*writer)->fsyncs(), 2u);
    ASSERT_TRUE((*writer)->Append(SampleRecord(9)).ok());
    EXPECT_EQ((*writer)->fsyncs(), 2u);  // 1 unsynced, below threshold
    ASSERT_TRUE((*writer)->Sync().ok());  // explicit barrier
    EXPECT_EQ((*writer)->fsyncs(), 3u);
    ASSERT_TRUE((*writer)->Sync().ok());  // nothing unsynced: no-op
    EXPECT_EQ((*writer)->fsyncs(), 3u);
  }
  {  // kNever: zero until an explicit Sync.
    auto writer =
        WalWriter::Open(tmp.path("never.wal"), FsyncPolicy::kNever, 1,
                        nullptr);
    ASSERT_TRUE(writer.ok());
    for (uint64_t e = 1; e <= 5; ++e) {
      ASSERT_TRUE((*writer)->Append(SampleRecord(e)).ok());
    }
    EXPECT_EQ((*writer)->fsyncs(), 0u);
    ASSERT_TRUE((*writer)->Sync().ok());
    EXPECT_EQ((*writer)->fsyncs(), 1u);
  }
}

TEST(WalReadTest, CrcCorruptionDropsTailRecord) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::string path = tmp.path("crc.wal");
  uint64_t two_records_bytes = 0;
  {
    auto writer = WalWriter::Open(path, FsyncPolicy::kNever, 1, nullptr);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(SampleRecord(1)).ok());
    ASSERT_TRUE((*writer)->Append(SampleRecord(2)).ok());
    two_records_bytes = (*writer)->bytes_written();
    ASSERT_TRUE((*writer)->Append(SampleRecord(3)).ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  std::string contents = Slurp(path);
  // Flip one payload byte inside the *last* frame (skip its 8-byte header).
  contents[two_records_bytes + 8 + 2] ^= 0x40;
  Dump(path, contents);
  auto read = ReadWal(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 2u);
  EXPECT_TRUE(read->tail_truncated);
  EXPECT_EQ(read->valid_bytes, two_records_bytes);
}

TEST(WalReadTest, TornTailTruncationAtEveryOffset) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::string path = tmp.path("full.wal");
  std::vector<uint64_t> prefix_bytes;  // valid prefix after k records
  {
    auto writer = WalWriter::Open(path, FsyncPolicy::kNever, 1, nullptr);
    ASSERT_TRUE(writer.ok());
    prefix_bytes.push_back((*writer)->bytes_written());  // magic only
    for (uint64_t e = 1; e <= 3; ++e) {
      ASSERT_TRUE((*writer)->Append(SampleRecord(e)).ok());
      prefix_bytes.push_back((*writer)->bytes_written());
    }
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  const std::string contents = Slurp(path);
  ASSERT_EQ(contents.size(), prefix_bytes.back());
  const std::string torn = tmp.path("torn.wal");
  for (size_t cut = 0; cut <= contents.size(); ++cut) {
    Dump(torn, contents.substr(0, cut));
    auto read = ReadWal(torn);
    ASSERT_TRUE(read.ok()) << "cut=" << cut << ": "
                           << read.status().ToString();
    // Complete records strictly below the cut survive; everything after
    // the last complete frame is reported torn.
    size_t expect_records = 0;
    while (expect_records + 1 < prefix_bytes.size() &&
           prefix_bytes[expect_records + 1] <= cut) {
      ++expect_records;
    }
    EXPECT_EQ(read->records.size(), expect_records) << "cut=" << cut;
    const uint64_t expect_valid =
        cut < prefix_bytes.front() ? 0 : prefix_bytes[expect_records];
    EXPECT_EQ(read->valid_bytes, expect_valid) << "cut=" << cut;
    EXPECT_EQ(read->tail_truncated, expect_valid < cut) << "cut=" << cut;
    for (size_t e = 0; e < expect_records; ++e) {
      EXPECT_EQ(read->records[e].epoch, e + 1) << "cut=" << cut;
    }
  }
}

// ----------------------------------------------------------------------
// Database-level durability: replay equivalence oracles.
// ----------------------------------------------------------------------

constexpr int kDepth = 2;
constexpr int kRows = 6;

std::unique_ptr<Database> MakeEmptyChain() {
  auto db = Database::Create(fixtures::MakeChainSchema(kDepth));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(*db);
}

// Creates a durable chain db at `wal`, populates it and runs `batches`
// deterministic writer batches. Returns the live state fingerprint.
std::string BuildDurableHistory(const std::string& wal, uint32_t seed,
                                int batches, Database** out_db,
                                std::unique_ptr<Database>* holder) {
  std::unique_ptr<Database> db = MakeEmptyChain();
  DurabilityOptions opts;
  opts.wal_path = wal;
  opts.fsync_policy = FsyncPolicy::kGroup;
  opts.group_commit_size = 4;
  EXPECT_TRUE(db->EnableDurability(opts).ok());
  EXPECT_TRUE(fixtures::PopulateChain(db.get(), kDepth, kRows).ok());
  for (int i = 0; i < batches; ++i) {
    EXPECT_TRUE(
        fixtures::ApplyChainBatch(db.get(), kDepth, kRows, seed, i).ok());
  }
  EXPECT_TRUE(db->SyncWal().ok());
  EXPECT_TRUE(db->wal_status().ok());
  Result<std::string> state = db->SerializePublishedState();
  EXPECT_TRUE(state.ok()) << state.status().ToString();
  *out_db = db.get();
  *holder = std::move(db);
  return *state;
}

TEST(WalRecoveryTest, FullReplayReproducesLiveState) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  Database* live = nullptr;
  std::unique_ptr<Database> holder;
  const std::string expect =
      BuildDurableHistory(tmp.path("db.wal"), 1234, 10, &live, &holder);
  const uint64_t live_epoch = live->commit_epoch();

  std::unique_ptr<Database> recovered = MakeEmptyChain();
  ASSERT_TRUE(recovered->RecoverFrom(tmp.path("db.wal")).ok());
  EXPECT_EQ(recovered->commit_epoch(), live_epoch);
  Result<std::string> state = recovered->SerializePublishedState();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, expect) << "recovered state diverged from live state";
}

TEST(WalRecoveryTest, CheckpointPlusSuffixEqualsFullReplay) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::string wal = tmp.path("db.wal");
  const std::string ckpt = tmp.path("db.ckpt");

  std::unique_ptr<Database> db = MakeEmptyChain();
  DurabilityOptions opts;
  opts.wal_path = wal;
  ASSERT_TRUE(db->EnableDurability(opts).ok());
  ASSERT_TRUE(fixtures::PopulateChain(db.get(), kDepth, kRows).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        fixtures::ApplyChainBatch(db.get(), kDepth, kRows, 99, i).ok());
  }
  // Checkpoint mid-history, then keep writing.
  Result<uint64_t> ckpt_epoch = db->WriteCheckpoint(ckpt);
  ASSERT_TRUE(ckpt_epoch.ok()) << ckpt_epoch.status().ToString();
  EXPECT_EQ(*ckpt_epoch, db->commit_epoch());
  for (int i = 5; i < 9; ++i) {
    ASSERT_TRUE(
        fixtures::ApplyChainBatch(db.get(), kDepth, kRows, 99, i).ok());
  }
  ASSERT_TRUE(db->SyncWal().ok());
  Result<std::string> live_state = db->SerializePublishedState();
  ASSERT_TRUE(live_state.ok());

  // (a) WAL-only replay.
  std::unique_ptr<Database> wal_only = MakeEmptyChain();
  DurabilityOptions wal_opts;
  wal_opts.wal_path = wal;
  ASSERT_TRUE(wal_only->RecoverFrom(wal_opts).ok());
  // (b) checkpoint + WAL suffix.
  std::unique_ptr<Database> with_ckpt = MakeEmptyChain();
  DurabilityOptions ckpt_opts;
  ckpt_opts.wal_path = wal;
  ckpt_opts.checkpoint_path = ckpt;
  ASSERT_TRUE(with_ckpt->RecoverFrom(ckpt_opts).ok());

  Result<std::string> a = wal_only->SerializePublishedState();
  Result<std::string> b = with_ckpt->SerializePublishedState();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *live_state);
  EXPECT_EQ(*b, *live_state)
      << "checkpoint + suffix diverged from full replay";
  EXPECT_EQ(wal_only->commit_epoch(), db->commit_epoch());
  EXPECT_EQ(with_ckpt->commit_epoch(), db->commit_epoch());
}

TEST(WalRecoveryTest, CheckpointAloneRestoresState) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  Database* live = nullptr;
  std::unique_ptr<Database> holder;
  const std::string expect =
      BuildDurableHistory(tmp.path("db.wal"), 7, 6, &live, &holder);
  Result<uint64_t> epoch = live->WriteCheckpoint(tmp.path("db.ckpt"));
  ASSERT_TRUE(epoch.ok());

  // No WAL at all: the checkpoint carries the full state.
  std::unique_ptr<Database> recovered = MakeEmptyChain();
  DurabilityOptions opts;
  opts.wal_path = tmp.path("missing.wal");
  opts.checkpoint_path = tmp.path("db.ckpt");
  ASSERT_TRUE(recovered->RecoverFrom(opts).ok());
  EXPECT_EQ(recovered->commit_epoch(), *epoch);
  Result<std::string> state = recovered->SerializePublishedState();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, expect);
}

TEST(WalRecoveryTest, CheckpointRoundTripKeepsPagedTombstonesAndRowIds) {
  // Tombstones straddling a page boundary, a tombstoned middle page and a
  // tombstoned last page must come back slot-exact from a checkpoint, and
  // WAL records written after it must land on the primary's RowIds.
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::string wal = tmp.path("db.wal");
  const std::string ckpt = tmp.path("db.ckpt");
  std::unique_ptr<Database> db = MakeEmptyChain();
  DurabilityOptions opts;
  opts.wal_path = wal;
  ASSERT_TRUE(db->EnableDurability(opts).ok());
  ASSERT_TRUE(test_support::SeedPagedTombstones(db.get()).ok());
  ASSERT_TRUE(db->WriteCheckpoint(ckpt).ok());
  auto state_of = [](Database* d) {
    Result<std::string> state = d->SerializePublishedState();
    EXPECT_TRUE(state.ok()) << state.status().ToString();
    return state.ok() ? *state : std::string();
  };

  std::unique_ptr<Database> from_ckpt = MakeEmptyChain();
  DurabilityOptions ckpt_only;
  ckpt_only.wal_path = tmp.path("missing.wal");
  ckpt_only.checkpoint_path = ckpt;
  ASSERT_TRUE(from_ckpt->RecoverFrom(ckpt_only).ok());
  EXPECT_EQ(state_of(from_ckpt.get()), state_of(db.get()));
  EXPECT_EQ(test_support::LiveRowsById(from_ckpt.get()),
            test_support::LiveRowsById(db.get()));

  ASSERT_TRUE(test_support::AppendAfterTombstones(db.get()).ok());
  ASSERT_TRUE(db->SyncWal().ok());
  std::unique_ptr<Database> with_suffix = MakeEmptyChain();
  DurabilityOptions both;
  both.wal_path = wal;
  both.checkpoint_path = ckpt;
  ASSERT_TRUE(with_suffix->RecoverFrom(both).ok());
  EXPECT_EQ(with_suffix->commit_epoch(), db->commit_epoch());
  EXPECT_EQ(state_of(with_suffix.get()), state_of(db.get()));
  const std::vector<std::string> rows = test_support::LiveRowsById(db.get());
  EXPECT_EQ(test_support::LiveRowsById(with_suffix.get()), rows);
  // The late t1 insert sits past t1's tombstoned last page.
  const std::string late_t1 =
      "t1:" + std::to_string(2 * test_support::kPage) + ":";
  EXPECT_NE(std::find_if(rows.begin(), rows.end(),
                         [&](const std::string& r) {
                           return r.rfind(late_t1, 0) == 0;
                         }),
            rows.end());
}

TEST(WalRecoveryTest, TruncatesTornTailThenResumesAppending) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::string wal = tmp.path("db.wal");
  Database* live = nullptr;
  std::unique_ptr<Database> holder;
  BuildDurableHistory(wal, 5, 4, &live, &holder);
  holder.reset();  // release the fd before mangling the file

  // Tear the tail: chop the last 3 bytes of the final record.
  std::string contents = Slurp(wal);
  const std::string full = contents;
  contents.resize(contents.size() - 3);
  Dump(wal, contents);
  auto before = ReadWal(wal);
  ASSERT_TRUE(before.ok());
  const size_t surviving = before->records.size();
  EXPECT_TRUE(before->tail_truncated);

  std::unique_ptr<Database> db = MakeEmptyChain();
  ASSERT_TRUE(db->RecoverFrom(wal).ok());
  // Recovery physically truncated the torn bytes...
  EXPECT_EQ(std::filesystem::file_size(wal), before->valid_bytes);
  // ...so re-enabling durability appends cleanly after the valid prefix.
  DurabilityOptions opts;
  opts.wal_path = wal;
  opts.fsync_policy = FsyncPolicy::kAlways;
  ASSERT_TRUE(db->EnableDurability(opts).ok());
  ASSERT_TRUE(fixtures::ApplyChainBatch(db.get(), kDepth, kRows, 5, 99).ok());
  ASSERT_TRUE(db->SyncWal().ok());
  auto after = ReadWal(wal);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->records.size(), surviving + 1);
  EXPECT_FALSE(after->tail_truncated);
}

TEST(WalRecoveryTest, RequiresFreshDatabase) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  Database* live = nullptr;
  std::unique_ptr<Database> holder;
  BuildDurableHistory(tmp.path("db.wal"), 3, 2, &live, &holder);

  std::unique_ptr<Database> used = MakeEmptyChain();
  ASSERT_TRUE(fixtures::PopulateChain(used.get(), kDepth, kRows).ok());
  { Database::WriterGuard guard(used.get()); }  // publish something
  EXPECT_FALSE(used->RecoverFrom(tmp.path("db.wal")).ok())
      << "recovery into a non-fresh database must be refused";
}

TEST(WalDatabaseTest, RolledBackOpsNeverReachTheLog) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::string wal = tmp.path("db.wal");
  std::unique_ptr<Database> db = MakeEmptyChain();
  DurabilityOptions opts;
  opts.wal_path = wal;
  opts.fsync_policy = FsyncPolicy::kAlways;
  ASSERT_TRUE(db->EnableDurability(opts).ok());
  ASSERT_TRUE(fixtures::PopulateChain(db.get(), kDepth, kRows).ok());
  { Database::WriterGuard guard(db.get()); }  // publish the seed epoch
  ASSERT_TRUE(db->SyncWal().ok());
  auto seeded = ReadWal(wal);
  ASSERT_TRUE(seeded.ok());
  const size_t seed_records = seeded->records.size();
  {
    Database::WriterGuard guard(db.get());
    const size_t mark = db->Begin();
    ASSERT_TRUE(db->Insert("t0", Row{Value::Int(777),
                                     Value::String("doomed")})
                    .ok());
    db->Rollback(mark);
  }
  ASSERT_TRUE(db->SyncWal().ok());
  auto read = ReadWal(wal);
  ASSERT_TRUE(read.ok());
  for (size_t i = seed_records; i < read->records.size(); ++i) {
    EXPECT_TRUE(read->records[i].ops.empty())
        << "epoch " << read->records[i].epoch
        << " logged rolled-back ops";
  }
  // And the replayed state matches: no phantom row 777.
  std::unique_ptr<Database> recovered = MakeEmptyChain();
  ASSERT_TRUE(recovered->RecoverFrom(wal).ok());
  Result<std::string> a = db->SerializePublishedState();
  Result<std::string> b = recovered->SerializePublishedState();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(WalDatabaseTest, EngineCountersTrackAppendsAndSyncs) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  std::unique_ptr<Database> db = MakeEmptyChain();
  DurabilityOptions opts;
  opts.wal_path = tmp.path("db.wal");
  opts.fsync_policy = FsyncPolicy::kAlways;
  ASSERT_TRUE(db->EnableDurability(opts).ok());
  ASSERT_TRUE(fixtures::PopulateChain(db.get(), kDepth, kRows).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        fixtures::ApplyChainBatch(db.get(), kDepth, kRows, 11, i).ok());
  }
  ASSERT_TRUE(db->SyncWal().ok());
  EngineStats stats = db->SnapshotWorkCounters();
  EXPECT_GT(stats.wal_records, 0u);
  EXPECT_GT(stats.wal_bytes, 0u);
  EXPECT_GE(stats.wal_fsyncs, stats.wal_records);  // kAlways
  // Every published epoch since enabling must have exactly one record.
  auto read = ReadWal(opts.wal_path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), stats.wal_records);
  EXPECT_EQ(read->records.back().epoch, db->commit_epoch());
}

TEST(WalDatabaseTest, EnableDurabilityRejectsBadConfig) {
  std::unique_ptr<Database> db = MakeEmptyChain();
  DurabilityOptions empty;
  EXPECT_FALSE(db->EnableDurability(empty).ok());

  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  DurabilityOptions opts;
  opts.wal_path = tmp.path("db.wal");
  ASSERT_TRUE(db->EnableDurability(opts).ok());
  EXPECT_FALSE(db->EnableDurability(opts).ok()) << "double enable";
  EXPECT_TRUE(db->durability_enabled());
}

TEST(WalCheckpointTest, CorruptCheckpointIsFatal) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  Database* live = nullptr;
  std::unique_ptr<Database> holder;
  BuildDurableHistory(tmp.path("db.wal"), 21, 3, &live, &holder);
  const std::string ckpt = tmp.path("db.ckpt");
  ASSERT_TRUE(live->WriteCheckpoint(ckpt).ok());

  std::string contents = Slurp(ckpt);
  contents[contents.size() / 2] ^= 0x01;
  Dump(ckpt, contents);
  std::unique_ptr<Database> reader = MakeEmptyChain();
  EXPECT_FALSE(ReadCheckpointFile(ckpt, reader->NewStateLoader().get()).ok());

  std::unique_ptr<Database> recovered = MakeEmptyChain();
  DurabilityOptions opts;
  opts.wal_path = tmp.path("db.wal");
  opts.checkpoint_path = ckpt;
  EXPECT_FALSE(recovered->RecoverFrom(opts).ok())
      << "a damaged checkpoint must fail recovery, not silently degrade";
}

TEST(WalCheckpointTest, CheckpointMissingItsLastChunkIsFatal) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  Database* live = nullptr;
  std::unique_ptr<Database> holder;
  BuildDurableHistory(tmp.path("db.wal"), 23, 3, &live, &holder);
  const std::string ckpt = tmp.path("db.ckpt");
  ASSERT_TRUE(live->WriteCheckpoint(ckpt).ok());
  std::unique_ptr<Database> reader = MakeEmptyChain();
  ASSERT_TRUE(ReadCheckpointFile(ckpt, reader->NewStateLoader().get()).ok());

  // Cut the file at the start of its last chunk frame: every remaining
  // frame checks out, but the final chunk never arrives.
  std::string contents = Slurp(ckpt);
  const std::string state = *live->SerializePublishedState();
  size_t last = 0;
  for (size_t pos = 0; pos < state.size();) {
    last = pos;
    uint32_t len = 0;
    std::memcpy(&len, state.data() + pos, 4);  // little-endian host
    pos += 8 + len;
  }
  Dump(ckpt, contents.substr(0, contents.size() - (state.size() - last)));
  auto read = ReadCheckpointFile(ckpt, reader->NewStateLoader().get());
  EXPECT_FALSE(read.ok());
}

// --- State codec ----------------------------------------------------------

/// Encodes `db`'s published state into chunks of at most `budget` bytes.
std::vector<std::string> EncodeChunks(Database* db, size_t budget) {
  auto snapshot = db->OpenSnapshot();
  StateEncoder encoder(db->schema(), *snapshot);
  std::vector<std::string> chunks;
  while (!encoder.done()) {
    chunks.emplace_back();
    encoder.AppendChunk(&chunks.back(), budget);
  }
  return chunks;
}

TEST(WalStateCodecTest, ChunksStayInBudgetAndReloadSlotExactly) {
  std::unique_ptr<Database> db = MakeEmptyChain();
  ASSERT_TRUE(test_support::SeedPagedTombstones(db.get()).ok());
  for (size_t budget : {size_t{48}, size_t{200}, size_t{4096},
                        kStateChunkBytes}) {
    std::vector<std::string> chunks = EncodeChunks(db.get(), budget);
    ASSERT_FALSE(chunks.empty());
    std::unique_ptr<Database> copy = MakeEmptyChain();
    auto loader = copy->NewStateLoader();
    for (size_t i = 0; i < chunks.size(); ++i) {
      // Chunk 0 also carries the table directory; every chunk holds at
      // least one slot, so only a single row may overshoot the budget.
      if (i > 0 && budget >= 200) {
        EXPECT_LE(chunks[i].size(), budget);
      }
      EXPECT_FALSE(loader->complete()) << "complete before chunk " << i;
      Status st = loader->Apply(chunks[i].data(), chunks[i].size());
      ASSERT_TRUE(st.ok()) << "budget " << budget << " chunk " << i << ": "
                           << st.ToString();
    }
    EXPECT_TRUE(loader->complete());
    if (budget == 48) {
      EXPECT_GT(chunks.size(), 10u);
    }
    ASSERT_TRUE(copy->LoadReplicatedSnapshot(7, std::move(loader)).ok());
    EXPECT_EQ(copy->commit_epoch(), 7u);
    EXPECT_EQ(*copy->SerializePublishedState(), *db->SerializePublishedState())
        << "budget " << budget;
    EXPECT_EQ(test_support::LiveRowsById(copy.get()),
              test_support::LiveRowsById(db.get()));
  }
}

TEST(WalStateCodecTest, LoaderRefusesGapsRepeatsAndEarlyInstall) {
  std::unique_ptr<Database> db = MakeEmptyChain();
  ASSERT_TRUE(fixtures::PopulateChain(db.get(), kDepth, 40).ok());
  std::vector<std::string> chunks = EncodeChunks(db.get(), 256);
  ASSERT_GE(chunks.size(), 4u);
  std::unique_ptr<Database> copy = MakeEmptyChain();

  auto skipping = copy->NewStateLoader();
  ASSERT_TRUE(skipping->Apply(chunks[0].data(), chunks[0].size()).ok());
  EXPECT_FALSE(skipping->Apply(chunks[2].data(), chunks[2].size()).ok())
      << "a missing chunk must be refused";
  EXPECT_FALSE(skipping->Apply(chunks[1].data(), chunks[1].size()).ok())
      << "a failed loader stays failed";

  auto repeating = copy->NewStateLoader();
  ASSERT_TRUE(repeating->Apply(chunks[0].data(), chunks[0].size()).ok());
  EXPECT_FALSE(repeating->Apply(chunks[0].data(), chunks[0].size()).ok());

  // A partial load cannot be installed, and dropping it leaves the
  // database fresh for the next complete load.
  auto partial = copy->NewStateLoader();
  for (size_t i = 0; i + 1 < chunks.size(); ++i) {
    ASSERT_TRUE(partial->Apply(chunks[i].data(), chunks[i].size()).ok());
  }
  EXPECT_FALSE(copy->LoadReplicatedSnapshot(5, std::move(partial)).ok());
  EXPECT_EQ(copy->commit_epoch(), 0u);
  auto full = copy->NewStateLoader();
  for (const std::string& chunk : chunks) {
    ASSERT_TRUE(full->Apply(chunk.data(), chunk.size()).ok());
  }
  EXPECT_FALSE(full->Apply(chunks.back().data(), chunks.back().size()).ok())
      << "nothing may follow the final chunk";
  auto complete = copy->NewStateLoader();
  for (const std::string& chunk : chunks) {
    ASSERT_TRUE(complete->Apply(chunk.data(), chunk.size()).ok());
  }
  ASSERT_TRUE(copy->LoadReplicatedSnapshot(5, std::move(complete)).ok());
  EXPECT_EQ(*copy->SerializePublishedState(), *db->SerializePublishedState());

  // A state of another schema names tables this one lacks.
  auto other = Database::Create(fixtures::MakeChainSchema(4));
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(fixtures::PopulateChain(other->get(), 4, 4).ok());
  std::vector<std::string> foreign = EncodeChunks(other->get(), 1 << 16);
  std::unique_ptr<Database> target = MakeEmptyChain();
  auto mismatch = target->NewStateLoader();
  EXPECT_FALSE(mismatch->Apply(foreign[0].data(), foreign[0].size()).ok());
}

// --- WalTailer start epoch --------------------------------------------------

// A tailer started past epoch E steps over records 1..E by header alone:
// it never reads (so never checksums) their payloads. Corrupting the
// payload of a record at or below E proves it — a tailer that read from
// offset 0 and dropped old records afterwards hits the CRC mismatch.
TEST(WalTailerStartTest, StepsOverEarlierRecordsWithoutReadingThem) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::string path = tmp.path("skip.wal");
  constexpr uint64_t kRecords = 12;
  constexpr uint64_t kStart = 7;
  std::vector<uint64_t> frame_start;  // file offset of record i+1
  {
    auto writer = WalWriter::Open(path, FsyncPolicy::kNever, 1, nullptr);
    ASSERT_TRUE(writer.ok());
    for (uint64_t e = 1; e <= kRecords; ++e) {
      frame_start.push_back((*writer)->bytes_written());
      ASSERT_TRUE((*writer)->Append(SampleRecord(e)).ok());
    }
  }
  std::string contents = Slurp(path);
  // Damage the last payload byte of records 3 and kStart; their headers
  // and leading epochs stay intact.
  for (uint64_t e : {uint64_t{3}, kStart}) {
    contents[frame_start[e] - 1] ^= 0x5A;  // record e ends where e+1 starts
  }
  Dump(path, contents);

  WalTailer tailer(path, kStart);
  std::vector<uint64_t> epochs;
  for (int polls = 0; polls < 20; ++polls) {
    auto batch = tailer.Poll(/*max_batch_bytes=*/64);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    if (batch->empty()) break;
    for (const auto& rec : *batch) {
      epochs.push_back(rec.epoch);
      auto decoded = DecodeWalPayload(rec.payload);
      ASSERT_TRUE(decoded.ok());
      ExpectRecordsEqual(*decoded, SampleRecord(rec.epoch));
    }
  }
  std::vector<uint64_t> want;
  for (uint64_t e = kStart + 1; e <= kRecords; ++e) want.push_back(e);
  EXPECT_EQ(epochs, want);
  EXPECT_EQ(tailer.offset(), contents.size());
  EXPECT_EQ(tailer.known_file_bytes(), contents.size());

  // The control: from offset 0 the damage is real corruption.
  WalTailer from_zero(path);
  auto all = from_zero.Poll(64u << 20);
  EXPECT_FALSE(all.ok()) << "the corrupted payloads were never checked";
}

TEST(WalTailerStartTest, WaitsOutARecordStillBeingAppended) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::string path = tmp.path("grow.wal");
  {
    auto writer = WalWriter::Open(path, FsyncPolicy::kNever, 1, nullptr);
    ASSERT_TRUE(writer.ok());
    for (uint64_t e = 1; e <= 4; ++e) {
      ASSERT_TRUE((*writer)->Append(SampleRecord(e)).ok());
    }
  }
  const std::string contents = Slurp(path);
  // Every prefix: the tailer (past epoch 2) returns nothing it must not,
  // and never an error, until the records past its start are whole.
  std::vector<uint64_t> epochs;
  WalTailer tailer(path, 2);
  for (size_t cut = 0; cut <= contents.size(); ++cut) {
    Dump(path, contents.substr(0, cut));
    // The tailer only ever reads forward, so a growing file is exactly
    // what it sees while the writer appends.
    auto batch = tailer.Poll(64u << 20);
    ASSERT_TRUE(batch.ok()) << "cut " << cut << ": "
                            << batch.status().ToString();
    for (const auto& rec : *batch) epochs.push_back(rec.epoch);
  }
  EXPECT_EQ(epochs, (std::vector<uint64_t>{3, 4}));
}

TEST(WalTailerStartTest, OutOfOrderEpochsWhileSkippingAreAnError) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::string path = tmp.path("order.wal");
  {
    auto writer = WalWriter::Open(path, FsyncPolicy::kNever, 1, nullptr);
    ASSERT_TRUE(writer.ok());
    for (uint64_t e : {1, 3, 2, 9}) {
      ASSERT_TRUE((*writer)->Append(SampleRecord(e)).ok());
    }
  }
  WalTailer tailer(path, 5);
  auto batch = tailer.Poll(64u << 20);
  EXPECT_FALSE(batch.ok());
}

}  // namespace
}  // namespace ufilter::relational
