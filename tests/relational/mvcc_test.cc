// MVCC snapshot tables: snapshot stability under concurrent commits,
// epoch-based garbage collection of superseded table versions, the
// read-only pin that excludes lost updates / write skew from the snapshot
// path, the commit-epoch overflow guard, and the commit notification every
// publish path raises. Runs under TSAN in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fixtures/bookdb.h"
#include "relational/database.h"
#include "relational/query.h"
#include "relational/wal.h"

namespace ufilter::relational {
namespace {

std::unique_ptr<Database> MakeCounterDb() {
  DatabaseSchema schema;
  TableSchema t("counter");
  t.AddColumn("id", ValueType::kInt, true)
      .AddColumn("value", ValueType::kInt)
      .SetPrimaryKey({"id"});
  (void)schema.AddTable(std::move(t));
  auto db = Database::Create(std::move(schema));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE(
      (*db)->InsertValues("counter", {{"id", Value::Int(1)},
                                      {"value", Value::Int(0)}})
          .ok());
  (*db)->Checkpoint();
  return std::move(*db);
}

int64_t CounterValue(const Table* table) {
  std::vector<RowId> ids = table->Find(
      {{"id", CompareOp::kEq, Value::Int(1)}}, nullptr);
  EXPECT_EQ(ids.size(), 1u);
  return (*table->GetRow(ids[0]))[1].AsInt();
}

// Rows of `name` visible through `ctx` (snapshot-pinned or live).
size_t RowsSeen(Database* db, const ExecutionContext* ctx,
                const std::string& name) {
  auto table = static_cast<const Database*>(db)->GetTable(ctx, name);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return (*table)->live_row_count();
}

TEST(MvccTest, SnapshotSeesPublishedStateNotLaterCommits) {
  auto db = MakeCounterDb();
  auto snap = db->OpenSnapshot();
  const uint64_t pinned_epoch = snap->epoch();
  EXPECT_EQ(CounterValue(snap->FindTable("counter")), 0);

  // Commit a new value; the pinned snapshot must not move.
  {
    Database::WriterGuard guard(db.get());
    ASSERT_TRUE(db->UpdateWhere("counter", {{"value", Value::Int(7)}},
                                {{"id", CompareOp::kEq, Value::Int(1)}})
                    .ok());
  }
  EXPECT_GT(db->commit_epoch(), pinned_epoch);
  EXPECT_EQ(CounterValue(snap->FindTable("counter")), 0)
      << "pinned snapshot must be immune to later commits";

  // A snapshot opened after the commit sees the new value.
  auto later = db->OpenSnapshot();
  EXPECT_GT(later->epoch(), pinned_epoch);
  EXPECT_EQ(CounterValue(later->FindTable("counter")), 7);
}

TEST(MvccTest, SnapshotOpenedDuringWriterGuardSeesPreTransactionState) {
  auto db = MakeCounterDb();
  {
    Database::WriterGuard guard(db.get());
    ASSERT_TRUE(db->UpdateWhere("counter", {{"value", Value::Int(42)}},
                                {{"id", CompareOp::kEq, Value::Int(1)}})
                    .ok());
    // Mid-transaction: the mutation must not leak into a fresh snapshot.
    auto snap = db->OpenSnapshot();
    EXPECT_EQ(CounterValue(snap->FindTable("counter")), 0);
  }
  // The guard's release published the transaction as one commit.
  auto snap = db->OpenSnapshot();
  EXPECT_EQ(CounterValue(snap->FindTable("counter")), 42);
}

TEST(MvccTest, SnapshotStabilityUnderConcurrentCommits) {
  auto db = fixtures::MakeBookDatabase();
  ASSERT_TRUE(db.ok());
  auto ctx = (*db)->CreateContext();
  auto snap = (*db)->OpenSnapshot();
  ctx->PinReadSnapshot(snap);
  const size_t baseline = RowsSeen(db->get(), ctx.get(), "publisher");

  // One writer thread committing inserts; one reader thread re-reading the
  // pinned snapshot the whole time. The reader must never observe a change
  // (and TSAN must see no race between the writer's copy-on-write commits
  // and the reader's lock-free probes).
  constexpr int kCommits = 64;
  std::atomic<bool> done{false};
  std::atomic<int> divergences{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (RowsSeen(db->get(), ctx.get(), "publisher") != baseline) {
        divergences.fetch_add(1);
      }
    }
  });
  std::atomic<int> write_failures{0};
  std::thread writer([&] {
    for (int i = 0; i < kCommits; ++i) {
      Database::WriterGuard guard(db->get());
      auto inserted = (*db)->InsertValues(
          "publisher",
          {{"pubid", Value::String("P" + std::to_string(i))},
           {"pubname", Value::String("pub" + std::to_string(i))}});
      if (!inserted.ok()) ++write_failures;
    }
    done.store(true, std::memory_order_release);
  });
  writer.join();
  reader.join();
  EXPECT_EQ(write_failures.load(), 0);
  EXPECT_EQ(divergences.load(), 0);
  EXPECT_EQ(RowsSeen(db->get(), ctx.get(), "publisher"), baseline);

  // Live state has all commits; a fresh snapshot sees them too.
  ctx->ClearReadSnapshot();
  snap.reset();
  EXPECT_EQ(RowsSeen(db->get(), ctx.get(), "publisher"),
            baseline + kCommits);
}

TEST(MvccTest, SupersededVersionsAreRetiredOnlyAfterLastPinDrops) {
  auto db = MakeCounterDb();
  EngineStats before = db->SnapshotWorkCounters();

  auto snap = db->OpenSnapshot();
  {
    Database::WriterGuard guard(db.get());
    ASSERT_TRUE(db->UpdateWhere("counter", {{"value", Value::Int(1)}},
                                {{"id", CompareOp::kEq, Value::Int(1)}})
                    .ok());
  }
  // The write cloned the pinned table version; while the pin is alive the
  // superseded version must be retained, not collected.
  EXPECT_EQ(db->retained_version_count(), 1u);
  EXPECT_EQ(db->SnapshotWorkCounters().DiffSince(before).versions_retired,
            0u);
  EXPECT_EQ(db->oldest_pinned_epoch(), snap->epoch());

  // Dropping the last pin garbage-collects the superseded version.
  snap.reset();
  EXPECT_EQ(db->retained_version_count(), 0u);
  EXPECT_EQ(db->SnapshotWorkCounters().DiffSince(before).versions_retired,
            1u);
  EXPECT_EQ(db->oldest_pinned_epoch(), db->commit_epoch());
}

TEST(MvccTest, OverlappingPinsRetainEveryObservableVersion) {
  auto db = MakeCounterDb();
  auto snap_a = db->OpenSnapshot();
  {
    Database::WriterGuard guard(db.get());
    ASSERT_TRUE(db->UpdateWhere("counter", {{"value", Value::Int(1)}},
                                {{"id", CompareOp::kEq, Value::Int(1)}})
                    .ok());
  }
  auto snap_b = db->OpenSnapshot();
  {
    Database::WriterGuard guard(db.get());
    ASSERT_TRUE(db->UpdateWhere("counter", {{"value", Value::Int(2)}},
                                {{"id", CompareOp::kEq, Value::Int(1)}})
                    .ok());
  }
  // Three observable versions: value 0 (snap_a), 1 (snap_b), 2 (live).
  EXPECT_EQ(CounterValue(snap_a->FindTable("counter")), 0);
  EXPECT_EQ(CounterValue(snap_b->FindTable("counter")), 1);
  EXPECT_EQ(db->retained_version_count(), 2u);

  // Dropping the *older* pin first releases only its version.
  snap_a.reset();
  EXPECT_EQ(db->retained_version_count(), 1u);
  EXPECT_EQ(CounterValue(snap_b->FindTable("counter")), 1);
  snap_b.reset();
  EXPECT_EQ(db->retained_version_count(), 0u);
}

TEST(MvccTest, LongLivedPinRetainsOnlyItsOwnEpochsVersions) {
  // GC is reference-driven, not horizon-driven: a long-lived pin at epoch E
  // keeps exactly epoch E's tables alive. Versions superseded *after* E are
  // unobservable by any snapshot and must be reclaimed as commits continue
  // — not accumulate until the old pin closes.
  auto db = MakeCounterDb();
  auto snap = db->OpenSnapshot();
  constexpr int kCommits = 50;
  for (int i = 1; i <= kCommits; ++i) {
    Database::WriterGuard guard(db.get());
    ASSERT_TRUE(db->UpdateWhere("counter", {{"value", Value::Int(i)}},
                                {{"id", CompareOp::kEq, Value::Int(1)}})
                    .ok());
  }
  EXPECT_EQ(CounterValue(snap->FindTable("counter")), 0);
  // Only the pinned epoch's table version is retained; the other 49
  // intermediate versions were reclaimed along the way.
  EXPECT_LE(db->retained_version_count(), 1u);
  EXPECT_GE(db->SnapshotWorkCounters().versions_retired,
            static_cast<uint64_t>(kCommits) - 2);
  snap.reset();
  EXPECT_EQ(db->retained_version_count(), 0u);
}

TEST(MvccTest, ZeroEffectAndRejectedMutationsNeverCloneOrPublish) {
  // A mutation that matches nothing (or fails its constraint checks) must
  // not copy-on-write the table or dirty the live state: otherwise every
  // no-op writer request publishes a byte-identical epoch.
  auto db = MakeCounterDb();
  (void)db->OpenSnapshot();  // publish, so a clone *would* be needed
  const uint64_t epoch_before = db->commit_epoch();

  {
    Database::WriterGuard guard(db.get());
    auto del = db->DeleteWhere("counter",
                               {{"id", CompareOp::kEq, Value::Int(777)}});
    ASSERT_TRUE(del.ok());
    EXPECT_EQ(del->deleted_rows, 0);
    auto upd = db->UpdateWhere("counter", {{"value", Value::Int(1)}},
                               {{"id", CompareOp::kEq, Value::Int(777)}});
    ASSERT_TRUE(upd.ok());
    EXPECT_EQ(*upd, 0);
    auto dup = db->InsertValues("counter", {{"id", Value::Int(1)},
                                            {"value", Value::Int(0)}});
    EXPECT_FALSE(dup.ok());  // unique violation, rejected before any write
  }
  EXPECT_EQ(db->commit_epoch(), epoch_before)
      << "no-op transactions must not publish";
  EXPECT_EQ(db->retained_version_count(), 0u)
      << "no-op transactions must not clone";
}

TEST(MvccTest, PinnedContextRefusesBaseTableWritesButAllowsTempScratch) {
  // The snapshot path's write-skew / lost-update exclusion is structural: a
  // context pinned to an epoch is read-only for base tables, so no stale
  // read can ever be turned into a write. (Writers read live state under
  // the single writer lane instead.)
  auto db = MakeCounterDb();
  auto ctx = db->CreateContext();
  ctx->PinReadSnapshot(db->OpenSnapshot());

  auto insert = db->InsertValues(ctx.get(), "counter",
                                 {{"id", Value::Int(9)},
                                  {"value", Value::Int(9)}});
  EXPECT_FALSE(insert.ok());
  auto update = db->UpdateWhere(ctx.get(), "counter",
                                {{"value", Value::Int(9)}},
                                {{"id", CompareOp::kEq, Value::Int(1)}});
  EXPECT_FALSE(update.ok());
  auto del = db->DeleteWhere(ctx.get(), "counter",
                             {{"id", CompareOp::kEq, Value::Int(1)}});
  EXPECT_FALSE(del.ok());
  EXPECT_EQ(CounterValue(*db->GetTable("counter")), 0) << "nothing applied";

  // Session-local scratch stays writable: materialized probe results are
  // not versioned state.
  TableSchema scratch("TAB_scratch");
  scratch.AddColumn("x", ValueType::kInt);
  ASSERT_TRUE(ctx->CreateTempTable(std::move(scratch)).ok());
  EXPECT_TRUE(ctx->BulkLoadTemp("TAB_scratch", {{Value::Int(1)}}).ok());

  // Unpinning restores write access.
  ctx->ClearReadSnapshot();
  EXPECT_TRUE(db->UpdateWhere(ctx.get(), "counter",
                              {{"value", Value::Int(9)}},
                              {{"id", CompareOp::kEq, Value::Int(1)}})
                  .ok());
}

TEST(MvccTest, SerializedWritersNeverLoseUpdates) {
  // The writer-lane protocol (mutual exclusion + live reads) makes
  // read-modify-write cycles safe: two threads incrementing the same
  // counter through the lane must produce exactly the sum.
  auto db = MakeCounterDb();
  std::mutex writer_lane;
  constexpr int kPerThread = 50;
  auto increment = [&] {
    for (int i = 0; i < kPerThread; ++i) {
      std::lock_guard<std::mutex> lane(writer_lane);
      Database::WriterGuard guard(db.get());
      int64_t current = CounterValue(*db->GetTable("counter"));
      ASSERT_TRUE(db->UpdateWhere("counter",
                                  {{"value", Value::Int(current + 1)}},
                                  {{"id", CompareOp::kEq, Value::Int(1)}})
                      .ok());
    }
  };
  std::thread a(increment);
  std::thread b(increment);
  a.join();
  b.join();
  EXPECT_EQ(CounterValue(*db->GetTable("counter")), 2 * kPerThread);
}

TEST(MvccTest, AbandonedWriterTransactionPublishesNoEpoch) {
  // The execute/rollback protocol of escalated check-only requests leaves
  // no net change; a guard marked AbandonPublish must not commit a
  // byte-identical epoch per check (and later snapshots must still see the
  // correct — unchanged — content).
  auto db = MakeCounterDb();
  (void)db->OpenSnapshot();  // force the first publish
  const uint64_t epoch_before = db->commit_epoch();
  {
    Database::WriterGuard guard(db.get());
    guard.AbandonPublish();
    size_t mark = db->Begin();
    ASSERT_TRUE(db->UpdateWhere("counter", {{"value", Value::Int(99)}},
                                {{"id", CompareOp::kEq, Value::Int(1)}})
                    .ok());
    db->Rollback(mark);
  }
  EXPECT_EQ(db->commit_epoch(), epoch_before);
  auto snap = db->OpenSnapshot();
  EXPECT_EQ(snap->epoch(), epoch_before);
  EXPECT_EQ(CounterValue(snap->FindTable("counter")), 0);
  EXPECT_EQ(CounterValue(*db->GetTable("counter")), 0);

  // A *non*-abandoned transaction still publishes.
  {
    Database::WriterGuard guard(db.get());
    ASSERT_TRUE(db->UpdateWhere("counter", {{"value", Value::Int(1)}},
                                {{"id", CompareOp::kEq, Value::Int(1)}})
                    .ok());
  }
  EXPECT_GT(db->commit_epoch(), epoch_before);
}

/// Starts a thread blocked in WaitForCommitAfter(current epoch) with a 10 s
/// deadline, runs `publish` once the waiter is asleep, and checks that the
/// publish, not the deadline, released it.
template <typename Fn>
void ExpectPublishWakesWaiter(Database* db, const char* path, Fn publish) {
  using Clock = std::chrono::steady_clock;
  const uint64_t before = db->commit_epoch();
  const auto start = Clock::now();
  uint64_t woke_at = 0;
  std::thread waiter([&] {
    woke_at = db->WaitForCommitAfter(before, start + std::chrono::seconds(10));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  publish();
  waiter.join();
  EXPECT_GT(woke_at, before) << path;
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(5))
      << path << ": the waiter slept to its deadline";
}

TEST(MvccTest, EveryPublishPathWakesCommitWaiters) {
  auto db = MakeCounterDb();
  const std::vector<ColumnPredicate> id1 = {
      {"id", CompareOp::kEq, Value::Int(1)}};
  ExpectPublishWakesWaiter(db.get(), "PublishVersion",
                           [&] { ASSERT_TRUE(db->PublishVersion().ok()); });
  ExpectPublishWakesWaiter(db.get(), "WriterGuard release", [&] {
    Database::WriterGuard guard(db.get());
    ASSERT_TRUE(db->UpdateWhere("counter", {{"value", Value::Int(1)}}, id1)
                    .ok());
  });
  ExpectPublishWakesWaiter(db.get(), "OpenSnapshot publish-on-demand", [&] {
    ASSERT_TRUE(db->UpdateWhere("counter", {{"value", Value::Int(2)}}, id1)
                    .ok());
    (void)db->OpenSnapshot();
  });

  // The follower's apply path publishes under the shipped epoch.
  auto follower = MakeCounterDb();
  ASSERT_TRUE(follower->PublishVersion().ok());
  const std::vector<RowId> ids =
      (*follower->GetTable("counter"))->Find(id1, nullptr);
  ASSERT_EQ(ids.size(), 1u);
  WalRecord record;
  record.epoch = follower->commit_epoch() + 1;
  RedoOp op;
  op.kind = RedoOp::Kind::kUpdate;
  op.table = "counter";
  op.row_id = ids[0];
  op.row = {Value::Int(1), Value::Int(3)};
  record.ops.push_back(std::move(op));
  ExpectPublishWakesWaiter(follower.get(), "ApplyReplicatedEpoch", [&] {
    ASSERT_TRUE(follower->ApplyReplicatedEpoch(record).ok());
  });
  EXPECT_EQ(follower->commit_epoch(), record.epoch);
}

TEST(MvccTest, WakeCommitWaitersReleasesACancelledWaiterWithoutPublish) {
  using Clock = std::chrono::steady_clock;
  auto db = MakeCounterDb();
  ASSERT_TRUE(db->PublishVersion().ok());
  const uint64_t before = db->commit_epoch();

  // No publish and no cancel: the deadline ends the wait.
  EXPECT_EQ(db->WaitForCommitAfter(
                before, Clock::now() + std::chrono::milliseconds(20)),
            before);

  std::atomic<bool> cancel{false};
  const auto start = Clock::now();
  uint64_t woke_at = 0;
  std::thread waiter([&] {
    woke_at = db->WaitForCommitAfter(
        before, start + std::chrono::seconds(10), &cancel);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cancel.store(true, std::memory_order_release);
  db->WakeCommitWaiters();
  waiter.join();
  EXPECT_EQ(woke_at, before) << "nothing was published";
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(5));

  // A flag already set never blocks at all.
  EXPECT_EQ(db->WaitForCommitAfter(before, Clock::now() + std::chrono::hours(1),
                                   &cancel),
            before);
}

TEST(MvccTest, CommitEpochOverflowGuardRefusesToWrap) {
  auto db = MakeCounterDb();
  auto first = db->PublishVersion();
  ASSERT_TRUE(first.ok());

  db->set_commit_epoch_for_testing(Database::kMaxCommitEpoch);
  ASSERT_TRUE(db->UpdateWhere("counter", {{"value", Value::Int(5)}},
                              {{"id", CompareOp::kEq, Value::Int(1)}})
                  .ok());
  auto overflow = db->PublishVersion();
  EXPECT_FALSE(overflow.ok()) << "epoch space exhausted must be refused";
  EXPECT_EQ(db->commit_epoch(), Database::kMaxCommitEpoch)
      << "a refused publish must not advance the epoch";

  // Snapshots still work: they pin the last successfully published version
  // (epoch ordering is never violated by a wrap).
  auto snap = db->OpenSnapshot();
  EXPECT_LE(snap->epoch(), Database::kMaxCommitEpoch);

  // WriterGuard swallows the exhaustion (mutations stay live-visible).
  {
    Database::WriterGuard guard(db.get());
    ASSERT_TRUE(db->UpdateWhere("counter", {{"value", Value::Int(6)}},
                                {{"id", CompareOp::kEq, Value::Int(1)}})
                    .ok());
  }
  EXPECT_EQ(CounterValue(*db->GetTable("counter")), 6);
}

TEST(MvccTest, ExhaustedEpochBeforeFirstPublishStillYieldsASnapshot) {
  // Publishing is lazy, so the epoch space can be exhausted (test hook)
  // before anything was ever published. Opening a snapshot — or starting a
  // writer transaction — must still work: the live state is pinned under
  // the terminal epoch instead of crashing on a missing published version.
  auto db = MakeCounterDb();
  db->set_commit_epoch_for_testing(Database::kMaxCommitEpoch);

  auto snap = db->OpenSnapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch(), Database::kMaxCommitEpoch);
  EXPECT_EQ(CounterValue(snap->FindTable("counter")), 0);
  EXPECT_FALSE(db->PublishVersion().ok());

  {
    Database::WriterGuard guard(db.get());
    ASSERT_TRUE(db->UpdateWhere("counter", {{"value", Value::Int(3)}},
                                {{"id", CompareOp::kEq, Value::Int(1)}})
                    .ok());
    auto mid = db->OpenSnapshot();
    ASSERT_NE(mid, nullptr);
    EXPECT_EQ(CounterValue(mid->FindTable("counter")), 0)
        << "mid-transaction snapshot must still see the pinned state";
  }
  EXPECT_EQ(CounterValue(*db->GetTable("counter")), 3);
}

TEST(MvccTest, SnapshotPinnedQueriesResolveTempTablesLive) {
  // A pinned context still mixes its own temp tables into queries: probe
  // materializations are session scratch, not versioned state.
  auto db = fixtures::MakeBookDatabase();
  ASSERT_TRUE(db.ok());
  auto ctx = (*db)->CreateContext();
  QueryEvaluator eval(db->get(), ctx.get());
  SelectQuery mat;
  mat.tables = {{"book", "b"}};
  mat.selects = {{"b", "bookid"}};
  ASSERT_TRUE(eval.MaterializeInto(mat, "TAB_snap").ok());

  ctx->PinReadSnapshot((*db)->OpenSnapshot());
  SelectQuery probe;
  probe.tables = {{"TAB_snap", "t"}};
  probe.selects = {{"t", "bookid"}};
  auto res = eval.Execute(probe);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_FALSE(res->empty());
  ctx->ClearReadSnapshot();
}

}  // namespace
}  // namespace ufilter::relational
