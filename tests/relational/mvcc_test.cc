// MVCC snapshot tables: snapshot stability under concurrent commits,
// epoch-based garbage collection of superseded table versions, the
// read-only pin that excludes lost updates / write skew from the snapshot
// path, the commit-epoch overflow guard, and the commit notification every
// publish path raises, and page / shard granular copy-on-write: a writer
// sharing pages and index shards with a pinned version never changes what
// that version shows, and a point write copies a bounded number of slots,
// whatever the table's size or how many rows share the written index key.
// Runs under TSAN in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fixtures/bookdb.h"
#include "fixtures/synthetic.h"
#include "relational/database.h"
#include "relational/query.h"
#include "relational/wal.h"
#include "ufilter/checker.h"

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

// --- Page / shard granular copy-on-write ---------------------------------

constexpr int64_t kPage = static_cast<int64_t>(Table::kPageSlots);

// p(id) <- c(id, grp, val) with CASCADE: c carries a unique PK index and a
// non-unique FK index, and `children` rows span several pages and shards.
// Child i belongs to group group_of(i) of the four parent groups.
std::unique_ptr<Database> MakePagedDb(
    int64_t children,
    const std::function<int64_t(int64_t)>& group_of = [](int64_t i) {
      return i % 4;
    }) {
  DatabaseSchema schema;
  TableSchema p("p");
  p.AddColumn("id", ValueType::kInt, true).SetPrimaryKey({"id"});
  (void)schema.AddTable(std::move(p));
  TableSchema c("c");
  c.AddColumn("id", ValueType::kInt, true)
      .AddColumn("grp", ValueType::kInt)
      .AddColumn("val", ValueType::kString)
      .SetPrimaryKey({"id"});
  c.AddForeignKey({{"grp"}, "p", {"id"}, DeletePolicy::kCascade});
  (void)schema.AddTable(std::move(c));
  auto db = Database::Create(std::move(schema));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  for (int64_t g = 0; g < 4; ++g) {
    EXPECT_TRUE((*db)->Insert("p", {Value::Int(g)}).ok());
  }
  for (int64_t i = 0; i < children; ++i) {
    EXPECT_TRUE((*db)->Insert("c", {Value::Int(i), Value::Int(group_of(i)),
                                    Value::String("v" + std::to_string(i))})
                    .ok());
  }
  (*db)->Checkpoint();
  return std::move(*db);
}

// Keys every observation probes: all seeded ids and groups plus the ids the
// writers below introduce.
std::vector<int64_t> ObservedKeys() {
  std::vector<int64_t> keys;
  for (int64_t k = 0; k < 4 * kPage; ++k) keys.push_back(k);
  keys.push_back(1000);
  keys.push_back(5000);
  return keys;
}

// Everything a reader can see of one table version through the public read
// API: live rows by RowId, and per indexed column and key the Find and
// ProbeIndexEq results and both planner estimates.
std::string Observe(const Table* t) {
  std::ostringstream out;
  out << "live=" << t->live_row_count() << "\n";
  for (RowId id : t->AllRowIds()) {
    out << id << ":";
    for (const Value& v : *t->GetRow(id)) out << v.ToSqlLiteral() << ",";
    out << "\n";
  }
  const TableSchema& schema = t->schema();
  for (size_t c = 0; c < schema.columns().size(); ++c) {
    const int col = static_cast<int>(c);
    if (!t->HasIndexOnColumn(col)) continue;
    out << "est(" << c << ")=" << t->EstimateEqMatches(col) << "\n";
    for (int64_t k : ObservedKeys()) {
      const Value key = Value::Int(k);
      std::vector<RowId> probed;
      t->ProbeIndexEq(col, key, &probed, nullptr);
      std::sort(probed.begin(), probed.end());
      out << c << "=" << k << " est=" << t->EstimateEqMatches(col, key)
          << " probe=";
      for (RowId id : probed) out << id << " ";
      out << "find=";
      for (RowId id :
           t->Find({{schema.columns()[c].name, CompareOp::kEq, key}},
                   nullptr)) {
        out << id << " ";
      }
      out << "\n";
    }
  }
  return out.str();
}

// Writes that share pages and shards with the pinned version: a value-only
// update (slot 63), an FK re-point (slot 64), a delete (slot 65), a PK
// change (slot 62) and an append onto the shared, partly filled last page.
void WriteAcrossPageBoundary(Database* db) {
  ASSERT_TRUE(db->UpdateWhere("c", {{"val", Value::String("w63")}},
                              {{"id", CompareOp::kEq, Value::Int(63)}})
                  .ok());
  ASSERT_TRUE(db->UpdateWhere("c", {{"grp", Value::Int(3)}},
                              {{"id", CompareOp::kEq, Value::Int(64)}})
                  .ok());
  ASSERT_TRUE(
      db->DeleteWhere("c", {{"id", CompareOp::kEq, Value::Int(65)}}).ok());
  ASSERT_TRUE(db->UpdateWhere("c", {{"id", Value::Int(5000)}},
                              {{"id", CompareOp::kEq, Value::Int(62)}})
                  .ok());
  ASSERT_TRUE(db->Insert("c", {Value::Int(1000), Value::Int(2),
                               Value::String("new")})
                  .ok());
}

TEST(MvccTest, WritesSharingPagesAndShardsNeverMoveThePinnedVersion) {
  auto db = MakePagedDb(3 * kPage + 8);
  auto snap = db->OpenSnapshot();
  const Table* pinned = snap->FindTable("c");
  const std::string before = Observe(pinned);
  const size_t slots_before = pinned->SlotCount();
  EngineStats base = db->SnapshotWorkCounters();
  {
    Database::WriterGuard guard(db.get());
    WriteAcrossPageBoundary(db.get());
  }
  EXPECT_EQ(Observe(pinned), before);
  EXPECT_EQ(pinned->SlotCount(), slots_before);

  // The live version moved exactly as written.
  const Table* live = *static_cast<const Database*>(db.get())->GetTable("c");
  EXPECT_EQ((*live->GetRow(63))[2].AsString(), "w63");
  EXPECT_EQ((*live->GetRow(64))[1].AsInt(), 3);
  EXPECT_EQ(live->GetRow(65), nullptr);
  EXPECT_EQ(live->Find({{"id", CompareOp::kEq, Value::Int(5000)}}, nullptr),
            std::vector<RowId>{62});
  EXPECT_EQ(live->Find({{"id", CompareOp::kEq, Value::Int(1000)}}, nullptr),
            std::vector<RowId>{static_cast<RowId>(slots_before)});
  EXPECT_NE(Observe(live), before);

  // Structure is shared at page granularity: the untouched page 2 is the
  // very same storage in both versions, the written pages are copies.
  EXPECT_EQ(live->GetRow(2 * kPage + 1), pinned->GetRow(2 * kPage + 1));
  EXPECT_NE(live->GetRow(0), pinned->GetRow(0));
  EXPECT_NE(live->GetRow(kPage), pinned->GetRow(kPage));
  EXPECT_GT(db->SnapshotWorkCounters().DiffSince(base).cow_slots_copied, 0u);

  auto later = db->OpenSnapshot();
  EXPECT_EQ(Observe(later->FindTable("c")), Observe(live));
}

TEST(MvccTest, CascadingDeleteAcrossTablesNeverMovesThePinnedVersions) {
  auto db = MakePagedDb(3 * kPage + 8);
  auto snap = db->OpenSnapshot();
  const std::string parent_before = Observe(snap->FindTable("p"));
  const std::string child_before = Observe(snap->FindTable("c"));
  {
    Database::WriterGuard guard(db.get());
    auto deleted =
        db->DeleteWhere("p", {{"id", CompareOp::kEq, Value::Int(2)}});
    ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
    // The group's children sit on every page of c.
    EXPECT_EQ(deleted->deleted_rows, 1 + (3 * kPage + 8) / 4);
  }
  EXPECT_EQ(Observe(snap->FindTable("p")), parent_before);
  EXPECT_EQ(Observe(snap->FindTable("c")), child_before);
  auto later = db->OpenSnapshot();
  EXPECT_EQ(later->FindTable("p")->live_row_count(), 3u);
  EXPECT_TRUE(later->FindTable("c")
                  ->Find({{"grp", CompareOp::kEq, Value::Int(2)}}, nullptr)
                  .empty());
}

TEST(MvccTest, RollbackNeverMovesThePinnedVersion) {
  auto db = MakePagedDb(3 * kPage + 8);
  auto snap = db->OpenSnapshot();
  const Table* pinned = snap->FindTable("c");
  const std::string before = Observe(pinned);
  {
    Database::WriterGuard guard(db.get());
    size_t mark = db->Begin();
    WriteAcrossPageBoundary(db.get());
    db->Rollback(mark);
  }
  EXPECT_EQ(Observe(pinned), before);
  // The live version is back to the pinned content (the rolled-back append
  // leaves only a trailing tombstone).
  const Table* live = *static_cast<const Database*>(db.get())->GetTable("c");
  EXPECT_EQ(Observe(live), before);
}

TEST(MvccTest, AbandonPublishReleaseNeverMovesThePinnedVersion) {
  auto db = MakePagedDb(3 * kPage + 8);
  auto snap = db->OpenSnapshot();
  const Table* pinned = snap->FindTable("c");
  const std::string before = Observe(pinned);
  const uint64_t epoch = db->commit_epoch();
  {
    Database::WriterGuard guard(db.get());
    guard.AbandonPublish();
    size_t mark = db->Begin();
    WriteAcrossPageBoundary(db.get());
    db->Rollback(mark);
  }
  EXPECT_EQ(db->commit_epoch(), epoch);
  EXPECT_EQ(Observe(pinned), before);
  // The abandoned clone is now the live version; the next writer's
  // in-place writes on its pages must still never reach the pinned pages.
  {
    Database::WriterGuard guard(db.get());
    WriteAcrossPageBoundary(db.get());
  }
  EXPECT_GT(db->commit_epoch(), epoch);
  EXPECT_EQ(Observe(pinned), before);
}

// A foreign key with thousands of children per parent: every child of
// group 0 shares one key, so its rows sit in one posting list.
std::unique_ptr<Database> MakeHotKeyDb(int64_t children) {
  return MakePagedDb(children,
                     [](int64_t i) { return i % 16 == 15 ? 1 + i % 3 : 0; });
}

// Copy-on-write slots of one committed write.
template <typename Write>
uint64_t CopiedBy(Database* db, Write&& write) {
  const EngineStats base = db->SnapshotWorkCounters();
  {
    Database::WriterGuard guard(db);
    write();
  }
  return db->SnapshotWorkCounters().DiffSince(base).cow_slots_copied;
}

TEST(MvccTest, HotForeignKeyWritesCopyBoundedSlotsAndKeepThePinnedVersion) {
  // Inserting, deleting and re-pointing a child of a parent with thousands
  // of children copies one page, the touched index shards and one posting
  // node per tree level: nothing that grows with the child count.
  std::vector<std::vector<uint64_t>> copied;
  for (int64_t children : {1000, 8000}) {
    auto db = MakeHotKeyDb(children);
    auto snap = db->OpenSnapshot();
    const Table* pinned = snap->FindTable("c");
    const std::string before = Observe(pinned);
    const int64_t mid = children / 2 + 1;  // a group-0 child
    ASSERT_EQ((*pinned->GetRow(mid))[1].AsInt(), 0);
    std::vector<uint64_t> per_op;
    per_op.push_back(CopiedBy(db.get(), [&] {
      ASSERT_TRUE(db->Insert("c", {Value::Int(children), Value::Int(0),
                                   Value::String("new")})
                      .ok());
    }));
    per_op.push_back(CopiedBy(db.get(), [&] {
      ASSERT_TRUE(
          db->DeleteWhere("c", {{"id", CompareOp::kEq, Value::Int(mid)}})
              .ok());
    }));
    per_op.push_back(CopiedBy(db.get(), [&] {
      ASSERT_TRUE(db->UpdateWhere("c", {{"grp", Value::Int(1)}},
                                  {{"id", CompareOp::kEq, Value::Int(mid + 1)}})
                      .ok());
    }));
    EXPECT_EQ(Observe(pinned), before);
    const Table* live = *static_cast<const Database*>(db.get())->GetTable("c");
    std::vector<RowId> hot;
    live->ProbeIndexEq(1, Value::Int(0), &hot, nullptr);
    std::vector<RowId> was;
    pinned->ProbeIndexEq(1, Value::Int(0), &was, nullptr);
    EXPECT_EQ(hot.size(), was.size() - 1);  // +1 insert, -1 delete, -1 move
    EXPECT_EQ(live->EstimateEqMatches(1, Value::Int(0)),
              static_cast<double>(hot.size()));
    copied.push_back(per_op);
  }
  for (size_t op = 0; op < copied[0].size(); ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    // A copy of the hot key's rows would be >= 1 000 / 8 000 slots; one
    // page, two directory shards and a posting path stay far below, and
    // eight times the children do not double them.
    EXPECT_LT(copied[0][op], 1000u);
    EXPECT_LT(copied[1][op], 1000u);
    EXPECT_LT(copied[1][op], 2 * copied[0][op]);
  }
}

TEST(MvccTest, SplittingASharedIndexCountsTheShardsItCopies) {
  // 64 children fill one PK shard and one page. The 65th doubles the PK
  // index: the split rebuilds a shard the pinned version still shares, so
  // its entries count as copied, although the row lands on a fresh page.
  auto db = MakePagedDb(static_cast<int64_t>(Table::kShardEntries));
  auto snap = db->OpenSnapshot();
  const std::string before = Observe(snap->FindTable("c"));
  const uint64_t copied = CopiedBy(db.get(), [&] {
    ASSERT_TRUE(db->Insert("c", {Value::Int(1000), Value::Int(0),
                                 Value::String("new")})
                    .ok());
  });
  EXPECT_GE(copied, Table::kShardEntries);
  EXPECT_EQ(Observe(snap->FindTable("c")), before);
}

TEST(MvccTest, PostingListsMatchAScanUnderRandomWritesAndPins) {
  // Random inserts, deletes, re-points and rolled-back batches on a key
  // with thousands of rows (three posting-tree levels), with a snapshot
  // pinned after every batch: each pinned version must keep showing what
  // it showed when pinned, and every version's index agrees with a scan.
  auto db = MakeHotKeyDb(5000);
  std::mt19937 rng(7);
  int64_t next_id = 5000;
  std::vector<std::pair<std::shared_ptr<const Snapshot>, std::string>> pins;
  auto check_against_scan = [](const Table* t) {
    for (int64_t g = 0; g < 4; ++g) {
      std::vector<RowId> scan;
      for (RowId id : t->AllRowIds()) {
        if ((*t->GetRow(id))[1] == Value::Int(g)) scan.push_back(id);
      }
      std::vector<RowId> probed;
      t->ProbeIndexEq(1, Value::Int(g), &probed, nullptr);
      std::sort(probed.begin(), probed.end());
      EXPECT_EQ(probed, scan) << "group " << g;
      EXPECT_EQ(t->EstimateEqMatches(1, Value::Int(g)),
                static_cast<double>(scan.size()));
    }
  };
  for (int batch = 0; batch < 24; ++batch) {
    {
      Database::WriterGuard guard(db.get());
      const bool roll_back = batch % 5 == 4;
      const size_t mark = db->Begin();
      for (int op = 0; op < 60; ++op) {
        const int64_t target = static_cast<int64_t>(rng() % next_id);
        const int64_t group = rng() % 4 == 0 ? 1 + rng() % 3 : 0;
        switch (rng() % 3) {
          case 0:
            ASSERT_TRUE(db->Insert("c", {Value::Int(next_id++),
                                         Value::Int(group),
                                         Value::String("r")})
                            .ok());
            break;
          case 1:
            ASSERT_TRUE(db->DeleteWhere("c", {{"id", CompareOp::kEq,
                                               Value::Int(target)}})
                            .ok());
            break;
          default:
            ASSERT_TRUE(db->UpdateWhere("c", {{"grp", Value::Int(group)}},
                                        {{"id", CompareOp::kEq,
                                          Value::Int(target)}})
                            .ok());
            break;
        }
      }
      if (roll_back) db->Rollback(mark);
    }
    auto snap = db->OpenSnapshot();
    check_against_scan(snap->FindTable("c"));
    if (batch % 3 == 0) {
      std::string seen = Observe(snap->FindTable("c"));
      pins.emplace_back(std::move(snap), std::move(seen));
    }
  }
  // Shrink every group to one child: each posting list drops back into its
  // directory entry, and the shard's other posting lists are renumbered.
  {
    Database::WriterGuard guard(db.get());
    for (int64_t g = 0; g < 4; ++g) {
      const Table* live =
          *static_cast<const Database*>(db.get())->GetTable("c");
      std::vector<RowId> ids =
          live->Find({{"grp", CompareOp::kEq, Value::Int(g)}}, nullptr);
      ASSERT_FALSE(ids.empty());
      const Value first = (*live->GetRow(ids[0]))[0];
      ASSERT_TRUE(db->DeleteWhere("c", {{"grp", CompareOp::kEq, Value::Int(g)},
                                        {"id", CompareOp::kNe, first}})
                      .ok());
    }
  }
  auto last = db->OpenSnapshot();
  check_against_scan(last->FindTable("c"));
  EXPECT_EQ(last->FindTable("c")->live_row_count(), 4u);
  for (const auto& [snap, seen] : pins) {
    EXPECT_EQ(Observe(snap->FindTable("c")), seen);
    check_against_scan(snap->FindTable("c"));
  }
}

TEST(MvccTest, PointReplaceCopiesTheSameSlotsAtEveryTableSize) {
  // One view-level REPLACE of a value column after a publish: the copy-on-
  // write work is one page of the updated table and no index shard (the
  // key does not change), independent of how many rows the table holds.
  std::vector<uint64_t> copied;
  for (int rows : {200, 2000, 20000}) {
    auto db = fixtures::MakeChainDatabase(4, rows);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto uf = check::UFilter::Create(db->get(), fixtures::ChainViewQuery(4));
    ASSERT_TRUE(uf.ok()) << uf.status().ToString();
    (void)(*db)->OpenSnapshot();  // publish: every seeded page is shared
    EngineStats base = (*db)->SnapshotWorkCounters();
    {
      Database::WriterGuard guard(db->get());
      check::CheckReport report =
          (*uf)->Check(fixtures::ChainReplaceUpdate(2, 0, "replaced"));
      ASSERT_EQ(report.outcome, check::CheckOutcome::kExecuted)
          << report.Describe();
    }
    copied.push_back(
        (*db)->SnapshotWorkCounters().DiffSince(base).cow_slots_copied);
  }
  EXPECT_EQ(copied[0], Table::kPageSlots);
  EXPECT_EQ(copied[1], copied[0]);
  EXPECT_EQ(copied[2], copied[0]);
}

}  // namespace
}  // namespace ufilter::relational
