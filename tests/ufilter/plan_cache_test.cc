// Plan cache behavior: repeated updates compile once, LRU eviction order,
// cached rejections skip STAR, and plans cannot leak across UFilter
// instances (view re-creation invalidates them).
#include <gtest/gtest.h>

#include "fixtures/bookdb.h"
#include "ufilter/checker.h"

namespace ufilter {
namespace {

using check::CheckOptions;
using check::CheckOutcome;
using check::CheckReport;
using check::Translatability;
using check::UFilter;
using relational::EngineStats;

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = fixtures::MakeBookDatabase();
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    auto uf = UFilter::Create(db_.get(), fixtures::BookViewQuery());
    ASSERT_TRUE(uf.ok()) << uf.status().ToString();
    uf_ = std::move(*uf);
  }

  EngineStats Diff(const EngineStats& baseline) {
    return db_->SnapshotWorkCounters().DiffSince(baseline);
  }

  std::unique_ptr<relational::Database> db_;
  std::unique_ptr<UFilter> uf_;
};

TEST_F(PlanCacheTest, FreshReportReadsAsNotRun) {
  CheckReport report;
  EXPECT_EQ(report.outcome, CheckOutcome::kNotRun);
  EXPECT_EQ(report.star_class, Translatability::kUnclassified);
  EXPECT_EQ(report.Describe(), "not run");
}

TEST_F(PlanCacheTest, SecondCheckDoesZeroCompileWork) {
  CheckOptions options;
  options.apply = false;
  CheckReport first = uf_->Check(fixtures::PaperUpdate(8), options);
  EXPECT_EQ(first.outcome, CheckOutcome::kExecuted) << first.Describe();
  EXPECT_FALSE(first.from_plan_cache);

  EngineStats baseline = db_->SnapshotWorkCounters();
  CheckReport second = uf_->Check(fixtures::PaperUpdate(8), options);
  EngineStats diff = Diff(baseline);
  EXPECT_EQ(second.outcome, CheckOutcome::kExecuted) << second.Describe();
  EXPECT_TRUE(second.from_plan_cache);
  EXPECT_EQ(diff.updates_compiled, 0u) << "re-parsed a cached template";
  EXPECT_EQ(diff.star_checks, 0u) << "re-ran STAR for a cached template";
  EXPECT_EQ(diff.plan_cache_hits, 1u);
  EXPECT_EQ(diff.plan_cache_misses, 0u);
  // Outcomes are identical to the cold run.
  EXPECT_EQ(second.star_class, first.star_class);
  EXPECT_EQ(second.rows_affected, first.rows_affected);
}

TEST_F(PlanCacheTest, WhitespaceVariantsShareOnePlan) {
  CheckOptions options;
  options.apply = false;
  (void)uf_->Check(fixtures::PaperUpdate(8), options);
  // Same update with different layout: must hit.
  std::string variant = fixtures::PaperUpdate(8);
  for (size_t pos = variant.find('\n'); pos != std::string::npos;
       pos = variant.find('\n', pos + 3)) {
    variant.replace(pos, 1, "\n\t ");
  }
  EngineStats baseline = db_->SnapshotWorkCounters();
  CheckReport r = uf_->Check(variant, options);
  EXPECT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  EXPECT_TRUE(r.from_plan_cache);
  EXPECT_EQ(Diff(baseline).plan_cache_hits, 1u);
}

TEST_F(PlanCacheTest, CachedUntranslatableRejectedWithoutStar) {
  CheckReport first = uf_->Check(fixtures::PaperUpdate(2));
  EXPECT_EQ(first.outcome, CheckOutcome::kUntranslatable) << first.Describe();

  EngineStats baseline = db_->SnapshotWorkCounters();
  CheckReport second = uf_->Check(fixtures::PaperUpdate(2));
  EngineStats diff = Diff(baseline);
  EXPECT_EQ(second.outcome, CheckOutcome::kUntranslatable);
  EXPECT_EQ(second.star_class, Translatability::kUntranslatable);
  EXPECT_TRUE(second.from_plan_cache);
  EXPECT_EQ(diff.star_checks, 0u);
  EXPECT_EQ(diff.updates_compiled, 0u);
}

TEST_F(PlanCacheTest, CachedParseErrorStaysInvalid) {
  CheckReport first = uf_->Check("THIS IS NOT AN UPDATE");
  EXPECT_EQ(first.outcome, CheckOutcome::kInvalid);
  EngineStats baseline = db_->SnapshotWorkCounters();
  CheckReport second = uf_->Check("THIS  IS   NOT AN UPDATE");
  EXPECT_EQ(second.outcome, CheckOutcome::kInvalid);
  EXPECT_TRUE(second.from_plan_cache);
  EXPECT_EQ(Diff(baseline).updates_compiled, 0u);
}

TEST_F(PlanCacheTest, LruEvictionOrder) {
  // Single shard: deterministic global LRU order.
  uf_->plan_cache().Configure(/*capacity=*/2, /*shards=*/1);
  (void)uf_->Prepare(fixtures::PaperUpdate(8));   // A
  (void)uf_->Prepare(fixtures::PaperUpdate(9));   // B
  (void)uf_->Prepare(fixtures::PaperUpdate(12));  // C -> evicts A
  EXPECT_EQ(uf_->plan_cache().size(), 2u);

  EngineStats baseline = db_->SnapshotWorkCounters();
  bool hit = false;
  (void)uf_->Prepare(fixtures::PaperUpdate(8), &hit);  // A is gone
  EXPECT_FALSE(hit);
  EXPECT_EQ(Diff(baseline).plan_cache_misses, 1u);
}

TEST_F(PlanCacheTest, LookupRefreshesRecency) {
  uf_->plan_cache().Configure(/*capacity=*/2, /*shards=*/1);
  (void)uf_->Prepare(fixtures::PaperUpdate(8));  // A
  (void)uf_->Prepare(fixtures::PaperUpdate(9));  // B
  bool hit = false;
  (void)uf_->Prepare(fixtures::PaperUpdate(8), &hit);  // touch A
  ASSERT_TRUE(hit);
  (void)uf_->Prepare(fixtures::PaperUpdate(12));  // C -> evicts B, not A
  (void)uf_->Prepare(fixtures::PaperUpdate(8), &hit);
  EXPECT_TRUE(hit) << "touched entry was evicted before the older one";
  (void)uf_->Prepare(fixtures::PaperUpdate(9), &hit);
  EXPECT_FALSE(hit) << "least-recently-used entry survived eviction";
}

TEST_F(PlanCacheTest, KeysByRecencyReportsMruFirst) {
  uf_->plan_cache().Configure(/*capacity=*/4, /*shards=*/1);
  (void)uf_->Prepare("DELETE $a");
  (void)uf_->Prepare("DELETE $b");
  std::vector<std::string> keys = uf_->plan_cache().KeysByRecency();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "DELETE $b");
  EXPECT_EQ(keys[1], "DELETE $a");
}

TEST_F(PlanCacheTest, CountersTrackHitsMissesEvictions) {
  uf_->plan_cache().Configure(/*capacity=*/2, /*shards=*/1);
  uf_->plan_cache().ResetCounters();
  EngineStats baseline = db_->SnapshotWorkCounters();
  (void)uf_->Prepare(fixtures::PaperUpdate(8));   // miss + insert
  (void)uf_->Prepare(fixtures::PaperUpdate(8));   // hit
  (void)uf_->Prepare(fixtures::PaperUpdate(9));   // miss + insert
  (void)uf_->Prepare(fixtures::PaperUpdate(12));  // miss + insert -> evict
  // Each Prepare counts its hit or miss exactly once.
  EngineStats diff = Diff(baseline);
  EXPECT_EQ(diff.plan_cache_hits, 1u);
  EXPECT_EQ(diff.plan_cache_misses, 3u);
  check::PlanCacheCounters c = uf_->plan_cache().counters();
  EXPECT_EQ(c.insertions, 3u);
  EXPECT_EQ(c.evictions, 1u);
}

TEST_F(PlanCacheTest, ShardedCacheStillServesEveryTemplate) {
  // Default shape: sharded. Recency is per shard, but lookups must behave
  // identically: every prepared template is served from the cache.
  EXPECT_GT(uf_->plan_cache().shard_count(), 1u);
  for (int u = 8; u <= 12; ++u) {
    (void)uf_->Prepare(fixtures::PaperUpdate(u));
  }
  for (int u = 8; u <= 12; ++u) {
    bool hit = false;
    (void)uf_->Prepare(fixtures::PaperUpdate(u), &hit);
    EXPECT_TRUE(hit) << "u" << u;
  }
  EXPECT_EQ(uf_->plan_cache().size(), 5u);
}

TEST_F(PlanCacheTest, ClearEmptiesTheCache) {
  (void)uf_->Prepare(fixtures::PaperUpdate(8));
  EXPECT_GT(uf_->plan_cache().size(), 0u);
  uf_->plan_cache().Clear();
  EXPECT_EQ(uf_->plan_cache().size(), 0u);
  bool hit = true;
  (void)uf_->Prepare(fixtures::PaperUpdate(8), &hit);
  EXPECT_FALSE(hit);
}

TEST_F(PlanCacheTest, UsePlanCacheFalseBypassesTheCache) {
  CheckOptions options;
  options.apply = false;
  options.use_plan_cache = false;
  (void)uf_->Check(fixtures::PaperUpdate(8), options);
  EXPECT_EQ(uf_->plan_cache().size(), 0u);
  EngineStats baseline = db_->SnapshotWorkCounters();
  CheckReport r = uf_->Check(fixtures::PaperUpdate(8), options);
  EXPECT_FALSE(r.from_plan_cache);
  EngineStats diff = Diff(baseline);
  EXPECT_EQ(diff.updates_compiled, 1u);
  EXPECT_EQ(diff.plan_cache_hits, 0u);
  EXPECT_EQ(diff.plan_cache_misses, 0u);
}

TEST_F(PlanCacheTest, RecreatedViewInvalidatesOldPlans) {
  auto plan = uf_->Prepare(fixtures::PaperUpdate(8));
  ASSERT_TRUE(plan->parsed());

  // Re-create the U-Filter (same database, same view text): the new
  // instance must reject the old instance's plans and start with a cold
  // cache.
  auto uf2 = UFilter::Create(db_.get(), fixtures::BookViewQuery());
  ASSERT_TRUE(uf2.ok());
  CheckReport stale = (*uf2)->Execute(*plan);
  EXPECT_EQ(stale.outcome, CheckOutcome::kInvalid) << stale.Describe();
  EXPECT_TRUE(stale.error.IsInvalidUpdate());

  EngineStats baseline = db_->SnapshotWorkCounters();
  CheckOptions options;
  options.apply = false;
  CheckReport fresh = (*uf2)->Check(fixtures::PaperUpdate(8), options);
  EXPECT_EQ(fresh.outcome, CheckOutcome::kExecuted) << fresh.Describe();
  EXPECT_FALSE(fresh.from_plan_cache);
  EXPECT_EQ(Diff(baseline).plan_cache_misses, 1u);
}

}  // namespace
}  // namespace ufilter
