// Batch/cached throughput of the prepared-update architecture: updates/sec
// for the same delete workload through three paths —
//   - Cold:    every Check compiles from scratch (plan cache bypassed),
//   - Cached:  Check hits the plan cache (zero parse/bind/STAR per update),
//   - Batched: CheckBatch merges the step-3 anchor/victim probes of the
//              whole batch into OR-of-predicates queries.
// Expected shape: Cold < Cached < Batched, with probe-queries-per-update
// dropping from 2 (cold/cached) toward 2/batch_size (batched).
#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "fixtures/synthetic.h"
#include "ufilter/checker.h"

namespace {

using ufilter::check::CheckOptions;
using ufilter::check::CheckOutcome;
using ufilter::check::CheckReport;
using ufilter::check::UFilter;

constexpr int kDepth = 4;
constexpr int kRowsPerLevel = 200;
constexpr int kBatchSize = 64;

struct Setup {
  std::unique_ptr<ufilter::relational::Database> db;
  std::unique_ptr<UFilter> uf;
  std::vector<std::string> updates;  // kBatchSize distinct leaf deletes
};

Setup& SharedSetup() {
  static Setup setup = [] {
    Setup s;
    auto db = ufilter::fixtures::MakeChainDatabase(kDepth, kRowsPerLevel);
    if (db.ok()) s.db = std::move(*db);
    auto uf = UFilter::Create(s.db.get(),
                              ufilter::fixtures::ChainViewQuery(kDepth));
    if (uf.ok()) s.uf = std::move(*uf);
    for (int k = 0; k < kBatchSize; ++k) {
      s.updates.push_back(ufilter::fixtures::ChainDeleteUpdate(kDepth - 1, k));
    }
    return s;
  }();
  return setup;
}

void ReportCounters(benchmark::State& state, const Setup& setup,
                    int64_t updates_checked) {
  ufilter::relational::EngineStats stats = setup.db->SnapshotWorkCounters();
  if (updates_checked > 0) {
    state.counters["probe_queries_per_update"] =
        static_cast<double>(stats.queries_executed) /
        static_cast<double>(updates_checked);
  }
  state.counters["plan_cache_hits"] =
      static_cast<double>(stats.plan_cache_hits);
  state.counters["updates_compiled"] =
      static_cast<double>(stats.updates_compiled);
  state.counters["plan_cache_misses"] =
      static_cast<double>(stats.plan_cache_misses);
  state.counters["plan_cache_evictions"] = static_cast<double>(
      setup.uf->plan_cache().counters().evictions);
  state.SetItemsProcessed(updates_checked);
}

void BM_Cold(benchmark::State& state) {
  Setup& setup = SharedSetup();
  CheckOptions options;
  options.apply = false;
  options.use_plan_cache = false;
  // Scenario isolation: counters start at zero for this series.
  setup.db->ResetWorkCounters();
  setup.uf->plan_cache().ResetCounters();
  int64_t checked = 0;
  size_t next = 0;
  for (auto _ : state) {
    const std::string& update = setup.updates[next];
    next = (next + 1) % setup.updates.size();
    CheckReport r = setup.uf->Check(update, options);
    if (r.outcome != CheckOutcome::kExecuted) {
      state.SkipWithError(r.Describe().c_str());
      return;
    }
    ++checked;
    benchmark::DoNotOptimize(r);
  }
  ReportCounters(state, setup, checked);
}

void BM_Cached(benchmark::State& state) {
  Setup& setup = SharedSetup();
  CheckOptions options;
  options.apply = false;
  // Warm the plan cache outside the timed region.
  setup.uf->plan_cache().Clear();
  for (const std::string& update : setup.updates) {
    (void)setup.uf->Prepare(update);
  }
  setup.db->ResetWorkCounters();
  setup.uf->plan_cache().ResetCounters();
  int64_t checked = 0;
  size_t next = 0;
  for (auto _ : state) {
    const std::string& update = setup.updates[next];
    next = (next + 1) % setup.updates.size();
    CheckReport r = setup.uf->Check(update, options);
    if (r.outcome != CheckOutcome::kExecuted) {
      state.SkipWithError(r.Describe().c_str());
      return;
    }
    ++checked;
    benchmark::DoNotOptimize(r);
  }
  ReportCounters(state, setup, checked);
}

void BM_Batched(benchmark::State& state) {
  Setup& setup = SharedSetup();
  CheckOptions options;
  options.apply = false;
  setup.uf->plan_cache().Clear();
  for (const std::string& update : setup.updates) {
    (void)setup.uf->Prepare(update);
  }
  setup.db->ResetWorkCounters();
  setup.uf->plan_cache().ResetCounters();
  int64_t checked = 0;
  for (auto _ : state) {
    std::vector<CheckReport> reports =
        setup.uf->CheckBatch(setup.updates, options);
    for (const CheckReport& r : reports) {
      if (r.outcome != CheckOutcome::kExecuted) {
        state.SkipWithError(r.Describe().c_str());
        return;
      }
    }
    checked += static_cast<int64_t>(reports.size());
    benchmark::DoNotOptimize(reports);
  }
  ReportCounters(state, setup, checked);
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "=== Batch throughput: cold vs. cached vs. batched ===\n"
      "Workload: %d distinct leaf deletes over a depth-%d chain view\n"
      "(apply=false). Cold re-compiles per check; Cached hits the plan\n"
      "cache; Batched additionally merges step-3 probes (batch size %d).\n"
      "Expected: items_per_second Cold < Cached < Batched;\n"
      "probe_queries_per_update falls from 2 toward 2/batch.\n\n",
      kBatchSize, kDepth, kBatchSize);
  benchmark::RegisterBenchmark("BatchThroughput/Cold", BM_Cold);
  benchmark::RegisterBenchmark("BatchThroughput/Cached", BM_Cached);
  benchmark::RegisterBenchmark("BatchThroughput/Batched", BM_Batched);
  return ufilter::bench::RunWithJson(argc, argv, "batch_throughput");
}
