// Durability cost of the write-ahead log: commit latency of one writer-lane
// epoch (a recolor UpdateWhere + WriterGuard publish) with durability off
// (baseline) vs. WAL with fsync=never / group(128) / always, plus
// ChecksUnderDurableWriter — the PR 5 mixed sweep with the writer forced
// through fsync=always, proving snapshot checks never inherit fsync
// latency (reader_wait_ns_per_iter ~ 0, checks/sec within noise of the
// non-durable sweep).
//
// Acceptance (ISSUE 6): fsync=group commit latency within 2x of the
// in-memory baseline — gated via
//   compare_bench.py BENCH_wal.json --pair CommitLatency_baseline
//       CommitLatency_group --min-speedup 0.5
#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <atomic>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../tests/support/temp_dir.h"
#include "fixtures/synthetic.h"
#include "relational/wal.h"
#include "service/check_service.h"

namespace {

using ufilter::Status;
using ufilter::Value;
using ufilter::check::CheckOptions;
using ufilter::check::CheckOutcome;
using ufilter::check::CheckReport;
using ufilter::check::UFilter;
using ufilter::relational::Database;
using ufilter::relational::DurabilityOptions;
using ufilter::relational::FsyncPolicy;
using ufilter::service::CheckService;
using ufilter::service::CheckServiceOptions;
using ufilter::service::CheckServiceStats;
using ufilter::service::Session;
using ufilter::test_support::TempDir;

constexpr int kDepth = 2;
constexpr int kRows = 64;

enum class Mode { kBaseline, kNever, kGroup, kAlways };

// One timed iteration = one committed epoch: WriterGuard around a recolor
// of one leaf (alternating colors so every commit is genuinely dirty),
// publish, WAL append and policy-driven fsync on the way out.
void BM_CommitLatency(benchmark::State& state, Mode mode) {
  TempDir tmp("ufilter_bench_wal");
  auto created =
      Database::Create(ufilter::fixtures::MakeChainSchema(kDepth));
  if (!created.ok()) {
    state.SkipWithError(created.status().ToString().c_str());
    return;
  }
  std::unique_ptr<Database> db = std::move(*created);
  if (mode != Mode::kBaseline) {
    DurabilityOptions opts;
    opts.wal_path = tmp.path("commit.wal");
    opts.fsync_policy = mode == Mode::kNever    ? FsyncPolicy::kNever
                        : mode == Mode::kGroup ? FsyncPolicy::kGroup
                                               : FsyncPolicy::kAlways;
    // Deep enough to amortize a spinning-disk-class fsync (~200us on this
    // container's ext4 /tmp) below the in-memory commit cost; the engine
    // default of 8 is tuned for latency, not for this throughput gate.
    opts.group_commit_size = 128;
    Status st = db->EnableDurability(opts);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  Status seeded =
      ufilter::fixtures::PopulateChain(db.get(), kDepth, kRows);
  if (!seeded.ok()) {
    state.SkipWithError(seeded.ToString().c_str());
    return;
  }

  const std::string leaf_table = "t" + std::to_string(kDepth - 1);
  const std::string key_col = "k" + std::to_string(kDepth - 1);
  const std::string val_col = "v" + std::to_string(kDepth - 1);
  int64_t i = 0;
  for (auto _ : state) {
    Database::WriterGuard guard(db.get());
    auto updated = db->UpdateWhere(
        leaf_table,
        {{val_col, Value::String(i % 2 == 0 ? "w0" : "w1")}},
        {{key_col, ufilter::CompareOp::kEq, Value::Int(i % kRows)}});
    if (!updated.ok()) {
      state.SkipWithError(updated.status().ToString().c_str());
      return;
    }
    ++i;
  }
  Status synced = db->SyncWal();
  if (!synced.ok() || !db->wal_status().ok()) {
    state.SkipWithError("WAL went unhealthy during the run");
    return;
  }
  ufilter::relational::EngineStats engine = db->SnapshotWorkCounters();
  state.SetItemsProcessed(i);
  state.counters["wal_records"] = static_cast<double>(engine.wal_records);
  state.counters["wal_fsyncs"] = static_cast<double>(engine.wal_fsyncs);
  state.counters["wal_bytes_per_commit"] =
      i > 0 ? static_cast<double>(engine.wal_bytes) /
                  static_cast<double>(i)
            : 0;
}

// The PR 5 mixed sweep under the harshest durability setting: one client
// saturates the writer lane with fsync=always applies while N sessions run
// check-only traffic on the snapshot fast path. The WAL flush protocol
// (publish under the snapshot mutex, file I/O outside it, readers only
// flush epochs they themselves published) keeps reader_wait_ns_per_iter at
// ~0 — checks never pay for the writer's fsyncs.
void BM_ChecksUnderDurableWriter(benchmark::State& state) {
  constexpr int kChecksPerIter = 256;
  TempDir tmp("ufilter_bench_walsvc");
  auto created =
      Database::Create(ufilter::fixtures::MakeChainSchema(kDepth));
  if (!created.ok()) {
    state.SkipWithError(created.status().ToString().c_str());
    return;
  }
  std::unique_ptr<Database> db = std::move(*created);
  Status seeded =
      ufilter::fixtures::PopulateChain(db.get(), kDepth, kRows);
  if (!seeded.ok()) {
    state.SkipWithError(seeded.ToString().c_str());
    return;
  }
  auto uf =
      UFilter::Create(db.get(), ufilter::fixtures::ChainViewQuery(kDepth));
  if (!uf.ok()) {
    state.SkipWithError(uf.status().ToString().c_str());
    return;
  }

  CheckServiceOptions options;
  options.worker_threads = 5;  // 4 checkers + the writer's occupancy
  options.queue_capacity = kChecksPerIter + 64;
  options.durability.wal_path = tmp.path("svc.wal");
  options.durability.fsync_policy = FsyncPolicy::kAlways;
  CheckService svc(uf->get(), options);
  if (!svc.durability_status().ok()) {
    state.SkipWithError(svc.durability_status().ToString().c_str());
    return;
  }

  CheckOptions dry;
  dry.apply = false;
  CheckOptions apply;
  std::vector<std::shared_ptr<Session>> sessions;
  for (int t = 0; t < 4; ++t) sessions.push_back(svc.OpenSession());
  auto writer_session = svc.OpenSession();

  std::vector<std::string> checks;
  std::vector<std::string> writes;
  for (int k = 0; k < 16; ++k) {
    checks.push_back(
        ufilter::fixtures::ChainDeleteUpdate(kDepth - 1, k));
    writes.push_back(
        ufilter::fixtures::ChainReplaceUpdate(kDepth - 1, k, "w0"));
    writes.push_back(
        ufilter::fixtures::ChainReplaceUpdate(kDepth - 1, k, "w1"));
  }
  for (const std::string& u : checks) (void)(*uf)->Prepare(u);
  for (const std::string& u : writes) (void)(*uf)->Prepare(u);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> commits{0};
  std::thread writer([&] {
    size_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      CheckReport r =
          svc.Submit(writer_session, writes[i++ % writes.size()], apply)
              .get();
      if (r.outcome == CheckOutcome::kExecuted) {
        commits.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  CheckServiceStats before = svc.Snapshot();
  int64_t checked = 0;
  std::vector<std::future<CheckReport>> futures;
  futures.reserve(kChecksPerIter);
  for (auto _ : state) {
    futures.clear();
    for (int i = 0; i < kChecksPerIter; ++i) {
      futures.push_back(svc.Submit(
          sessions[static_cast<size_t>(i) % sessions.size()],
          checks[static_cast<size_t>(i) % checks.size()], dry));
    }
    for (auto& f : futures) {
      CheckReport r = f.get();
      if (r.outcome != CheckOutcome::kExecuted) {
        stop.store(true, std::memory_order_release);
        writer.join();
        state.SkipWithError(r.Describe().c_str());
        return;
      }
      ++checked;
    }
  }
  stop.store(true, std::memory_order_release);
  writer.join();

  CheckServiceStats after = svc.Snapshot();
  const double iters = static_cast<double>(state.iterations());
  state.SetItemsProcessed(checked);
  state.counters["writer_commits"] = static_cast<double>(commits.load());
  state.counters["wal_records"] =
      static_cast<double>(after.wal_records - before.wal_records);
  state.counters["wal_fsyncs"] =
      static_cast<double>(after.wal_fsyncs - before.wal_fsyncs);
  // The acceptance counter: snapshot readers must not inherit the
  // writer's fsync latency (compare with BENCH_concurrency.json's
  // non-durable MixedChecksOneWriter series).
  state.counters["reader_wait_ns_per_iter"] =
      iters > 0
          ? static_cast<double>(after.reader_wait_ns -
                                before.reader_wait_ns) /
                iters
          : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "=== WAL durability: commit latency & checks under a durable writer "
      "===\nCommitLatency_<mode>: one committed epoch per iteration "
      "(recolor +\nWriterGuard publish) with durability off / fsync=never "
      "/ group(128) /\nalways. Acceptance: group within 2x of baseline.\n"
      "ChecksUnderDurableWriter: %d snapshot checks per iteration while "
      "one\nclient applies with fsync=always; reader_wait_ns_per_iter ~ 0 "
      "is the\nreaders-never-pay-fsync acceptance counter.\n\n",
      256);
  // Wall-clock rates: an fsync waits on the disk, not on the CPU.
  benchmark::RegisterBenchmark(
      "CommitLatency_baseline",
      [](benchmark::State& s) { BM_CommitLatency(s, Mode::kBaseline); })
      ->UseRealTime();
  benchmark::RegisterBenchmark(
      "CommitLatency_never",
      [](benchmark::State& s) { BM_CommitLatency(s, Mode::kNever); })
      ->UseRealTime();
  benchmark::RegisterBenchmark(
      "CommitLatency_group",
      [](benchmark::State& s) { BM_CommitLatency(s, Mode::kGroup); })
      ->UseRealTime();
  benchmark::RegisterBenchmark(
      "CommitLatency_always",
      [](benchmark::State& s) { BM_CommitLatency(s, Mode::kAlways); })
      ->UseRealTime();
  benchmark::RegisterBenchmark("ChecksUnderDurableWriter",
                               BM_ChecksUnderDurableWriter)
      ->UseRealTime()
      ->MeasureProcessCPUTime();
  return ufilter::bench::RunWithJson(argc, argv, "wal");
}
