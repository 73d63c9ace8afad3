// Durability cost of the write-ahead log: commit latency of one writer-lane
// epoch (a recolor UpdateWhere + WriterGuard publish) with durability off
// (baseline) vs. WAL with fsync=never / group(128) / always, plus
// ChecksUnderDurableWriter — the PR 5 mixed sweep with the writer forced
// through fsync=always, proving snapshot checks never inherit fsync
// latency (reader_wait_ns_per_iter ~ 0, checks/sec within noise of the
// non-durable sweep), plus PointApply/<rows> — the copy-on-write cost of
// one point apply + publish as the table grows (wall time and
// cow_slots_copied_per_apply flat from 200 to 20 000 rows per level) — and
// PointApplyFanout/<rows>, the same on a foreign key with 1 000 children
// per parent.
//
// Acceptance (ISSUE 6): fsync=group commit latency within 2x of the
// in-memory baseline — gated via
//   compare_bench.py BENCH_wal.json --pair CommitLatency_baseline
//       CommitLatency_group --min-speedup 0.5
#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <atomic>
#include <chrono>
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
using ufilter::bench::MetricDelta;
using ufilter::obs::RegistrySnapshot;
using ufilter::service::CheckService;
using ufilter::service::CheckServiceOptions;
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

// One timed iteration = one point apply + publish on a published chain of
// `rows` rows per level (durability off, so only MVCC work is timed): a
// WriterGuard around a value-only recolor of one leaf, spread over the
// table so successive applies hit different pages. Each apply follows a
// publish, so it clones the leaf table and copies the one page it writes;
// the release publishes and retires the superseded version.
void BM_PointApply(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  auto created = ufilter::fixtures::MakeChainDatabase(kDepth, rows);
  if (!created.ok()) {
    state.SkipWithError(created.status().ToString().c_str());
    return;
  }
  std::unique_ptr<Database> db = std::move(*created);
  (void)db->OpenSnapshot();  // publish the seed: every page is now shared
  const std::string leaf_table = "t" + std::to_string(kDepth - 1);
  const std::string key_col = "k" + std::to_string(kDepth - 1);
  const std::string val_col = "v" + std::to_string(kDepth - 1);
  const ufilter::relational::EngineStats before = db->SnapshotWorkCounters();
  int64_t i = 0;
  for (auto _ : state) {
    Database::WriterGuard guard(db.get());
    auto updated = db->UpdateWhere(
        leaf_table, {{val_col, Value::String(i % 2 == 0 ? "w0" : "w1")}},
        {{key_col, ufilter::CompareOp::kEq, Value::Int((i * 7919) % rows)}});
    if (!updated.ok() || *updated != 1) {
      state.SkipWithError("point apply did not update exactly one row");
      return;
    }
    ++i;
  }
  const ufilter::relational::EngineStats d =
      db->SnapshotWorkCounters().DiffSince(before);
  state.SetItemsProcessed(i);
  state.counters["rows_per_level"] = rows;
  state.counters["cow_slots_copied_per_apply"] =
      i > 0 ? static_cast<double>(d.cow_slots_copied) / static_cast<double>(i)
            : 0;
}

// PointApply on a low-cardinality foreign key: the leaf has kFanout
// children per parent, so each FK value is shared by ~1 000 rows. One
// timed iteration inserts a child of parent 0 or deletes the one inserted
// before it (alternating), each as its own apply + publish, so every apply
// writes the hot key's index entry. Also reported: the seeding time
// (seed_ms) and, on the final version, the mean time of an FK probe for a
// value no row carries (absent_fk_probe_ns) and of a PK probe of a live
// row (pk_probe_ns).
constexpr int kFanout = 1000;

void BM_PointApplyFanout(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const auto seed_start = std::chrono::steady_clock::now();
  auto created =
      ufilter::fixtures::MakeFanoutChainDatabase(kDepth, rows, kFanout);
  const double seed_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - seed_start)
                             .count();
  if (!created.ok()) {
    state.SkipWithError(created.status().ToString().c_str());
    return;
  }
  std::unique_ptr<Database> db = std::move(*created);
  (void)db->OpenSnapshot();  // publish the seed: every page is now shared
  const std::string leaf_table = "t" + std::to_string(kDepth - 1);
  const std::string key_col = "k" + std::to_string(kDepth - 1);
  const ufilter::relational::EngineStats before = db->SnapshotWorkCounters();
  int64_t i = 0;
  for (auto _ : state) {
    Database::WriterGuard guard(db.get());
    const int64_t key = rows + i / 2;
    bool ok;
    if (i % 2 == 0) {
      ok = db->Insert(leaf_table, {Value::Int(key), Value::String("new"),
                                   Value::Int(0)})
               .ok();
    } else {
      auto deleted = db->DeleteWhere(
          leaf_table, {{key_col, ufilter::CompareOp::kEq, Value::Int(key)}});
      ok = deleted.ok() && deleted->deleted_rows == 1;
    }
    if (!ok) {
      state.SkipWithError("fanout apply did not write exactly one row");
      return;
    }
    ++i;
  }
  const ufilter::relational::EngineStats d =
      db->SnapshotWorkCounters().DiffSince(before);

  constexpr int kProbes = 1 << 16;
  auto snap = db->OpenSnapshot();
  const ufilter::relational::Table* leaf = snap->FindTable(leaf_table);
  std::vector<ufilter::relational::RowId> out;
  size_t found = 0;
  auto time_probes = [&](int column, int64_t first) {
    const auto start = std::chrono::steady_clock::now();
    for (int p = 0; p < kProbes; ++p) {
      out.clear();
      leaf->ProbeIndexEq(column, Value::Int(first + p % rows), &out, nullptr);
      found += out.size();
    }
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - start)
               .count() /
           kProbes;
  };
  const double absent_ns = time_probes(2, rows);  // no parent has key >= rows
  const double pk_ns = time_probes(0, 0);
  benchmark::DoNotOptimize(found);

  state.SetItemsProcessed(i);
  state.counters["rows_per_level"] = rows;
  state.counters["children_per_parent"] = kFanout;
  state.counters["seed_ms"] = seed_ms;
  state.counters["absent_fk_probe_ns"] = absent_ns;
  state.counters["pk_probe_ns"] = pk_ns;
  state.counters["cow_slots_copied_per_apply"] =
      i > 0 ? static_cast<double>(d.cow_slots_copied) / static_cast<double>(i)
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

  RegistrySnapshot before = svc.registry().Collect();
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

  RegistrySnapshot after = svc.registry().Collect();
  const double iters = static_cast<double>(state.iterations());
  state.SetItemsProcessed(checked);
  state.counters["writer_commits"] = static_cast<double>(commits.load());
  state.counters["wal_records"] =
      MetricDelta(after, before, "wal_records");
  state.counters["wal_fsyncs"] =
      MetricDelta(after, before, "wal_fsyncs");
  // The acceptance counter: snapshot readers must not inherit the
  // writer's fsync latency (compare with BENCH_concurrency.json's
  // non-durable MixedChecksOneWriter series).
  state.counters["reader_wait_ns_per_iter"] =
      iters > 0
          ? MetricDelta(after, before, "service_reader_wait_ns") / iters
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
      "is the\nreaders-never-pay-fsync acceptance counter.\n"
      "PointApply/<rows>: one point apply + publish; wall time and\n"
      "cow_slots_copied_per_apply stay flat as rows grow.\n"
      "PointApplyFanout/<rows>: the same with 1 000 children per parent:\n"
      "insert / delete a child of one hot FK value per apply.\n\n",
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
  benchmark::RegisterBenchmark("PointApply", BM_PointApply)
      ->Arg(200)
      ->Arg(2000)
      ->Arg(20000)
      ->UseRealTime();
  benchmark::RegisterBenchmark("PointApplyFanout", BM_PointApplyFanout)
      ->Arg(2000)
      ->Arg(20000)
      ->UseRealTime();
  benchmark::RegisterBenchmark("ChecksUnderDurableWriter",
                               BM_ChecksUnderDurableWriter)
      ->UseRealTime()
      ->MeasureProcessCPUTime();
  return ufilter::bench::RunWithJson(argc, argv, "wal");
}
