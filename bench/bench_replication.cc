// Replication cost, both halves of the epoch stream:
//
//   ReplicationApplyThroughput   the follower's apply path in isolation —
//                                WalTailer::Poll + ApplyReplicatedEpoch
//                                over a pre-committed log; items/sec is
//                                records (epochs) applied, with the shipped
//                                byte volume attached;
//   ReplicationConvergence       end-to-end over real sockets — a primary
//                                with a ReplicationSource, a live Follower
//                                subscribed to it; each iteration commits
//                                one writer batch and waits until the
//                                follower has applied it, so items/sec is
//                                converged epochs per wall-clock second
//                                (commit + ship + apply + publish; the
//                                ship and apply run on other threads);
//   ReplicationBootstrap/rows    wall time from a fresh follower's
//                                subscribe to its converged bootstrap
//                                over real sockets (the primary streams
//                                the state as bounded kReplSnapshot
//                                chunks; the follower loads each as it
//                                arrives and publishes at the last),
//                                with the chunk frames and bytes shipped
//                                per bootstrap as counters.
//
// The CI gate requires all three series in BENCH_replication.json; the
// steady state it certifies is replication_lag_epochs == 0 after each
// iteration.
#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "../tests/support/temp_dir.h"
#include "fixtures/synthetic.h"
#include "net/replication.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "relational/database.h"
#include "relational/wal.h"
#include "service/check_service.h"

namespace {

using ufilter::check::UFilter;
using ufilter::net::Follower;
using ufilter::net::FollowerOptions;
using ufilter::net::ReplicationSource;
using ufilter::net::ReplicationSourceOptions;
using ufilter::net::Server;
using ufilter::relational::Database;
using ufilter::relational::DurabilityOptions;
using ufilter::relational::FsyncPolicy;
using ufilter::relational::WalTailer;

constexpr int kDepth = 2;
constexpr int kRows = 32;
constexpr uint64_t kNoCap = 64ull << 20;

void Die(const char* what, const ufilter::Status& st) {
  std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
  std::abort();
}

std::unique_ptr<Database> MakeDurablePrimary(const std::string& wal,
                                             int batches,
                                             int rows_per_level = kRows) {
  auto db = Database::Create(ufilter::fixtures::MakeChainSchema(kDepth));
  if (!db.ok()) Die("create", db.status());
  DurabilityOptions opts;
  opts.wal_path = wal;
  opts.fsync_policy = FsyncPolicy::kGroup;
  opts.group_commit_size = 8;
  if (auto st = (*db)->EnableDurability(opts); !st.ok()) Die("wal", st);
  if (auto st =
          ufilter::fixtures::PopulateChain(db->get(), kDepth, rows_per_level);
      !st.ok()) {
    Die("populate", st);
  }
  for (int b = 0; b < batches; ++b) {
    if (auto st = ufilter::fixtures::ApplyChainBatch(db->get(), kDepth, kRows,
                                                     /*seed=*/17, b);
        !st.ok()) {
      Die("batch", st);
    }
  }
  if (auto st = (*db)->SyncWal(); !st.ok()) Die("sync", st);
  return std::move(*db);
}

void ReplicationApplyThroughput(benchmark::State& state) {
  const int batches = static_cast<int>(state.range(0));
  ufilter::test_support::TempDir tmp("bench_repl_apply");
  if (!tmp.ok()) std::abort();
  const std::string wal = tmp.path("primary.wal");
  auto primary = MakeDurablePrimary(wal, batches);

  int64_t records = 0;
  int64_t bytes = 0;
  for (auto _ : state) {
    // A fresh follower per iteration: the whole certified history is the
    // stream being applied.
    state.PauseTiming();
    auto follower =
        Database::Create(ufilter::fixtures::MakeChainSchema(kDepth));
    if (!follower.ok()) Die("follower", follower.status());
    WalTailer tailer(wal);
    state.ResumeTiming();

    while (true) {
      auto polled = tailer.Poll(kNoCap);
      if (!polled.ok()) Die("poll", polled.status());
      if (polled->empty()) break;
      for (const auto& tailed : *polled) {
        auto record = ufilter::relational::DecodeWalPayload(tailed.payload);
        if (!record.ok()) Die("decode", record.status());
        if (auto st = (*follower)->ApplyReplicatedEpoch(*record); !st.ok()) {
          Die("apply", st);
        }
        ++records;
        bytes += static_cast<int64_t>(tailed.payload.size());
      }
    }
    if ((*follower)->commit_epoch() != primary->commit_epoch()) {
      std::fprintf(stderr, "follower stopped short of the primary\n");
      std::abort();
    }
  }
  state.SetItemsProcessed(records);
  state.SetBytesProcessed(bytes);
  const auto avg = benchmark::Counter::kAvgIterations;
  state.counters["records_per_iter"] =
      benchmark::Counter(static_cast<double>(records), avg);
}
BENCHMARK(ReplicationApplyThroughput)
    ->Arg(16)
    ->Arg(64)
    ->ArgName("epochs")
    ->Unit(benchmark::kMillisecond);

void ReplicationConvergence(benchmark::State& state) {
  ufilter::test_support::TempDir tmp("bench_repl_live");
  if (!tmp.ok()) std::abort();
  const std::string wal = tmp.path("primary.wal");
  auto primary = MakeDurablePrimary(wal, /*batches=*/0);
  if (auto st = primary->PublishVersion(); st.status().ok() == false) {
    Die("publish", st.status());
  }
  auto primary_uf =
      UFilter::Create(primary.get(), ufilter::fixtures::ChainViewQuery(kDepth));
  if (!primary_uf.ok()) Die("ufilter", primary_uf.status());
  auto primary_server = Server::Start(primary_uf->get());
  if (!primary_server.ok()) Die("server", primary_server.status());

  ReplicationSourceOptions ropts;
  ropts.wal_path = wal;
  auto source = ReplicationSource::Start(
      primary.get(), &(*primary_server)->service().registry(), ropts);
  if (!source.ok()) Die("source", source.status());

  auto follower_db =
      Database::Create(ufilter::fixtures::MakeChainSchema(kDepth));
  if (!follower_db.ok()) Die("follower db", follower_db.status());
  auto follower_uf = UFilter::Create(follower_db->get(),
                                     ufilter::fixtures::ChainViewQuery(kDepth));
  if (!follower_uf.ok()) Die("follower uf", follower_uf.status());
  auto follower_server = Server::Start(follower_uf->get());
  if (!follower_server.ok()) Die("follower server", follower_server.status());
  FollowerOptions fopts;
  fopts.port = (*source)->port();
  auto follower = Follower::Start(&(*follower_server)->service(),
                                  follower_db->get(), fopts);

  int batch = 1000;  // distinct from the setup batches
  int64_t epochs = 0;
  for (auto _ : state) {
    if (auto st = ufilter::fixtures::ApplyChainBatch(
            primary.get(), kDepth, kRows, /*seed=*/17, batch++);
        !st.ok()) {
      Die("commit", st);
    }
    if (!follower->WaitForEpoch(primary->commit_epoch(),
                                std::chrono::seconds(30))) {
      std::fprintf(stderr, "convergence stalled: %s\n",
                   follower->status().ToString().c_str());
      std::abort();
    }
    ++epochs;
  }
  state.SetItemsProcessed(epochs);
  auto stats = follower->stats();
  const auto avg = benchmark::Counter::kAvgIterations;
  state.counters["records_applied_per_iter"] =
      benchmark::Counter(static_cast<double>(stats.records_applied), avg);
  state.counters["bytes_applied_per_iter"] =
      benchmark::Counter(static_cast<double>(stats.bytes_applied), avg);
  state.counters["lag_epochs_final"] =
      benchmark::Counter(static_cast<double>(stats.lag_epochs));
  follower->Stop();
  (*source)->Stop();
}
BENCHMARK(ReplicationConvergence)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void ReplicationBootstrap(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  ufilter::test_support::TempDir tmp("bench_repl_boot");
  if (!tmp.ok()) std::abort();
  const std::string wal = tmp.path("primary.wal");
  auto primary = MakeDurablePrimary(wal, /*batches=*/0, rows / kDepth);
  if (auto st = primary->PublishVersion(); !st.ok()) {
    Die("publish", st.status());
  }
  ufilter::obs::Registry registry;
  ReplicationSourceOptions ropts;
  ropts.wal_path = wal;
  auto source = ReplicationSource::Start(primary.get(), &registry, ropts);
  if (!source.ok()) Die("source", source.status());
  const uint64_t target = primary->commit_epoch();

  for (auto _ : state) {
    // A fresh replica per iteration; building its (empty) database and
    // service is set-up, not bootstrap.
    state.PauseTiming();
    auto db = Database::Create(ufilter::fixtures::MakeChainSchema(kDepth));
    if (!db.ok()) Die("follower db", db.status());
    auto uf = UFilter::Create(db->get(),
                              ufilter::fixtures::ChainViewQuery(kDepth));
    if (!uf.ok()) Die("follower uf", uf.status());
    auto service =
        std::make_unique<ufilter::service::CheckService>(uf->get());
    FollowerOptions fopts;
    fopts.port = (*source)->port();
    state.ResumeTiming();

    auto follower = Follower::Start(service.get(), db->get(), fopts);
    if (!follower->WaitForEpoch(target, std::chrono::seconds(60))) {
      std::fprintf(stderr, "bootstrap stalled: %s\n",
                   follower->status().ToString().c_str());
      std::abort();
    }

    state.PauseTiming();
    follower->Stop();
    service.reset();
    state.ResumeTiming();
  }
  const auto snapshot = registry.Collect();
  const auto avg = benchmark::Counter::kAvgIterations;
  state.counters["snapshot_frames_per_iter"] = benchmark::Counter(
      static_cast<double>(
          ufilter::obs::SampleValue(snapshot, "repl_snapshot_chunks_shipped")),
      avg);
  state.counters["snapshot_bytes_per_iter"] = benchmark::Counter(
      static_cast<double>(
          ufilter::obs::SampleValue(snapshot, "repl_snapshot_bytes_shipped")),
      avg);
  (*source)->Stop();
}
BENCHMARK(ReplicationBootstrap)
    ->Arg(20000)
    ->Arg(200000)
    ->ArgName("rows")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return ufilter::bench::RunWithJson(argc, argv, "replication");
}
