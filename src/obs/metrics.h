// The metrics registry: named counters, gauges and log-bucketed latency
// histograms shared by every layer of the service (engine, WAL, plan cache,
// check service, network front end). One Registry instance backs one
// service process, and Collect() is the only way to read it: in-process
// callers search the snapshot (FindSample / SampleValue), the kMetrics
// wire message carries the same snapshot, and the Prometheus exposition
// renders it, so no two readers can disagree.
//
// Design constraints, in order:
//   - recording must be cheap enough for the per-check hot path: counter
//     increments and histogram records are single relaxed atomic RMWs
//     (plus one bounded binary search for the bucket); no locks, no
//     allocation — bench_obs gates the end-to-end overhead at <3%;
//   - histograms must answer percentile queries (p50/p90/p99/max) without
//     storing samples: fixed log-spaced buckets (64 buckets growing by
//     ~1.3x from 100ns, so any quantile estimate is within one bucket
//     ratio of the true sample) plus an exact running max and sum;
//   - snapshots must be mergeable: HistogramSnapshot::Merge is
//     associative and commutative (bucketwise sums, max of maxes), so
//     per-shard or per-epoch snapshots aggregate into fleet-level views.
//
// Registration is get-or-create by name and returns stable pointers: call
// sites hold the Counter*/Histogram* and never touch the registry map
// again. Values computed elsewhere (engine work counters, plan-cache
// tallies, MVCC epochs) join the exposition through collector callbacks
// that append samples at Collect() time.
#ifndef UFILTER_OBS_METRICS_H_
#define UFILTER_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ufilter::obs {

/// A monotonically increasing relaxed-atomic counter. Increments never
/// lose updates under concurrency; reads are approximate while writers
/// run and exact once they quiesce.
class Counter {
 public:
  void Inc() { v_.fetch_add(1, std::memory_order_relaxed); }
  void Add(uint64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  /// Undoes a premature increment (e.g. a submission counted before an
  /// admission-queue push that was then refused).
  void Sub(uint64_t d) { v_.fetch_sub(d, std::memory_order_relaxed); }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// A current-value gauge (not a total): Set is last-writer-wins; Add/Sub
/// adjust it atomically, so concurrent up/down tracking (e.g. a count of
/// live connections) never loses an update.
class Gauge {
 public:
  void Set(uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(uint64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  void Sub(uint64_t d) { v_.fetch_sub(d, std::memory_order_relaxed); }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Histogram shape: bucket 0 is [0, 100); bucket i covers
/// [bound(i-1), bound(i)) with bounds growing by ~1.3x per bucket; the
/// last bucket is the overflow [bound(62), +inf). In nanoseconds the
/// covered range is 100ns .. ~1.2s before overflow — checks, probes,
/// fsyncs and response writes all land inside it.
inline constexpr size_t kHistogramBuckets = 64;

/// Exclusive upper bound of bucket `i` (i < kHistogramBuckets - 1); the
/// overflow bucket has no finite bound. Bounds are strictly increasing.
uint64_t HistogramBucketBound(size_t i);

/// The bucket a recorded value lands in.
size_t HistogramBucketFor(uint64_t value);

/// A point-in-time, plain-value copy of a Histogram — the unit of
/// merging, percentile queries and wire transport.
struct HistogramSnapshot {
  std::array<uint64_t, kHistogramBuckets> buckets{};
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;

  /// Bucketwise sum; associative and commutative (proven in
  /// tests/common/metrics_test.cc), so shard/epoch snapshots aggregate in
  /// any order.
  void Merge(const HistogramSnapshot& other);

  /// Estimate of the q-quantile (q in [0,1]): linear interpolation inside
  /// the bucket holding the rank-q sample, so the estimate is within one
  /// bucket ratio (~1.3x) of the true sample value. q >= 1 or a rank in
  /// the overflow bucket returns the exact running max; count == 0
  /// returns 0.
  uint64_t ValueAtQuantile(double q) const;

  uint64_t Percentile(int p) const {
    return ValueAtQuantile(static_cast<double>(p) / 100.0);
  }
};

/// \brief Lock-free log-bucketed histogram (the live, writable half).
class Histogram {
 public:
  void Record(uint64_t value) {
    buckets_[HistogramBucketFor(value)].fetch_add(1,
                                                  std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t prev = max_.load(std::memory_order_relaxed);
    while (prev < value &&
           !max_.compare_exchange_weak(prev, value,
                                       std::memory_order_relaxed)) {
    }
  }

  /// Approximately consistent while writers run (relaxed reads; a record
  /// racing the snapshot may show in `count` before its bucket or vice
  /// versa), exact once they quiesce.
  HistogramSnapshot Snapshot() const {
    HistogramSnapshot s;
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    s.count = count_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

enum class MetricKind : uint8_t {
  kCounter = 0,
  kGauge = 1,
  kHistogram = 2,
};

const char* MetricKindName(MetricKind k);

/// One metric's value at Collect() time.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  /// Counter / gauge value (unused for histograms).
  uint64_t value = 0;
  HistogramSnapshot hist;
};

/// A full registry snapshot, sorted by name: the single source every
/// reader (in-process lookups, wire message, Prometheus text) renders
/// from.
using RegistrySnapshot = std::vector<MetricSample>;

/// Finds a sample by exact name; nullptr when absent.
const MetricSample* FindSample(const RegistrySnapshot& snapshot,
                               const std::string& name);

/// A sample's scalar reading: the counter / gauge value, or a histogram's
/// count; 0 when the name is absent.
uint64_t SampleValue(const RegistrySnapshot& snapshot, const std::string& name);

/// \brief The named-metric registry for one service instance.
///
/// Registration (get-or-create) takes a mutex and returns a pointer that
/// stays valid for the registry's lifetime; the hot path only ever touches
/// the returned objects. A name registered twice returns the same object;
/// re-registering a name under a different kind is a programming error and
/// returns nullptr.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Registers a callback that appends externally computed samples (engine
  /// counters, plan-cache tallies, queue gauges) at Collect() time. The
  /// callback must stay valid for the registry's lifetime and be safe to
  /// call from any thread.
  void AddCollector(std::function<void(RegistrySnapshot*)> fn);

  /// Snapshots every owned metric plus all collector contributions,
  /// sorted by name.
  RegistrySnapshot Collect() const;

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> metrics_;
  std::vector<std::function<void(RegistrySnapshot*)>> collectors_;
};

}  // namespace ufilter::obs

#endif  // UFILTER_OBS_METRICS_H_
