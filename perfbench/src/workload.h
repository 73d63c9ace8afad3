// Workload definitions and the seeded request generator of the end-to-end
// benchmark. Every request carries the verdict it must produce, fixed when
// the request is built (the verdict oracle): existing keys execute, missing
// keys and duplicate keys conflict, keyless inserts are invalid.
#ifndef UFILTER_PERFBENCH_WORKLOAD_H_
#define UFILTER_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "net/frame.h"

namespace perfbench {

/// What a request does to the chain view, which fixes its verdict.
enum class Kind : uint8_t {
  kDeleteHit,      // DELETE an existing element: executed, cascades
  kDeleteMiss,     // DELETE a missing key: executed with 0 rows
  kReplaceHit,     // REPLACE the value leaf of an existing element
  kReplaceMiss,    // REPLACE under a missing key: data conflict
  kInsertDup,      // INSERT an element whose key exists: data conflict
  kInsertKeyless,  // INSERT an element without its key: invalid
};

const char* KindName(Kind k);

struct Request {
  std::string text;
  bool apply = false;
  Kind kind = Kind::kDeleteHit;
  ufilter::net::Verdict expect = ufilter::net::Verdict::kExecuted;
  int64_t expect_rows = 0;
};

struct WorkloadSpec {
  std::string name;
  int depth = 3;
  int rows = 64;
  /// Offered check rate of the fixed-rate window (requests/s).
  double check_rate = 0;
  /// Offered apply rate (requests/s) on the dedicated apply connection.
  double apply_rate = 0;
  /// true: applies run beside the checks in every window (mixed_replicated);
  /// false: applies run in their own window after the check windows.
  bool concurrent_applies = false;
  /// Check-only texts come from a fixed pool of this many (0 = every text
  /// distinct: keys and levels drawn without replacement).
  int hot_texts = 0;
  /// check p99 limit of the capacity ladder (microseconds).
  double check_limit_us = 0;
  /// Shares of the run's --seconds given to the fixed-rate window, the
  /// capacity ladder and (non-concurrent workloads) the apply window.
  double fixed_share = 0, ladder_share = 0, apply_share = 0;
  /// Number of checks / applies the traced replay takes from the streams.
  int trace_checks = 0;
  int trace_applies = 0;
};

/// The three workloads, or nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// The capacity ladder: rung k offers check_rate * 2^(k/16) checks/s.
inline constexpr int kLadderStepsPerOctave = 16;
double LadderRate(const WorkloadSpec& w, int rung);

/// Seeded request stream of one workload. The check and apply streams have
/// independent generators, so the prefix the traced replay takes equals the
/// one the wire run sends for the same seed.
class RequestSource {
 public:
  RequestSource(const WorkloadSpec& w, uint64_t seed);

  Request NextCheck();
  /// Existing-key value REPLACE with a fresh value: publishes one epoch.
  Request NextApply();

  /// The fixed text pool (empty for distinct-text workloads).
  const std::vector<Request>& pool() const { return pool_; }

 private:
  Request Build(Kind kind, int level, int64_t key, const std::string& tag);

  const WorkloadSpec& w_;
  std::mt19937_64 check_rng_;
  std::mt19937_64 apply_rng_;
  std::vector<Request> pool_;
  /// Without-replacement draw order of (level, key) for distinct texts.
  std::vector<std::pair<int, int64_t>> order_;
  size_t next_ = 0;
  uint64_t cycle_ = 0;
  uint64_t applies_ = 0;
  uint64_t seed_;
};

/// Seed of one named arrival stream of a run (the wire run and the traced
/// replay derive the same streams from the run's seed).
uint64_t StreamSeed(uint64_t seed, const char* stream);

/// Poisson arrivals at `rate`/s over [0, duration_s), in ns offsets.
std::vector<int64_t> PoissonDueTimes(double rate, double duration_s,
                                     uint64_t seed);

}  // namespace perfbench

#endif  // UFILTER_PERFBENCH_WORKLOAD_H_
