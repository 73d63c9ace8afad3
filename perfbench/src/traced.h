// The traced replay: the same seeded request prefix the wire run sends,
// replayed in-process on one thread against identically seeded fixtures,
// with a span around every call into a module's public API. It gives the
// per-layer numbers; the end-to-end runs stay untraced.
#ifndef UFILTER_PERFBENCH_TRACED_H_
#define UFILTER_PERFBENCH_TRACED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct LayerMetric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct TracedResult {
  std::vector<LayerMetric> metrics;
  /// Verdict mismatches and failed consistency checks over all passes.
  uint64_t failed = 0;
  std::vector<std::string> errors;
  /// Share of the root spans' time covered by their child spans.
  double coverage_pct = 0;
  std::string trace_path;
  /// Extra diagnostics for the result file, as a JSON object.
  std::string detail_json;
};

/// Runs the replays described in README.md; files go under `out_dir`.
TracedResult RunTraced(const WorkloadSpec& w, uint64_t seed,
                       const std::string& out_dir);

}  // namespace perfbench

#endif  // UFILTER_PERFBENCH_TRACED_H_
