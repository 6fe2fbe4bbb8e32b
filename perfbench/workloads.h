#ifndef HM_PERFBENCH_WORKLOADS_H_
#define HM_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: wrap the store in the timing wrapper and report the
  /// per-layer metrics instead of the end-to-end ones.
  bool trace = false;
  /// Scratch directory for databases; created and removed by the caller.
  std::string workdir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  /// Every answer of every operation that did not fail matched the
  /// reference model.
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics in untraced runs, per-layer ones in traced runs.
  std::vector<Metric> metrics;
  /// In traced runs, the end-to-end metrics as measured with tracing
  /// on; their difference from an untraced run is the tracing overhead.
  std::vector<Metric> end_to_end;
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload: set-up, then at least `options.seconds` of
/// measured work in whole rounds, checking every answer.
hm::util::Result<Outcome> RunWorkload(const Options& options);

/// Runs the §6 operations on a small in-memory database, checks that
/// every correct answer passes, then perturbs answers and checks that
/// each perturbation is rejected. Returns the number of failures.
int RunSelfTest();

}  // namespace perfbench

#endif  // HM_PERFBENCH_WORKLOADS_H_
