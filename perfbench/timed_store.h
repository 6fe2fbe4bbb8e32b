#ifndef HM_PERFBENCH_TIMED_STORE_H_
#define HM_PERFBENCH_TIMED_STORE_H_

// Forwarding HyperStore used by traced runs: it counts the calls into
// the store under test and times each one, from the benchmark's side
// of the interface. The wrapper exposes exactly the optional
// capabilities (TraversalCapable, PipelinedCommitCapable,
// SupportsConcurrentReads) of the store it wraps, so a traced run
// takes the same code paths as an untraced one.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "hypermodel/store.h"
#include "telemetry/metrics.h"

namespace perfbench {

/// Call statistics of one wrapper. Safe to update from several
/// threads, for a store a server reads from concurrently.
class CallStats {
 public:
  /// Counts one call that took `ns` nanoseconds.
  void Record(uint64_t ns);
  void AddCommit(double us);
  /// Forgets everything recorded so far. Only while no call runs.
  void Reset();

  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  uint64_t busy_ns() const { return busy_ns_.load(std::memory_order_relaxed); }
  /// Per-call latencies in nanoseconds (Commit excluded).
  hm::telemetry::HistogramData Latencies() const;
  /// Duration of every Commit() in microseconds.
  std::vector<double> Commits() const;

 private:
  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> busy_ns_{0};
  std::array<std::atomic<uint64_t>, hm::telemetry::kNumBuckets> buckets_{};
  mutable std::mutex mu_;
  std::vector<double> commit_us_;
};

/// Wraps `inner` (not owned); `stats` must outlive the wrapper.
std::unique_ptr<hm::HyperStore> WrapTimed(hm::HyperStore* inner,
                                          CallStats* stats);

/// As above, taking ownership of `inner`.
std::unique_ptr<hm::HyperStore> WrapTimed(std::unique_ptr<hm::HyperStore> inner,
                                          CallStats* stats);

}  // namespace perfbench

#endif  // HM_PERFBENCH_TIMED_STORE_H_
