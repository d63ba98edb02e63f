// Lock-free-friendly latency histogram for the serving runtime.
//
// Completion threads record microsecond latencies into log-spaced buckets
// with relaxed atomic counters — no lock, no allocation, so recording from
// the consumer hot path costs a few nanoseconds. Queries (percentiles,
// snapshots) scan the bucket array; they are meant for stats reporting, not
// the hot path. Bucket bounds grow geometrically at ~0.9% per bucket across
// 1 µs .. 100 s, so percentile error is bounded by the bucket resolution.
#ifndef SMOL_UTIL_LATENCY_HISTOGRAM_H_
#define SMOL_UTIL_LATENCY_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstdint>

namespace smol {

/// \brief Concurrent histogram of latencies with percentile queries.
class LatencyHistogram {
 public:
  static constexpr int kNumBuckets = 2048;

  LatencyHistogram();

  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Records one sample (microseconds). Thread-safe, lock-free.
  void Record(double micros);

  /// \brief A consistent-enough copy of the distribution's key figures.
  ///
  /// Buckets are read without stopping writers, so a snapshot taken mid-run
  /// may trail concurrent Records by a few samples.
  struct Snapshot {
    uint64_t count = 0;
    double mean_us = 0.0;
    double min_us = 0.0;
    double max_us = 0.0;
    double p50_us = 0.0;
    double p90_us = 0.0;
    double p99_us = 0.0;
    double p999_us = 0.0;
  };
  Snapshot TakeSnapshot() const;

  /// The \p q quantile (q in [0, 1]) of recorded samples, up to bucket
  /// resolution. Returns 0 when empty.
  double PercentileUs(double q) const;

  /// Accumulates \p other's samples into this histogram. Buckets share one
  /// geometric layout, so the merge is an exact bucket-wise sum: percentiles
  /// of the merged histogram equal percentiles of the union of samples (up
  /// to bucket resolution). Safe against concurrent Record on either side;
  /// a merge under live traffic may trail in-flight records, like
  /// TakeSnapshot. The serving runtime rolls per-shard histograms into the
  /// fleet-wide ServerStats this way.
  void Merge(const LatencyHistogram& other);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Clears all samples. Not safe against concurrent Record.
  void Reset();

 private:
  static int BucketIndex(double micros);

  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_;
  std::atomic<uint64_t> count_;
  std::atomic<uint64_t> sum_us_;  // per-sample rounded; feeds the mean only
  std::atomic<uint64_t> min_us_;
  std::atomic<uint64_t> max_us_;
};

}  // namespace smol

#endif  // SMOL_UTIL_LATENCY_HISTOGRAM_H_
