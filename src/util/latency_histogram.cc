#include "src/util/latency_histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace smol {

namespace {

// Geometric bucket layout covering 1 µs .. kMaxUs with kNumBuckets buckets:
// bound(i) = kMaxUs^(i / (kNumBuckets - 1)), i.e. ~0.9% growth per bucket.
constexpr double kMaxUs = 1e8;  // 100 seconds

double Growth() {
  static const double g =
      std::log(kMaxUs) / (LatencyHistogram::kNumBuckets - 1);
  return g;
}

/// Nearest-rank quantile over one consistent copy of the bucket counts.
double PercentileFromCounts(
    const std::array<uint64_t, LatencyHistogram::kNumBuckets>& counts,
    uint64_t total, double q) {
  if (total == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(q * total)));
  uint64_t cumulative = 0;
  for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    cumulative += counts[i];
    if (cumulative >= rank) return std::exp(Growth() * i);
  }
  return std::exp(Growth() * (LatencyHistogram::kNumBuckets - 1));
}

}  // namespace

LatencyHistogram::LatencyHistogram()
    : count_(0), sum_us_(0),
      min_us_(std::numeric_limits<uint64_t>::max()), max_us_(0) {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

int LatencyHistogram::BucketIndex(double micros) {
  if (!(micros > 1.0)) return 0;  // also catches NaN
  const int idx = static_cast<int>(std::lround(std::log(micros) / Growth()));
  return std::min(std::max(idx, 0), kNumBuckets - 1);
}

void LatencyHistogram::Record(double micros) {
  if (micros < 0.0 || std::isnan(micros)) micros = 0.0;
  buckets_[BucketIndex(micros)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t rounded = static_cast<uint64_t>(std::llround(micros));
  sum_us_.fetch_add(rounded, std::memory_order_relaxed);
  uint64_t observed = min_us_.load(std::memory_order_relaxed);
  while (rounded < observed &&
         !min_us_.compare_exchange_weak(observed, rounded,
                                        std::memory_order_relaxed)) {
  }
  observed = max_us_.load(std::memory_order_relaxed);
  while (rounded > observed &&
         !max_us_.compare_exchange_weak(observed, rounded,
                                        std::memory_order_relaxed)) {
  }
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  uint64_t added = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    const uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n == 0) continue;
    buckets_[i].fetch_add(n, std::memory_order_relaxed);
    added += n;
  }
  if (added == 0) return;
  count_.fetch_add(added, std::memory_order_relaxed);
  sum_us_.fetch_add(other.sum_us_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  const uint64_t other_min = other.min_us_.load(std::memory_order_relaxed);
  uint64_t observed = min_us_.load(std::memory_order_relaxed);
  while (other_min < observed &&
         !min_us_.compare_exchange_weak(observed, other_min,
                                        std::memory_order_relaxed)) {
  }
  const uint64_t other_max = other.max_us_.load(std::memory_order_relaxed);
  observed = max_us_.load(std::memory_order_relaxed);
  while (other_max > observed &&
         !max_us_.compare_exchange_weak(observed, other_max,
                                        std::memory_order_relaxed)) {
  }
}

double LatencyHistogram::PercentileUs(double q) const {
  std::array<uint64_t, kNumBuckets> counts;
  uint64_t total = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  return PercentileFromCounts(counts, total, q);
}

LatencyHistogram::Snapshot LatencyHistogram::TakeSnapshot() const {
  // One copy of the buckets feeds every quantile, so a snapshot taken under
  // live traffic is internally consistent (p50 <= p90 <= p99 <= p999 always
  // holds even while Records land concurrently).
  std::array<uint64_t, kNumBuckets> counts;
  uint64_t total = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  Snapshot s;
  s.count = total;
  if (total == 0) return s;
  s.mean_us = static_cast<double>(sum_us_.load(std::memory_order_relaxed)) /
              static_cast<double>(total);
  s.min_us = static_cast<double>(min_us_.load(std::memory_order_relaxed));
  s.max_us = static_cast<double>(max_us_.load(std::memory_order_relaxed));
  s.p50_us = PercentileFromCounts(counts, total, 0.50);
  s.p90_us = PercentileFromCounts(counts, total, 0.90);
  s.p99_us = PercentileFromCounts(counts, total, 0.99);
  s.p999_us = PercentileFromCounts(counts, total, 0.999);
  return s;
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_us_.store(0, std::memory_order_relaxed);
  min_us_.store(std::numeric_limits<uint64_t>::max(),
                std::memory_order_relaxed);
  max_us_.store(0, std::memory_order_relaxed);
}

}  // namespace smol
