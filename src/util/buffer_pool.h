// Reusable buffer pool with simulated pinned-memory registration.
//
// §6.1 / Appendix A: Smol allocates DNN-input and staging buffers once and
// reuses them across batches; buffers destined for the accelerator are pinned
// for fast DMA. On this substrate "pinning" is modelled: the pool tracks which
// buffers are registered as pinned, and the hardware transfer model
// (src/hw/transfer.h) charges a lower per-byte cost for pinned sources.
#ifndef SMOL_UTIL_BUFFER_POOL_H_
#define SMOL_UTIL_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace smol {

/// \brief A byte buffer handed out by BufferPool.
struct PooledBuffer {
  std::vector<uint8_t> data;
  bool pinned = false;
  /// Generation counter: how many times this allocation has been reused.
  uint64_t reuse_count = 0;
  /// Size class this buffer was allocated under (set by the pool).
  size_t bucket = 0;
};

/// \brief Statistics for observing allocator behaviour in tests/benches.
struct BufferPoolStats {
  uint64_t allocations = 0;  ///< Fresh allocations performed.
  uint64_t reuses = 0;       ///< Requests served from the free list.
  uint64_t returns = 0;      ///< Buffers returned to the pool.
  uint64_t trims = 0;        ///< Returned buffers freed to respect the caps.
  /// Bytes actually reserved by fresh allocations (includes the §6.1
  /// overallocation headroom, not just the rounded bucket size).
  uint64_t bytes_allocated = 0;
  /// Bytes currently held on the free lists (capacity, not logical size).
  uint64_t bytes_pooled = 0;
};

/// \brief Size-bucketed pool of reusable byte buffers.
///
/// With reuse disabled (the "- mem reuse" lesion in Fig. 7) every Get performs
/// a fresh allocation and Put frees, reproducing the allocation churn of
/// training-oriented loaders the paper contrasts against.
class BufferPool {
 public:
  struct Options {
    bool enable_reuse = true;  ///< Lesion toggle: serve from free lists.
    bool pin_buffers = true;   ///< Lesion toggle: register buffers as pinned.
    /// §6.1: over-allocate so producers do not contend with consumers.
    double overallocation_factor = 1.5;
    /// Caps on idle (free-list) memory: without them, size-class churn grows
    /// the pool without bound. A buffer returned past either cap is freed
    /// instead of pooled (counted in stats().trims). 0 = uncapped.
    size_t max_pool_bytes = 512ull << 20;  ///< total idle bytes across buckets
    size_t max_free_per_bucket = 64;       ///< idle buffers per size class
  };

  BufferPool();  // default options
  explicit BufferPool(Options options);

  /// Returns a buffer with at least \p size bytes (size() == \p size).
  std::unique_ptr<PooledBuffer> Get(size_t size);

  /// Returns \p buffer to the pool (or frees it when reuse is disabled or the
  /// free-list caps are reached).
  void Put(std::unique_ptr<PooledBuffer> buffer);

  /// Size class for \p size: next power of two, minimum 4 KiB, saturating at
  /// \p size itself once doubling would overflow (huge requests get an exact
  /// bucket instead of looping forever).
  static size_t Bucket(size_t size);

  /// Bytes a fresh Get(\p size) reserves: its bucket times the
  /// over-allocation factor with reuse on, \p size itself with reuse off.
  size_t ReserveBytes(size_t size) const;

  BufferPoolStats stats() const;
  const Options& options() const { return options_; }

 private:
  Options options_;
  mutable std::mutex mutex_;
  std::unordered_map<size_t, std::vector<std::unique_ptr<PooledBuffer>>> free_;
  BufferPoolStats stats_;
};

/// \brief A std::unique_ptr deleter that returns the buffer to \p pool,
/// which must outlive it.
struct PoolReturn {
  BufferPool* pool = nullptr;
  void operator()(PooledBuffer* buffer) const {
    pool->Put(std::unique_ptr<PooledBuffer>(buffer));
  }
};

}  // namespace smol

#endif  // SMOL_UTIL_BUFFER_POOL_H_
