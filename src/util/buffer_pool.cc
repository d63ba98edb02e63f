#include "src/util/buffer_pool.h"

#include <limits>

namespace smol {

BufferPool::BufferPool() : BufferPool(Options()) {}

BufferPool::BufferPool(Options options) : options_(options) {}

size_t BufferPool::Bucket(size_t size) {
  // Round up to the next power of two, minimum 4 KiB, so resized requests of
  // similar magnitude hit the same free list. Once the next doubling would
  // overflow size_t the request gets an exact-size bucket — the loop must not
  // rely on `bucket <<= 1` ever reaching huge sizes (it wraps to 0).
  size_t bucket = 4096;
  while (bucket < size) {
    if (bucket > std::numeric_limits<size_t>::max() / 2) return size;
    bucket <<= 1;
  }
  return bucket;
}

size_t BufferPool::ReserveBytes(size_t size) const {
  if (!options_.enable_reuse) return size;
  const size_t bucket = Bucket(size);
  const double scaled =
      static_cast<double>(bucket) * options_.overallocation_factor;
  const size_t reserve =
      scaled >= static_cast<double>(std::numeric_limits<size_t>::max())
          ? bucket
          : static_cast<size_t>(scaled);
  return reserve < size ? size : reserve;
}

std::unique_ptr<PooledBuffer> BufferPool::Get(size_t size) {
  const size_t bucket = Bucket(size);
  const size_t reserve = ReserveBytes(size);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (options_.enable_reuse) {
      auto it = free_.find(bucket);
      if (it != free_.end() && !it->second.empty()) {
        auto buf = std::move(it->second.back());
        it->second.pop_back();
        stats_.bytes_pooled -= buf->data.capacity();
        buf->data.resize(size);
        buf->reuse_count++;
        stats_.reuses++;
        return buf;
      }
    }
    stats_.allocations++;
    stats_.bytes_allocated += reserve;
  }
  auto buf = std::make_unique<PooledBuffer>();
  buf->data.reserve(reserve);
  buf->data.resize(size);
  buf->pinned = options_.pin_buffers;
  buf->bucket = bucket;
  return buf;
}

void BufferPool::Put(std::unique_ptr<PooledBuffer> buffer) {
  if (buffer == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.returns++;
  if (!options_.enable_reuse) return;  // dropping the unique_ptr frees it
  const size_t bucket =
      buffer->bucket > 0 ? buffer->bucket : Bucket(buffer->data.size());
  const size_t capacity = buffer->data.capacity();
  auto& list = free_[bucket];
  const bool over_bucket_cap = options_.max_free_per_bucket > 0 &&
                               list.size() >= options_.max_free_per_bucket;
  const bool over_byte_cap =
      options_.max_pool_bytes > 0 &&
      stats_.bytes_pooled + capacity > options_.max_pool_bytes;
  if (over_bucket_cap || over_byte_cap) {
    stats_.trims++;
    return;  // freed, not pooled: idle memory stays bounded under churn
  }
  stats_.bytes_pooled += capacity;
  list.push_back(std::move(buffer));
}

BufferPoolStats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace smol
