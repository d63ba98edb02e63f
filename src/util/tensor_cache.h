// Content-addressed cache of preprocessing-plan prefixes.
//
// The realistic millions-of-users access pattern is heavily repeated content:
// hot images, shared video segments, thumbnails fetched by many requests. On
// the §6.1 memory path, the preprocessed representation of one input is a
// pure function of (encoded bytes, preprocessing plan) — so repeated-content
// traffic can skip decode by addressing what the plan made of it with
//
//   key = content hash (encoded bytes + ROI)  x  plan fingerprint
//
// following Anderson et al.'s physical-representation optimization: keep
// the cheapest materialized representation that still skips the costly
// step, keyed by content and the plan that produced it. Here the costly
// step is decode, so a value is not the f32 tensor but the u8 image the
// plan's float suffix reads: the output of ExecutePlanPrefix (decode, then
// crop and resize; preproc/graph.h). At the serving benchmark's rung 0 that
// is an 85x85x3 image of 21,675 B, against an f32 tensor of 86,700 B. A hit
// runs the plan's suffix (the fused convert-normalize-split) from the cached
// image into a fresh staging buffer, instead of staging the same cached
// bytes for every hit: it skips decode and the u8 steps for one tail pass.
//
// Values are shared, immutable images in exact-size allocations owned by
// the cache (`std::shared_ptr<const Image>`): a hit reads the bytes in place,
// and an entry's memory is freed when the cache and every reader that still
// holds it have dropped it.
//
// Charging: the producer declares each entry's charge, as LevelDB's
// Cache::Insert(key, value, charge, deleter) does, and the cache adds 128 B
// of bookkeeping per entry; it never reads the value to size it. The server
// charges what a staging-pool buffer of the image's size reserves
// (BufferPool::ReserveBytes: power-of-two bucket x 1.5), which keeps the
// budget's resident memory near what pooled f32 tensors would touch: a
// rung-0 image of 21,675 B is charged 49,152 + 128 B, and 32 MiB holds 680
// of them (~14.7 MB touched), where 168 rung-0 tensors in 196,608-B pooled
// buffers would touch ~14.6 MB. Charging the exact bytes would fit ~1,539
// entries and make nearly the whole budget resident.
//
// Concurrency: the cache is sharded by key hash; each shard is an LRU list +
// index behind its own mutex, with a per-shard byte budget (capacity_bytes /
// shards). Eviction is LRU within a shard. Entries larger than a shard's
// budget are rejected rather than evicting the entire shard.
//
// Admission (TinyLFU; Einziger et al., 2017): each shard also keeps a
// count-min sketch of how often each key was looked up recently (4 rows of
// 4-bit saturating counters, bumped by every Get, hit or miss, and halved
// every kSketchSampleFactor x resident-entries lookups so old popularity
// fades). A Put that fits in the budget is always admitted. A Put that would
// have to evict is admitted only when its key's estimate is at least the LRU
// victim's; otherwise the value is never built (counted in `not_admitted`):
// Put takes a function that builds it, run only for an admitted insert.
// Under zipf traffic this keeps the head resident instead of letting one-off
// keys from the tail evict it.
#ifndef SMOL_UTIL_TENSOR_CACHE_H_
#define SMOL_UTIL_TENSOR_CACHE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace smol {

class Image;

/// \brief One cached plan prefix: the u8 image a plan's float suffix reads.
struct CachedImage {
  std::shared_ptr<const Image> image;
  size_t float_count = 0;  ///< floats the plan's suffix writes from it
};

/// \brief Cumulative cache statistics.
struct TensorCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;     ///< LRU evictions to respect the byte budget
  uint64_t rejected = 0;      ///< inserts larger than a shard's budget
  uint64_t not_admitted = 0;  ///< inserts refused by frequency admission
  uint64_t bytes_cached = 0;
  uint64_t entries = 0;

  double hit_rate() const {
    const uint64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0.0;
  }
};

/// \brief Sharded LRU cache keyed by content hash x plan fingerprint.
class TensorCache {
 public:
  struct Key {
    uint64_t content_hash = 0;
    uint64_t plan_fingerprint = 0;

    bool operator==(const Key& other) const {
      return content_hash == other.content_hash &&
             plan_fingerprint == other.plan_fingerprint;
    }
  };

  struct Options {
    size_t capacity_bytes = 64ull << 20;  ///< byte budget across all shards
    int shards = 8;                       ///< concurrency sharding factor
  };

  explicit TensorCache(Options options);

  /// Looks \p key up, bumping its recency and its frequency estimate (hit or
  /// miss). Returns a shared reference to the cached image (no copy) or
  /// nullopt. Counted as hit/miss.
  std::optional<CachedImage> Get(const Key& key);

  /// Inserts the value \p make_value builds under \p key at \p charge bytes
  /// plus 128 B of bookkeeping, evicting LRU entries of the shard until its
  /// byte budget holds. An insert that must evict is admitted only when
  /// \p key's frequency estimate is at least the LRU victim's. Replaces an
  /// existing entry for the same key, evicting other entries if the new
  /// charge is larger. Oversized entries (> shard budget) are rejected.
  /// \p make_value runs (under the shard's lock) only for an insert that is
  /// admitted, so a refused one costs no copy.
  void Put(const Key& key, size_t charge,
           const std::function<CachedImage()>& make_value);

  /// The same for a value already built.
  void Put(const Key& key, CachedImage value, size_t charge) {
    Put(key, charge, [&value] { return std::move(value); });
  }

  /// Aggregated statistics across shards.
  TensorCacheStats stats() const;

  const Options& options() const { return options_; }

  /// FNV-1a over \p size bytes (word-at-a-time), seedable for chaining.
  static uint64_t HashBytes(const void* data, size_t size,
                            uint64_t seed = 0xcbf29ce484222325ull);

  /// Chains a single 64-bit value into a running hash (for small fields like
  /// ROI coordinates or plan-step arguments).
  static uint64_t HashCombine(uint64_t seed, uint64_t value);

 private:
  // Counters per sketch row. On a zipf(1.0) replay over 2,048 keys at
  // 32 MiB (8 shards; means of seeds 1-6), every width from 512 to 4,096
  // reads the same hit ratio at both serving entry charges: 0.6845 at 168
  // entries and 0.8522-0.8525 at 680. Narrower rows lose hits as collisions
  // lift tail keys to the estimates of head keys: 128 reads 0.682 and 0.845,
  // 64 reads 0.670 and 0.832. 512 sits at the plateau for 680 entries (256
  // reads 0.851) at 1 KiB per shard.
  static constexpr size_t kSketchWidth = 512;
  // The sketch halves its counters every kSketchSampleFactor x (resident
  // entries) lookups of its shard. On the same replay, at 168 and at 680
  // entries: 8 reads 0.643 and 0.832, 16 0.670 and 0.845, 32 0.6845 and
  // 0.852, 64 0.6850 and 0.854, 128 0.673 and 0.853, 256 0.658 and 0.852.
  // Short periods forget the head between halvings; long ones let the 4-bit
  // counters of the head and of the boundary keys saturate to the same
  // value. 32 is within 0.002 of the best at both sizes and adapts twice as
  // fast as 64.
  static constexpr uint64_t kSketchSampleFactor = 32;

  // Count-min sketch of recent lookup frequency: 4 rows of kSketchWidth
  // 4-bit saturating counters, sixteen to a 64-bit word.
  class FrequencySketch {
   public:
    void Increment(uint64_t key_hash);
    int Estimate(uint64_t key_hash) const;
    void Halve();

   private:
    static constexpr int kRows = 4;
    // Position of \p row's counter for a remixed key hash, across all rows.
    static size_t Counter(uint64_t mixed, int row);
    std::array<uint64_t, kRows * kSketchWidth / 16> words_{};
  };

  struct Entry {
    Key key;
    CachedImage value;
    size_t bytes = 0;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return static_cast<size_t>(TensorCache::KeyHashOf(k));
    }
  };
  struct Shard {
    std::mutex mutex;
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;
    size_t bytes = 0;
    FrequencySketch sketch;
    uint64_t sketch_samples = 0;  // lookups since the last halving
    TensorCacheStats stats;       // per-shard; aggregated by stats()
  };

  // Bookkeeping charged on top of each declared charge, so many tiny
  // entries cannot blow past the budget through metadata alone.
  static constexpr size_t kEntryOverhead = 128;

  static uint64_t KeyHashOf(const Key& key) {
    return HashCombine(key.content_hash, key.plan_fingerprint);
  }
  Shard& ShardFor(uint64_t key_hash);
  // Evicts LRU entries until the shard fits its budget. The entry just put
  // is at the front and fits alone, so it is never the one evicted.
  void EvictToFit(Shard& shard);

  Options options_;
  size_t shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace smol

#endif  // SMOL_UTIL_TENSOR_CACHE_H_
