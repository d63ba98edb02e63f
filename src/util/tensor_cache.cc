#include "src/util/tensor_cache.h"

#include <algorithm>
#include <cstring>

namespace smol {

TensorCache::TensorCache(Options options) : options_(options) {
  if (options_.shards <= 0) options_.shards = 1;
  if (options_.capacity_bytes == 0) options_.capacity_bytes = 1;
  shard_budget_ =
      std::max<size_t>(1, options_.capacity_bytes /
                              static_cast<size_t>(options_.shards));
  shards_.reserve(static_cast<size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

uint64_t TensorCache::HashBytes(const void* data, size_t size, uint64_t seed) {
  // FNV-1a, consumed 8 bytes at a time (each word folded through the usual
  // byte-sized multiply chain would cost 8 multiplies; one multiply per word
  // keeps hashing well under the cost of the decode it replaces).
  constexpr uint64_t kPrime = 0x100000001b3ull;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = seed;
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t word;
    std::memcpy(&word, p + i, 8);
    h = (h ^ word) * kPrime;
  }
  for (; i < size; ++i) {
    h = (h ^ p[i]) * kPrime;
  }
  // Final avalanche so short inputs spread across shards.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

uint64_t TensorCache::HashCombine(uint64_t seed, uint64_t value) {
  // Multiply the seed before folding the value in so the combiner is
  // order-sensitive: HashCombine(a, b) != HashCombine(b, a) in general
  // (a plain (seed ^ value) * prime would be symmetric).
  constexpr uint64_t kPrime = 0x100000001b3ull;
  uint64_t h = (seed * kPrime) ^ value;
  h *= kPrime;
  h ^= h >> 29;
  return h;
}

namespace {

// Murmur3's 64-bit finalizer. The shard index already used the key hash's
// low bits, so the sketch rows index from a fully remixed copy.
uint64_t Remix(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace

size_t TensorCache::FrequencySketch::Counter(uint64_t mixed, int row) {
  // Row r indexes from bits [16r, 16r + 16) of the remixed key hash.
  return static_cast<size_t>(row) * kSketchWidth +
         ((mixed >> (16 * row)) & (kSketchWidth - 1));
}

void TensorCache::FrequencySketch::Increment(uint64_t key_hash) {
  const uint64_t mixed = Remix(key_hash);
  for (int row = 0; row < kRows; ++row) {
    const size_t counter = Counter(mixed, row);
    uint64_t& word = words_[counter / 16];
    const int shift = static_cast<int>(counter % 16) * 4;
    if (((word >> shift) & 0xF) < 0xF) word += uint64_t{1} << shift;
  }
}

int TensorCache::FrequencySketch::Estimate(uint64_t key_hash) const {
  const uint64_t mixed = Remix(key_hash);
  int estimate = 0xF;
  for (int row = 0; row < kRows; ++row) {
    const size_t counter = Counter(mixed, row);
    const int shift = static_cast<int>(counter % 16) * 4;
    estimate = std::min(
        estimate, static_cast<int>((words_[counter / 16] >> shift) & 0xF));
  }
  return estimate;
}

void TensorCache::FrequencySketch::Halve() {
  // Shift every 4-bit counter right by one; the mask clears the bit each
  // counter would otherwise take from its neighbour.
  for (uint64_t& word : words_) word = (word >> 1) & 0x7777777777777777ull;
}

TensorCache::Shard& TensorCache::ShardFor(uint64_t key_hash) {
  return *shards_[static_cast<size_t>(key_hash % shards_.size())];
}

std::optional<CachedImage> TensorCache::Get(const Key& key) {
  const uint64_t key_hash = KeyHashOf(key);
  Shard& shard = ShardFor(key_hash);
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.sketch.Increment(key_hash);
  if (++shard.sketch_samples >=
      kSketchSampleFactor * std::max<uint64_t>(1, shard.lru.size())) {
    shard.sketch.Halve();
    shard.sketch_samples = 0;
  }
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    shard.stats.misses++;
    return std::nullopt;
  }
  shard.stats.hits++;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // bump recency
  return it->second->value;
}

void TensorCache::EvictToFit(Shard& shard) {
  while (shard.bytes > shard_budget_ && !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    shard.stats.evictions++;
  }
}

void TensorCache::Put(const Key& key, size_t charge,
                      const std::function<CachedImage()>& make_value) {
  const size_t bytes = charge + kEntryOverhead;
  const uint64_t key_hash = KeyHashOf(key);
  Shard& shard = ShardFor(key_hash);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (bytes > shard_budget_) {
    shard.stats.rejected++;
    return;
  }
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Replace in place (concurrent producers can race to insert one key).
    it->second->value = make_value();
    shard.bytes = shard.bytes - it->second->bytes + bytes;
    it->second->bytes = bytes;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    EvictToFit(shard);
    return;
  }
  // Admission: a key looked up less often than the LRU victim would only
  // displace a more popular entry, so it is not cached.
  if (shard.bytes + bytes > shard_budget_ && !shard.lru.empty() &&
      shard.sketch.Estimate(key_hash) <
          shard.sketch.Estimate(KeyHashOf(shard.lru.back().key))) {
    shard.stats.not_admitted++;
    return;
  }
  shard.lru.push_front(Entry{key, make_value(), bytes});
  shard.index.emplace(key, shard.lru.begin());
  shard.bytes += bytes;
  shard.stats.insertions++;
  EvictToFit(shard);
}

TensorCacheStats TensorCache::stats() const {
  TensorCacheStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.insertions += shard->stats.insertions;
    total.evictions += shard->stats.evictions;
    total.rejected += shard->stats.rejected;
    total.not_admitted += shard->stats.not_admitted;
    total.bytes_cached += shard->bytes;
    total.entries += shard->lru.size();
  }
  return total;
}

}  // namespace smol
