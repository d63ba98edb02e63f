// Tests for src/util/tensor_cache.h: the content-addressed cache of plan
// prefixes (hit/miss accounting, LRU eviction under a byte budget,
// frequency-aware admission, release of evicted images, and concurrent
// access).
#include "src/util/tensor_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/codec/image.h"
#include "src/util/buffer_pool.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace smol {
namespace {

TensorCache::Key MakeKey(uint64_t content, uint64_t plan = 7) {
  TensorCache::Key key;
  key.content_hash = content;
  key.plan_fingerprint = plan;
  return key;
}

// A cached value whose suffix writes `floats` floats, held in an image of
// floats x 4 bytes. The tests put it at that charge, the f32 tensor's bytes.
CachedImage MakeTensor(size_t floats, uint8_t fill = 0) {
  auto image =
      std::make_shared<Image>(static_cast<int>(floats * sizeof(float)), 1, 1);
  std::memset(image->data(), fill, image->size_bytes());
  CachedImage value;
  value.image = std::move(image);
  value.float_count = floats;
  return value;
}

TEST(TensorCacheTest, MissThenHit) {
  TensorCache cache(TensorCache::Options{});
  const auto key = MakeKey(1);
  EXPECT_FALSE(cache.Get(key).has_value());
  cache.Put(key, MakeTensor(16, 0xAB), 64);
  auto hit = cache.Get(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->float_count, 16u);
  EXPECT_EQ(hit->image->data()[0], 0xAB);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(TensorCacheTest, KeyIsContentTimesPlan) {
  TensorCache cache(TensorCache::Options{});
  cache.Put(MakeKey(1, /*plan=*/7), MakeTensor(8), 32);
  // Same content under a different plan fingerprint is a different tensor.
  EXPECT_FALSE(cache.Get(MakeKey(1, /*plan=*/8)).has_value());
  // Different content under the same plan likewise.
  EXPECT_FALSE(cache.Get(MakeKey(2, /*plan=*/7)).has_value());
  EXPECT_TRUE(cache.Get(MakeKey(1, /*plan=*/7)).has_value());
}

TEST(TensorCacheTest, HitReturnsSharedBufferNotACopy) {
  TensorCache cache(TensorCache::Options{});
  auto value = MakeTensor(32, 0x5A);
  const uint8_t* bytes = value.image->data();
  cache.Put(MakeKey(3), std::move(value), 128);
  auto hit = cache.Get(MakeKey(3));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->image->data(), bytes);  // same allocation, zero copy
}

TEST(TensorCacheTest, ReplacingSameKeyKeepsOneEntry) {
  TensorCache cache(TensorCache::Options{});
  cache.Put(MakeKey(4), MakeTensor(16, 1), 64);
  cache.Put(MakeKey(4), MakeTensor(16, 2), 64);
  auto hit = cache.Get(MakeKey(4));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->image->data()[0], 2);  // newest value wins
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(TensorCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  // One shard so recency is globally ordered; budget fits ~4 tensors of
  // 1 KiB (+ per-entry overhead).
  TensorCache::Options options;
  options.shards = 1;
  options.capacity_bytes = 5000;
  TensorCache cache(options);
  const size_t floats = 256;  // 1 KiB each
  for (uint64_t i = 0; i < 4; ++i) {
    cache.Put(MakeKey(i), MakeTensor(floats), floats * sizeof(float));
  }
  // Touch key 0 so key 1 is now the LRU entry.
  ASSERT_TRUE(cache.Get(MakeKey(0)).has_value());
  cache.Put(MakeKey(99), MakeTensor(floats), floats * sizeof(float));
  EXPECT_TRUE(cache.Get(MakeKey(0)).has_value());   // recently used: kept
  EXPECT_FALSE(cache.Get(MakeKey(1)).has_value());  // LRU: evicted
  EXPECT_TRUE(cache.Get(MakeKey(99)).has_value());
  const auto stats = cache.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.bytes_cached, 5000u);
}

TEST(TensorCacheTest, ReplacingWithLargerValueRespectsBudget) {
  // Four 1 KiB tensors (1,152 B charged each) fill 4,608 of 5,000 bytes.
  // Replacing one with 3 KiB (3,200 B) must evict the two LRU others.
  TensorCache::Options options;
  options.shards = 1;
  options.capacity_bytes = 5000;
  TensorCache cache(options);
  for (uint64_t i = 0; i < 4; ++i) cache.Put(MakeKey(i), MakeTensor(256), 1024);
  cache.Put(MakeKey(0), MakeTensor(768, 0x3C), 3072);
  auto stats = cache.stats();
  EXPECT_LE(stats.bytes_cached, 5000u);
  EXPECT_EQ(stats.bytes_cached, 3200u + 1152u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 2u);
  auto replaced = cache.Get(MakeKey(0));
  ASSERT_TRUE(replaced.has_value());
  EXPECT_EQ(replaced->float_count, 768u);
  EXPECT_EQ(replaced->image->data()[0], 0x3C);
  EXPECT_FALSE(cache.Get(MakeKey(1)).has_value());  // LRU: evicted
  EXPECT_FALSE(cache.Get(MakeKey(2)).has_value());  // next LRU: evicted
  EXPECT_TRUE(cache.Get(MakeKey(3)).has_value());
}

TEST(TensorCacheTest, OversizedValuesAreRejectedNotCached) {
  TensorCache::Options options;
  options.shards = 1;
  options.capacity_bytes = 1024;
  TensorCache cache(options);
  cache.Put(MakeKey(5), MakeTensor(4096), 16384);  // 16 KiB > budget
  EXPECT_FALSE(cache.Get(MakeKey(5)).has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes_cached, 0u);
}

// Put builds its value only for an insert it admits: a Put refused by
// admission or rejected as oversized never runs the builder, so the server
// copies no image for it.
TEST(TensorCacheTest, RefusedPutBuildsNoValue) {
  TensorCache::Options options;
  options.shards = 1;
  options.capacity_bytes = 2 * (1024 + 128);  // two 1 KiB entries
  TensorCache cache(options);
  int built = 0;
  auto builder = [&built] {
    ++built;
    return MakeTensor(256);
  };
  // Two hot keys fill the cache; each is built once.
  for (int round = 0; round < 4; ++round) {
    for (uint64_t k = 0; k < 2; ++k) {
      if (!cache.Get(MakeKey(k)).has_value()) {
        cache.Put(MakeKey(k), 1024, builder);
      }
    }
  }
  EXPECT_EQ(built, 2);
  // A key looked up once must evict a hotter one: refused, never built.
  EXPECT_FALSE(cache.Get(MakeKey(9)).has_value());
  cache.Put(MakeKey(9), 1024, builder);
  // An oversized entry: rejected, never built.
  cache.Put(MakeKey(10), 1 << 20, builder);
  EXPECT_EQ(built, 2);
  auto stats = cache.stats();
  EXPECT_EQ(stats.not_admitted, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.insertions, 2u);
  // Replacing a resident key builds the new value.
  cache.Put(MakeKey(0), 1024, builder);
  EXPECT_EQ(built, 3);
  stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.insertions, 2u);
}

TEST(TensorCacheTest, CapacityEnforcedAcrossManyInsertions) {
  TensorCache::Options options;
  options.shards = 4;
  options.capacity_bytes = 64 * 1024;
  TensorCache cache(options);
  for (uint64_t i = 0; i < 512; ++i) {
    cache.Put(MakeKey(i), MakeTensor(512), 2048);  // 2 KiB each, 1 MiB total
  }
  const auto stats = cache.stats();
  EXPECT_LE(stats.bytes_cached, 64u * 1024u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.entries, 0u);
}

TEST(TensorCacheTest, EntriesAreReleasedWhenCacheEvicts) {
  // Each image must be freed once the cache drops it, on eviction or when
  // the cache itself goes. Charged as the server charges a 2 KiB image:
  // what a pooled staging buffer of that size reserves.
  const size_t charge = BufferPool().ReserveBytes(2048);
  int released = 0;
  TensorCache::Options options;
  options.shards = 1;
  options.capacity_bytes = 8 * 1024;
  auto cache = std::make_unique<TensorCache>(options);
  for (uint64_t i = 0; i < 8; ++i) {
    CachedImage value;
    value.image = std::shared_ptr<const Image>(
        new Image(2048, 1, 1), [&released](const Image* image) {
          ++released;
          delete image;
        });
    value.float_count = 512;
    cache->Put(MakeKey(i), std::move(value), charge);
  }
  EXPECT_GT(released, 0);  // evicted entries released
  cache.reset();
  EXPECT_EQ(released, 8);  // the rest on cache destruction
}

// A hot set warmed by repeated lookups survives a scan of one-off keys four
// times the cache's size: each one-off key has been looked up once, less
// often than any hot LRU victim, so it is not admitted. Plain LRU would
// flush every hot key.
TEST(TensorCacheTest, OneOffScanDoesNotFlushHotKeys) {
  constexpr uint64_t kHot = 8;
  constexpr uint64_t kCapacityEntries = 16;
  constexpr uint64_t kScan = 4 * kCapacityEntries;
  TensorCache::Options options;
  options.shards = 1;
  options.capacity_bytes = kCapacityEntries * (1024 + 128);  // 1 KiB each
  TensorCache cache(options);
  for (int round = 0; round < 8; ++round) {
    for (uint64_t k = 0; k < kHot; ++k) {
      if (!cache.Get(MakeKey(k)).has_value()) {
        cache.Put(MakeKey(k), MakeTensor(256), 1024);
      }
    }
  }
  for (uint64_t k = 1000; k < 1000 + kScan; ++k) {
    ASSERT_FALSE(cache.Get(MakeKey(k)).has_value());
    cache.Put(MakeKey(k), MakeTensor(256), 1024);
  }
  for (uint64_t k = 0; k < kHot; ++k) {
    EXPECT_TRUE(cache.Get(MakeKey(k)).has_value()) << "hot key " << k;
  }
  const auto stats = cache.stats();
  EXPECT_GT(stats.not_admitted, 0u);
  EXPECT_LE(stats.bytes_cached, options.capacity_bytes);
}

// Zipf(1.0) over 2,048 keys through the default 8 shards at 32 MiB, at the
// serving benchmark's two entry charges. A rung-0 f32 tensor (85x85x3,
// 86,700 B) charged at its pooled 128 KiB bucket x 1.5 costs 196,608 B and
// 168 fit; the u8 image the plan's suffix reads (21,675 B), charged at its
// 32 KiB bucket x 1.5, costs 49,152 B and 680 fit. The most popular 168 keys
// would hit 0.695 of the time and the top 680 0.866; plain LRU reads
// 0.582-0.585 at 168 entries on these seeds, because one-off tail keys
// evict the head.
TEST(TensorCacheTest, ZipfTraceKeepsTheHead) {
  constexpr int kKeys = 2048;
  constexpr int kWarmup = 20000;
  constexpr int kMeasured = 100000;
  std::vector<double> cdf(kKeys);
  double total = 0.0;
  for (int k = 0; k < kKeys; ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    cdf[static_cast<size_t>(k)] = total;
  }
  // Every entry shares one image: the cache charges what the producer
  // declares and never reads the bytes, so the replay needs no 33 MB of
  // data.
  CachedImage value;
  value.image = std::make_shared<Image>(85, 85, 3);
  value.float_count = 85 * 85 * 3;
  struct Case {
    size_t charge;
    uint64_t entries;
    double min_hit_ratio;
  };
  for (const Case& c : {Case{196608, 168, 0.65}, Case{49152, 680, 0.83}}) {
    for (uint64_t seed : {1, 2, 3}) {
      TensorCache::Options options;
      options.capacity_bytes = 32ull << 20;
      TensorCache cache(options);
      Rng rng(seed);
      uint64_t hits = 0;
      for (int i = 0; i < kWarmup + kMeasured; ++i) {
        const double u = rng.UniformDouble() * total;
        const auto rank = static_cast<uint64_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        const auto key = MakeKey(std::min<uint64_t>(rank, kKeys - 1));
        if (cache.Get(key).has_value()) {
          if (i >= kWarmup) ++hits;
        } else {
          cache.Put(key, value, c.charge);
        }
      }
      const auto stats = cache.stats();
      EXPECT_EQ(stats.entries, c.entries)
          << "charge " << c.charge << " seed " << seed;
      const double hit_ratio =
          static_cast<double>(hits) / static_cast<double>(kMeasured);
      EXPECT_GE(hit_ratio, c.min_hit_ratio)
          << "charge " << c.charge << " seed " << seed;
    }
  }
}

TEST(TensorCacheTest, HashBytesIsStableAndSensitive) {
  const char a[] = "the quick brown fox";
  const char b[] = "the quick brown foy";
  EXPECT_EQ(TensorCache::HashBytes(a, sizeof(a)),
            TensorCache::HashBytes(a, sizeof(a)));
  EXPECT_NE(TensorCache::HashBytes(a, sizeof(a)),
            TensorCache::HashBytes(b, sizeof(b)));
  EXPECT_NE(TensorCache::HashBytes(a, sizeof(a) - 1),
            TensorCache::HashBytes(a, sizeof(a)));
  EXPECT_NE(TensorCache::HashCombine(1, 2), TensorCache::HashCombine(2, 1));
}

// Concurrent Get/Put over a shared key range from several threads: no
// crashes, no lost values, and the books stay consistent.
TEST(TensorCacheTest, ConcurrentGetPutFromThreads) {
  TensorCache::Options options;
  options.shards = 8;
  options.capacity_bytes = 256 * 1024;
  TensorCache cache(options);
  constexpr int kWorkers = 8;
  constexpr int kOpsPerWorker = 2000;
  constexpr uint64_t kKeySpace = 64;
  std::atomic<uint64_t> observed_hits{0};
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&cache, &observed_hits, w] {
      for (int i = 0; i < kOpsPerWorker; ++i) {
        const uint64_t k = static_cast<uint64_t>(w * 31 + i) % kKeySpace;
        if (auto hit = cache.Get(MakeKey(k))) {
          // A hit's payload must match its key (no cross-key aliasing).
          observed_hits.fetch_add(1);
          ASSERT_EQ(hit->image->data()[0], static_cast<uint8_t>(k));
        } else {
          cache.Put(MakeKey(k), MakeTensor(64, static_cast<uint8_t>(k)), 256);
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, observed_hits.load());
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kWorkers) * kOpsPerWorker);
  EXPECT_LE(stats.entries, kKeySpace);
  EXPECT_LE(stats.bytes_cached, options.capacity_bytes);
}

}  // namespace
}  // namespace smol
