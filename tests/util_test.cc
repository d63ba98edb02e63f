// Unit and property tests for src/util: Status/Result, MPMC queue, buffer
// pool, RNG, stopwatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/buffer_pool.h"
#include "src/util/logging.h"
#include "src/util/macros.h"
#include "src/util/mpmc_queue.h"
#include "src/util/result.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/stopwatch.h"
#include "tests/test_util.h"

namespace smol {
namespace {

// --- Status / Result ---------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad width");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad width");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad width");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Cancelled("x").code(), StatusCode::kCancelled);
  EXPECT_EQ(Status::Infeasible("x").code(), StatusCode::kInfeasible);
}

TEST(StatusTest, CopyIsCheapAndEqualityWorks) {
  Status a = Status::Corruption("bitstream");
  Status b = a;  // shared state
  EXPECT_EQ(a, b);
  EXPECT_EQ(b.message(), "bitstream");
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

Status UseParsePositive(int v, int* out) {
  SMOL_ASSIGN_OR_RETURN(*out, ParsePositive(v));
  return Status::OK();
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 5);
  EXPECT_EQ(*r, 5);
  EXPECT_EQ(r.ValueOr(-1), 5);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-2);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_OK(UseParsePositive(3, &out));
  EXPECT_EQ(out, 3);
  Status s = UseParsePositive(-1, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(9);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> p = std::move(r).MoveValue();
  EXPECT_EQ(*p, 9);
}

// --- MpmcQueue ----------------------------------------------------------------

TEST(MpmcQueueTest, FifoSingleThread) {
  MpmcQueue<int> q(4);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_TRUE(q.Push(3));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_EQ(q.Pop().value(), 3);
}

TEST(MpmcQueueTest, TryPushRespectsCapacity) {
  MpmcQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
  q.Pop();
  EXPECT_TRUE(q.TryPush(3));
}

TEST(MpmcQueueTest, CloseDrainsThenEnds) {
  MpmcQueue<int> q(4);
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_FALSE(q.Push(3));
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(MpmcQueueTest, ConcurrentProducersConsumersDeliverEverythingOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2000;
  MpmcQueue<int> q(64);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  std::mutex seen_mutex;
  std::set<int> seen;
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto item = q.Pop()) {
        std::lock_guard<std::mutex> lock(seen_mutex);
        const bool inserted = seen.insert(*item).second;
        ASSERT_TRUE(inserted) << "duplicate item " << *item;
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(seen.size(), static_cast<size_t>(kProducers * kPerProducer));
}

TEST(MpmcQueueTest, BlockedConsumersWakeOnClose) {
  MpmcQueue<int> q(4);
  std::thread consumer([&] {
    auto item = q.Pop();
    EXPECT_FALSE(item.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  consumer.join();
}

// --- BufferPool ------------------------------------------------------------------

TEST(BufferPoolTest, ReusesReturnedBuffers) {
  BufferPool pool;
  auto b1 = pool.Get(1000);
  const uint8_t* ptr = b1->data.data();
  pool.Put(std::move(b1));
  auto b2 = pool.Get(900);  // same bucket (4 KiB)
  EXPECT_EQ(b2->data.data(), ptr);
  EXPECT_EQ(b2->reuse_count, 1u);
  auto stats = pool.stats();
  EXPECT_EQ(stats.allocations, 1u);
  EXPECT_EQ(stats.reuses, 1u);
}

TEST(BufferPoolTest, DisabledReuseAlwaysAllocates) {
  BufferPool::Options opts;
  opts.enable_reuse = false;
  BufferPool pool(opts);
  auto b1 = pool.Get(1000);
  pool.Put(std::move(b1));
  auto b2 = pool.Get(1000);
  EXPECT_EQ(b2->reuse_count, 0u);
  EXPECT_EQ(pool.stats().allocations, 2u);
  EXPECT_EQ(pool.stats().reuses, 0u);
}

TEST(BufferPoolTest, PinFlagFollowsOptions) {
  BufferPool::Options opts;
  opts.pin_buffers = false;
  BufferPool pool(opts);
  EXPECT_FALSE(pool.Get(16)->pinned);
  BufferPool pinned_pool;
  EXPECT_TRUE(pinned_pool.Get(16)->pinned);
}

TEST(BufferPoolTest, SizesAreExact) {
  BufferPool pool;
  for (size_t size : {1u, 100u, 4096u, 4097u, 1000000u}) {
    auto b = pool.Get(size);
    EXPECT_EQ(b->data.size(), size);
    pool.Put(std::move(b));
  }
}

TEST(BufferPoolTest, DifferentBucketsDoNotCrossReuse) {
  BufferPool pool;
  auto small = pool.Get(100);
  pool.Put(std::move(small));
  auto large = pool.Get(100000);
  EXPECT_EQ(large->reuse_count, 0u);  // not served from the small bucket
}

TEST(BufferPoolTest, BucketSaturatesOnHugeSizes) {
  // Power-of-two doubling overflows for sizes past SIZE_MAX/2; the bucket
  // computation must saturate to an exact-size class instead of spinning.
  EXPECT_EQ(BufferPool::Bucket(0), 4096u);
  EXPECT_EQ(BufferPool::Bucket(1), 4096u);
  EXPECT_EQ(BufferPool::Bucket(4096), 4096u);
  EXPECT_EQ(BufferPool::Bucket(4097), 8192u);
  const size_t max_size = std::numeric_limits<size_t>::max();
  const size_t huge = max_size / 2 + 12345;  // not reachable by doubling
  EXPECT_EQ(BufferPool::Bucket(huge), huge);
  EXPECT_EQ(BufferPool::Bucket(max_size), max_size);
}

TEST(BufferPoolTest, BytesAllocatedIncludesOverallocation) {
  BufferPool::Options opts;
  opts.overallocation_factor = 1.5;
  BufferPool pool(opts);
  auto b = pool.Get(4096);
  // The §6.1 overallocation headroom must be accounted, not just the bucket.
  EXPECT_GE(b->data.capacity(), static_cast<size_t>(4096 * 1.5));
  EXPECT_GE(pool.stats().bytes_allocated, static_cast<uint64_t>(4096 * 1.5));
}

TEST(BufferPoolTest, PerBucketCapTrimsExcessReturns) {
  BufferPool::Options opts;
  opts.max_free_per_bucket = 4;
  BufferPool pool(opts);
  std::vector<std::unique_ptr<PooledBuffer>> live;
  for (int i = 0; i < 16; ++i) live.push_back(pool.Get(1000));
  for (auto& b : live) pool.Put(std::move(b));
  const auto stats = pool.stats();
  EXPECT_EQ(stats.returns, 16u);
  EXPECT_EQ(stats.trims, 12u);  // only 4 pooled, the rest freed
  EXPECT_GT(stats.bytes_pooled, 0u);
}

TEST(BufferPoolTest, TotalByteCapBoundsIdleMemoryAcrossBuckets) {
  BufferPool::Options opts;
  opts.max_pool_bytes = 64 * 1024;
  opts.max_free_per_bucket = 0;  // only the byte cap applies
  BufferPool pool(opts);
  // Churn many size classes; idle (pooled) memory must stay under the cap.
  for (size_t size : {1000u, 5000u, 17000u, 33000u, 70000u}) {
    for (int i = 0; i < 8; ++i) {
      pool.Put(pool.Get(size));
    }
  }
  const auto stats = pool.stats();
  EXPECT_LE(stats.bytes_pooled, 64u * 1024u);
  EXPECT_GT(stats.trims, 0u);
}

TEST(BufferPoolTest, PinnedFlagSurvivesReuse) {
  BufferPool pool;  // pinned by default
  auto b = pool.Get(2048);
  ASSERT_TRUE(b->pinned);
  pool.Put(std::move(b));
  auto reused = pool.Get(2048);
  EXPECT_EQ(reused->reuse_count, 1u);
  EXPECT_TRUE(reused->pinned);  // registration survives the free list
}

// --- Concurrency stress ------------------------------------------------------

// Producer and consumer threads hammer a small MpmcQueue;
// every pushed item must be popped exactly once. (Ordering across consumers is
// not observable: Pop and the recording of the result are not one atomic step.)
TEST(ConcurrencyStressTest, MpmcQueueDeliversExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 5000;
  MpmcQueue<std::pair<int, int>> q(8);  // tiny capacity maximizes contention

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push({p, i}));
      }
    });
  }

  std::mutex seen_mutex;
  std::vector<std::vector<int>> seen(kProducers);
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto item = q.Pop()) {
        std::lock_guard<std::mutex> lock(seen_mutex);
        seen[item->first].push_back(item->second);
      }
    });
  }

  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();

  for (int p = 0; p < kProducers; ++p) {
    ASSERT_EQ(seen[p].size(), static_cast<size_t>(kPerProducer));
    std::set<int> unique(seen[p].begin(), seen[p].end());
    EXPECT_EQ(unique.size(), static_cast<size_t>(kPerProducer))
        << "producer " << p << " items duplicated or lost";
  }
}

// With a single consumer, per-producer FIFO order IS observable: the queue
// removes under one lock and only one thread records, so each producer's
// sequence numbers must arrive strictly increasing.
TEST(ConcurrencyStressTest, SingleConsumerObservesPerProducerFifo) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 3000;
  MpmcQueue<std::pair<int, int>> q(8);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push({p, i}));
      }
    });
  }
  std::vector<std::vector<int>> seen(kProducers);
  std::thread consumer([&] {
    while (auto item = q.Pop()) {
      seen[item->first].push_back(item->second);
    }
  });
  for (auto& t : producers) t.join();
  q.Close();
  consumer.join();

  for (int p = 0; p < kProducers; ++p) {
    ASSERT_EQ(seen[p].size(), static_cast<size_t>(kPerProducer));
    EXPECT_TRUE(std::is_sorted(seen[p].begin(), seen[p].end()))
        << "producer " << p << " items reordered";
  }
}

// Many threads concurrently Get/Put mixed sizes from one BufferPool. Checks:
// no buffer is ever handed to two holders at once (each holder stamps a
// unique tag into the buffer and verifies it survives the critical section),
// sizes are exact, and the stats counters are consistent with the traffic.
TEST(ConcurrencyStressTest, BufferPoolNoAliasedHandouts) {
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 2000;
  const size_t kSizes[] = {64, 1000, 4096, 70000};
  BufferPool pool;
  std::atomic<uint32_t> tag_source{1};

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(1234 + t);
      for (int i = 0; i < kItersPerThread; ++i) {
        const size_t size = kSizes[rng.UniformInt(0, 3)];
        auto buf = pool.Get(size);
        ASSERT_EQ(buf->data.size(), size);
        const uint32_t tag = tag_source.fetch_add(1);
        // Stamp the whole first word; another holder of the same allocation
        // would overwrite it before we re-check below.
        std::memcpy(buf->data.data(), &tag, sizeof(tag));
        // Widen the stamp->recheck window with seq_cst RMWs: full barriers
        // like a fence, but modeled by TSan (GCC warns that standalone
        // atomic_thread_fence is unsupported under -fsanitize=thread).
        for (int spin = 0; spin < 50; ++spin) {
          tag_source.fetch_add(0, std::memory_order_seq_cst);
        }
        uint32_t readback = 0;
        std::memcpy(&readback, buf->data.data(), sizeof(readback));
        ASSERT_EQ(readback, tag) << "buffer aliased between two holders";
        pool.Put(std::move(buf));
      }
    });
  }
  for (auto& t : workers) t.join();

  const auto stats = pool.stats();
  const uint64_t total = static_cast<uint64_t>(kThreads) * kItersPerThread;
  EXPECT_EQ(stats.allocations + stats.reuses, total);
  EXPECT_EQ(stats.returns, total);
  EXPECT_GT(stats.reuses, 0u);  // reuse must actually kick in under churn
}

// Producers Get buffers from a shared pool, send them through the queue, and
// consumers return them — the engine's actual producer/consumer buffer flow.
TEST(ConcurrencyStressTest, BufferPoolThroughMpmcQueuePipeline) {
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 1500;
  BufferPool pool;
  MpmcQueue<std::unique_ptr<PooledBuffer>> q(16);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(99 + p);
      for (int i = 0; i < kPerProducer; ++i) {
        auto buf = pool.Get(static_cast<size_t>(rng.UniformInt(1, 8192)));
        buf->data[0] = static_cast<uint8_t>(p);
        ASSERT_TRUE(q.Push(std::move(buf)));
      }
    });
  }
  std::atomic<int> consumed{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto buf = q.Pop()) {
        ASSERT_LT((*buf)->data[0], kProducers);
        pool.Put(std::move(*buf));
        consumed.fetch_add(1);
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  EXPECT_EQ(pool.stats().returns,
            static_cast<uint64_t>(kProducers) * kPerProducer);
}

// --- Rng ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) same++;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(10);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalHasRoughlyCorrectMoments) {
  Rng rng(11);
  double sum = 0, sum2 = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.Normal(5.0, 2.0);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / kN;
  const double var = sum2 / kN - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

// --- Stopwatch / BusyWork ------------------------------------------------------------

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  BusyWorkMicros(2000);
  const double us = sw.ElapsedMicros();
  EXPECT_GT(us, 500.0);  // loose lower bound; CI machines vary
}

TEST(BusyWorkTest, ScalesRoughlyLinearly) {
  BusyWorkCalibration();  // warm up calibration
  // Preemption only ever lengthens a wall-clock sample, so each duration is
  // the fastest of several: a busy host cannot inflate the short one alone.
  auto fastest_us = [](double micros) {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 5; ++rep) {
      Stopwatch sw;
      BusyWorkMicros(micros);
      best = std::min(best, sw.ElapsedMicros());
    }
    return best;
  };
  const double t1 = fastest_us(1000);
  const double t8 = fastest_us(8000);
  EXPECT_GT(t8, t1 * 3.0);  // very loose: 8x work should take >3x time
}

// --- Logging ---------------------------------------------------------------------------

TEST(LoggingTest, LevelFiltering) {
  const LogLevel prev = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SMOL_LOG(kInfo) << "should be suppressed";
  SetLogLevel(prev);
}

}  // namespace
}  // namespace smol
