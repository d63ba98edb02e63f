// Micro-benchmarks (google-benchmark) for the hot paths: codecs, fused vs
// unfused preprocessing, MPMC queue, DCT, GEMM, resize, tensor cache, and the
// simulated device's per-batch wake-up. These are the ablation knobs
// DESIGN.md calls out, measured in isolation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "src/codec/color.h"
#include "src/codec/dct.h"
#include "src/codec/sjpg.h"
#include "src/codec/spng.h"
#include "src/data/synth_image.h"
#include "src/dnn/gemm.h"
#include "src/hw/sim_accelerator.h"
#include "src/preproc/fused.h"
#include "src/preproc/ops.h"
#include "src/preproc/resize.h"
#include "src/util/cpu_features.h"
#include "src/util/mpmc_queue.h"
#include "src/util/rng.h"
#include "src/util/tensor_cache.h"

namespace smol {
namespace {

Image BenchImage(int size) {
  SynthImageOptions opts;
  opts.width = size;
  opts.height = size;
  opts.num_classes = 4;
  return SynthImageGenerator(opts).Generate(0, 0);
}

void BM_SjpgEncode(benchmark::State& state) {
  const Image img = BenchImage(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto bytes = SjpgEncode(img, {.quality = 85});
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SjpgEncode)->Arg(64)->Arg(128)->Arg(256);

void BM_SjpgDecode(benchmark::State& state) {
  const Image img = BenchImage(static_cast<int>(state.range(0)));
  const auto bytes = SjpgEncode(img, {.quality = 85}).MoveValue();
  for (auto _ : state) {
    auto decoded = SjpgDecode(bytes);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SjpgDecode)->Arg(64)->Arg(128)->Arg(256);

// Header parsing alone: SjpgPeekHeader runs the decoder's whole
// ParseStream -- quant tables, the four Huffman tables and the row index.
void BM_SjpgPeekHeader(benchmark::State& state) {
  const Image img = BenchImage(static_cast<int>(state.range(0)));
  const auto bytes = SjpgEncode(img, {.quality = 85}).MoveValue();
  for (auto _ : state) {
    auto header = SjpgPeekHeader(bytes);
    benchmark::DoNotOptimize(header);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SjpgPeekHeader)->Arg(128);

// The decoder's colour stage: 4:2:0 YCbCr planes to interleaved RGB, into a
// reused image as SjpgDecodeInto runs it.
void BM_YccToRgb(benchmark::State& state) {
  const Ycbcr420 ycc =
      RgbToYcbcr420(BenchImage(static_cast<int>(state.range(0))));
  Image out;
  for (auto _ : state) {
    Ycbcr420ToRgbInto(ycc, &out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_YccToRgb)->Arg(128);

void ScaledDecode(benchmark::State& state, int denom) {
  const Image img = BenchImage(static_cast<int>(state.range(0)));
  const auto bytes = SjpgEncode(img, {.quality = 85}).MoveValue();
  SjpgDecodeOptions opts;
  opts.scale_denom = denom;
  for (auto _ : state) {
    auto decoded = SjpgDecode(bytes, opts);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}

// Reduced-resolution decode at denominator 2: the serving plan ladder's
// bottom rung, where entropy decoding is most of the cost.
void BM_SjpgDecodeScaled(benchmark::State& state) { ScaledDecode(state, 2); }
BENCHMARK(BM_SjpgDecodeScaled)->Arg(128);

// Denominators 4 and 8 (2x2 and DC-only inverse transforms): what is left
// is nearly all entropy decoding, the floor under every rung.
void BM_SjpgDecodeScaled4(benchmark::State& state) { ScaledDecode(state, 4); }
BENCHMARK(BM_SjpgDecodeScaled4)->Arg(128);
void BM_SjpgDecodeScaled8(benchmark::State& state) { ScaledDecode(state, 8); }
BENCHMARK(BM_SjpgDecodeScaled8)->Arg(128);

// 256 distinct inputs as the serving benchmark encodes them (8-class
// synthetic images, q85), built once per size.
const std::vector<std::vector<uint8_t>>& DistinctInputs(int size) {
  static std::vector<std::pair<int, std::vector<std::vector<uint8_t>>>> cache;
  for (const auto& [cached_size, inputs] : cache) {
    if (cached_size == size) return inputs;
  }
  SynthImageOptions opts;
  opts.width = size;
  opts.height = size;
  opts.num_classes = 8;
  const SynthImageGenerator generator(opts);
  std::vector<std::vector<uint8_t>> inputs;
  for (int i = 0; i < 256; ++i) {
    inputs.push_back(SjpgEncode(generator.Generate(i % 8, i), {.quality = 85})
                         .MoveValue());
  }
  return cache.emplace_back(size, std::move(inputs)).second;
}

// Decodes those inputs in rotation into one reused image, as a serving
// worker does. One repeated input lets the branch predictor learn its
// symbol sequence, so the rows above understate entropy decoding; these
// do not.
void DistinctDecode(benchmark::State& state, int denom) {
  const auto& inputs = DistinctInputs(static_cast<int>(state.range(0)));
  SjpgDecodeOptions opts;
  opts.scale_denom = denom;
  Image out;
  size_t next = 0;
  for (auto _ : state) {
    const Status status = SjpgDecodeInto(inputs[next], opts, &out);
    benchmark::DoNotOptimize(status);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    next = next + 1 == inputs.size() ? 0 : next + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
void BM_SjpgDecodeDistinct(benchmark::State& state) {
  DistinctDecode(state, 1);
}
BENCHMARK(BM_SjpgDecodeDistinct)->Arg(128);
void BM_SjpgDecodeDistinctScaled8(benchmark::State& state) {
  DistinctDecode(state, 8);
}
BENCHMARK(BM_SjpgDecodeDistinctScaled8)->Arg(128);

void BM_SjpgRoiDecode(benchmark::State& state) {
  const Image img = BenchImage(256);
  const auto bytes = SjpgEncode(img, {.quality = 85}).MoveValue();
  SjpgDecodeOptions opts;
  const int side = static_cast<int>(state.range(0));
  opts.roi = Roi::CenterCrop(256, 256, side, side);
  for (auto _ : state) {
    auto decoded = SjpgDecode(bytes, opts);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SjpgRoiDecode)->Arg(32)->Arg(64)->Arg(128);

void BM_SpngDecode(benchmark::State& state) {
  const Image img = BenchImage(static_cast<int>(state.range(0)));
  const auto bytes = SpngEncode(img).MoveValue();
  for (auto _ : state) {
    auto decoded = SpngDecode(bytes);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpngDecode)->Arg(64)->Arg(161);

void BM_FusedTail(benchmark::State& state) {
  const Image img = BenchImage(static_cast<int>(state.range(0)));
  NormalizeParams norm;
  FloatImage out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(FusedConvertNormalizeSplit(img, norm, &out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FusedTail)->Arg(64)->Arg(224);

void BM_UnfusedTail(benchmark::State& state) {
  const Image img = BenchImage(static_cast<int>(state.range(0)));
  NormalizeParams norm;
  for (auto _ : state) {
    auto f = ConvertToFloat(img);
    (void)Normalize(&f.value(), norm);
    auto split = ChannelSplit(f.value());
    benchmark::DoNotOptimize(split);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnfusedTail)->Arg(64)->Arg(224);

void BM_ResizeBilinear(benchmark::State& state) {
  const Image img = BenchImage(256);
  const int target = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto out = ResizeExact(img, target, target);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResizeBilinear)->Arg(224)->Arg(64);

// The rung-0 serving plan's resize: the 113x113 RGB centre crop of a 128 px
// input down to 85x85, into a reused output as ExecutePlanInto runs it.
void BM_ResizeRgbInto(benchmark::State& state) {
  const Image img = BenchImage(static_cast<int>(state.range(0)));
  Image out;
  for (auto _ : state) {
    ResizeBilinearInto(img, 85, 85, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResizeRgbInto)->Arg(113);

void BM_Dct8x8Roundtrip(benchmark::State& state) {
  Rng rng(3);
  int16_t block[64];
  for (auto& v : block) v = static_cast<int16_t>(rng.UniformInt(-128, 127));
  float coeffs[64];
  int16_t out[64];
  for (auto _ : state) {
    ForwardDct8x8(block, coeffs);
    InverseDct8x8(coeffs, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Dct8x8Roundtrip);

void BM_Gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<float> a(n * n), b(n * n), c(n * n);
  Rng rng(4);
  for (auto& v : a) v = static_cast<float>(rng.UniformDouble(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.UniformDouble(-1, 1));
  for (auto _ : state) {
    Gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128);

// Forced-scalar twins of the dispatched kernels, so one bench run shows the
// SIMD-vs-scalar delta on this host (also reachable via SMOL_SIMD=scalar).
void BM_GemmScalar(benchmark::State& state) {
  ScopedSimdLevelCap cap(SimdLevel::kScalar);
  const int n = static_cast<int>(state.range(0));
  std::vector<float> a(n * n), b(n * n), c(n * n);
  Rng rng(4);
  for (auto& v : a) v = static_cast<float>(rng.UniformDouble(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.UniformDouble(-1, 1));
  for (auto _ : state) {
    Gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmScalar)->Arg(128);

void BM_ResizeBilinearScalar(benchmark::State& state) {
  ScopedSimdLevelCap cap(SimdLevel::kScalar);
  const Image img = BenchImage(256);
  const int target = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto out = ResizeExact(img, target, target);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResizeBilinearScalar)->Arg(224);

void BM_MpmcQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    MpmcQueue<int> queue(64);
    std::thread producer([&] {
      for (int i = 0; i < 20000; ++i) queue.Push(i);
      queue.Close();
    });
    int64_t sum = 0;
    while (auto v = queue.Pop()) sum += *v;
    producer.join();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_MpmcQueueThroughput);

// One 1-image, 86,700-byte pinned batch on a 200,000 im/s simulated device:
// burst_cycle's batch, 22.9 us modelled. This row measures the simulator,
// not a kernel: real time per batch over the modelled_us counter is what a
// caller pays for the device's wake-up.
void BM_SimDeviceBatch(benchmark::State& state) {
  SimAccelerator::Options options;
  options.dnn_throughput_ims = 200000.0;
  SimAccelerator device(options);
  constexpr size_t kBytes = 86700;
  for (auto _ : state) device.ExecuteBatch(1, kBytes, /*pinned=*/true);
  const DeviceStats stats = device.stats();
  state.counters["modelled_us"] =
      (stats.compute_seconds + stats.transfer_seconds) * 1e6 /
      static_cast<double>(stats.batches);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimDeviceBatch)->UseRealTime();

// The serving path's cache traffic without the serving path: a seeded
// zipf(1.0) trace over 2,048 keys through the default 8 shards at 32 MiB,
// each entry charged \p charge bytes. Each request is a Get and, on a miss,
// a Put, as Server::Stage runs them. Reports time per request after one
// warm-up pass over the trace, and the hit ratio over the timed requests.
void TensorCacheZipf(benchmark::State& state, size_t charge) {
  constexpr int kKeys = 2048;
  constexpr size_t kTrace = size_t{1} << 16;
  std::vector<double> cdf(kKeys);
  double total = 0.0;
  for (int k = 0; k < kKeys; ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    cdf[static_cast<size_t>(k)] = total;
  }
  Rng rng(1);
  std::vector<TensorCache::Key> trace(kTrace);
  for (TensorCache::Key& key : trace) {
    const uint64_t rank = static_cast<uint64_t>(
        std::lower_bound(cdf.begin(), cdf.end(), rng.UniformDouble() * total) -
        cdf.begin());
    key.content_hash = TensorCache::HashCombine(0, rank);
    key.plan_fingerprint = 7;
  }
  // Entries share one image: the cache charges what the producer declares
  // and never touches the bytes.
  CachedImage value;
  value.image = std::make_shared<Image>(85, 85, 3);
  value.float_count = 85 * 85 * 3;
  TensorCache::Options options;
  options.capacity_bytes = 32ull << 20;
  TensorCache cache(options);
  const auto request = [&](const TensorCache::Key& key) {
    std::optional<CachedImage> hit = cache.Get(key);
    if (!hit.has_value()) cache.Put(key, value, charge);
    return hit;
  };
  for (const TensorCache::Key& key : trace) request(key);
  const TensorCacheStats warm = cache.stats();
  size_t i = 0;
  for (auto _ : state) {
    std::optional<CachedImage> hit = request(trace[i]);
    benchmark::DoNotOptimize(hit);
    i = (i + 1) % kTrace;
  }
  const TensorCacheStats end = cache.stats();
  const double lookups = static_cast<double>(
      (end.hits + end.misses) - (warm.hits + warm.misses));
  state.counters["hit_ratio"] =
      lookups > 0.0 ? static_cast<double>(end.hits - warm.hits) / lookups
                    : 0.0;
  state.SetItemsProcessed(state.iterations());
}

// Entries charged as pooled rung-0 f32 tensors (85x85x3 in a 128 KiB bucket
// x 1.5 = 196,608 B), so 168 fit.
void BM_TensorCacheZipf(benchmark::State& state) {
  TensorCacheZipf(state, 196608);
}
BENCHMARK(BM_TensorCacheZipf);

// Entries charged as the server charges the rung-0 u8 prefix it caches
// (85x85x3 = 21,675 B in a 32 KiB bucket x 1.5 = 49,152 B), so 680 fit.
void BM_TensorCacheZipfU8(benchmark::State& state) {
  TensorCacheZipf(state, 49152);
}
BENCHMARK(BM_TensorCacheZipfU8);

}  // namespace
}  // namespace smol

BENCHMARK_MAIN();
