#include "src/runtime/server.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/util/cpu_features.h"
#include "src/util/logging.h"
#include "src/util/macros.h"
#include "src/util/stopwatch.h"

namespace smol {

namespace {

/// Raises \p target to at least \p value (relaxed max-CAS).
template <typename T>
void StoreMax(std::atomic<T>& target, T value) {
  T observed = target.load(std::memory_order_relaxed);
  while (value > observed &&
         !target.compare_exchange_weak(observed, value,
                                       std::memory_order_relaxed)) {
  }
}

/// Content hash of one work item (encoded bytes + ROI + decode scale): the
/// content half of the tensor cache key.
uint64_t WorkItemContentHash(const WorkItem& item) {
  uint64_t h = TensorCache::HashBytes(item.bytes->data(), item.bytes->size());
  h = TensorCache::HashCombine(h, static_cast<uint64_t>(
                                      static_cast<int64_t>(item.roi.x)));
  h = TensorCache::HashCombine(h, static_cast<uint64_t>(
                                      static_cast<int64_t>(item.roi.y)));
  h = TensorCache::HashCombine(h, static_cast<uint64_t>(
                                      static_cast<int64_t>(item.roi.width)));
  h = TensorCache::HashCombine(h, static_cast<uint64_t>(
                                      static_cast<int64_t>(item.roi.height)));
  h = TensorCache::HashCombine(
      h, static_cast<uint64_t>(static_cast<int64_t>(item.decode_scale_denom)));
  return h;
}

}  // namespace

/// Per-worker reusable state: the decode image and the plan's intermediates
/// keep their allocations across every request the worker processes.
struct Server::WorkerScratch {
  Image decoded;
  PreprocScratch preproc;
};

const char* DispatchPolicyName(DispatchPolicy policy) {
  switch (policy) {
    case DispatchPolicy::kLeastLoaded:
      return "least-loaded";
    case DispatchPolicy::kCapacityWeighted:
      return "capacity-weighted";
  }
  return "?";
}

Server::Server(ServerOptions options, PipelineSpec pipeline_spec,
               DecodeIntoFn decode, std::shared_ptr<Device> accel)
    : options_(std::move(options)),
      decode_(std::move(decode)),
      admission_(static_cast<size_t>(
          std::max(options_.admission_capacity, 1))),
      start_time_(std::chrono::steady_clock::now()) {
  PipelineOptions& pipe = options_.pipeline;
  if (options_.cache.enable_tensor_cache) {
    TensorCache::Options tco;
    tco.capacity_bytes = options_.cache.tensor_cache_bytes;
    cache_ = std::make_unique<TensorCache>(tco);
  }
  if (pipe.num_producers <= 0) {
    // §8.1: vCPUs are hyperthreads; size the decode+preproc worker pool by
    // their effective parallelism, not their nominal count.
    const int vcpus = static_cast<int>(std::thread::hardware_concurrency());
    pipe.num_producers = std::max(
        1, static_cast<int>(std::ceil(EffectiveCores(std::max(vcpus, 1)))));
  }
  if (pipe.num_consumers <= 0) pipe.num_consumers = 1;
  if (options_.max_batch <= 0) options_.max_batch = 1;

  // The plan ladder. Rung 0 is always the constructor spec's plan at full
  // decode resolution; deeper rungs come from the adaptive scales. Invalid
  // ladder configurations fall back to static serving rather than failing
  // construction.
  PlanRung base;
  base.name = "rung0 x1.00 d1";
  base.spec = pipeline_spec;
  base.plan = CompilePipelinePlan(pipeline_spec, pipe.enable_dag_opt);
  base.fingerprint = TensorCache::HashCombine(
      PipelinePlanFingerprint(base.plan, base.spec), 1);
  ladder_.push_back(std::move(base));
  if (options_.adaptive.ladder_scales.size() > 1) {
    auto built = BuildPlanLadder(pipeline_spec,
                                 options_.adaptive.ladder_scales,
                                 pipe.enable_dag_opt);
    if (built.ok()) {
      auto& rungs = built.value();
      for (size_t i = 1; i < rungs.size(); ++i) {
        ladder_.push_back(std::move(rungs[i]));
      }
    } else {
      SMOL_LOG(kWarn) << "adaptive ladder rejected ("
                      << built.status().ToString()
                      << "); serving the static plan";
    }
  }
  for (auto& cc : class_counters_) {
    cc.served_by_rung.reserve(ladder_.size());
    for (size_t r = 0; r < ladder_.size(); ++r) {
      cc.served_by_rung.push_back(
          std::make_unique<std::atomic<uint64_t>>(0));
    }
  }

  // The fleet: options.devices, or the single constructor device (M=1).
  std::vector<std::shared_ptr<Device>> devices = std::move(options_.devices);
  if (devices.empty() && accel != nullptr) devices.push_back(std::move(accel));
  if (devices.empty()) {
    SMOL_LOG(kWarn) << "server constructed with no devices; "
                       "adding a default SimAccelerator";
    devices.push_back(std::make_shared<SimAccelerator>(
        SimAccelerator::Options{}));
  }

  const int shard_queue_capacity = std::max(options_.shard_queue_capacity, 1);
  BufferPool::Options pool_options;
  pool_options.enable_reuse = pipe.enable_memory_reuse;
  pool_options.pin_buffers = pipe.enable_pinned;
  shards_.reserve(devices.size());
  for (size_t i = 0; i < devices.size(); ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = static_cast<int>(i);
    shard->device = devices[i];
    shard->capacity_ims = std::max(devices[i]->capacity_ims(), 1.0);
    shard->pool = std::make_unique<BufferPool>(pool_options);
    shard->queue = std::make_unique<MpmcQueue<Staged>>(
        static_cast<size_t>(shard_queue_capacity));
    shards_.push_back(std::move(shard));
  }

  SMOL_LOG(kInfo) << "server simd dispatch: "
                  << SimdLevelName(ActiveSimdLevel()) << " (detected "
                  << SimdLevelName(DetectedSimdLevel()) << "); " << "fleet of "
                  << shards_.size() << " device(s), "
                  << DispatchPolicyName(options_.dispatch) << " dispatch, "
                  << ladder_.size() << " plan rung(s)";

  workers_.reserve(static_cast<size_t>(pipe.num_producers));
  for (int i = 0; i < pipe.num_producers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  for (auto& shard : shards_) {
    shard->batchers.reserve(static_cast<size_t>(pipe.num_consumers));
    for (int i = 0; i < pipe.num_consumers; ++i) {
      shard->batchers.emplace_back(
          [this, s = shard.get()] { BatcherLoop(*s); });
    }
  }
  if (ladder_.size() > 1) {
    controller_ = std::make_unique<PlanController>(
        options_.adaptive.controller, static_cast<int>(ladder_.size()));
    controller_thread_ = std::thread([this] { ControllerLoop(); });
  }
}

Server::~Server() { Shutdown(); }

void Server::Complete(RequestContext& ctx, InferenceReply reply) {
  if (ctx.promise.has_value()) {
    ctx.promise->set_value(reply);
    ctx.promise.reset();
  }
  if (ctx.callback) {
    // A throw must not unwind a batcher (std::terminate, and the rest of the
    // batch unanswered) or a Submit() that already rejected the request.
    try {
      ctx.callback(reply);
    } catch (...) {
      callback_errors_.fetch_add(1, std::memory_order_relaxed);
    }
    ctx.callback = nullptr;
  }
}

void Server::Fail(RequestContext& ctx, int label, RequestClass klass,
                  Status status) {
  failed_.fetch_add(1, std::memory_order_release);
  if (status.code() == StatusCode::kDeadlineExceeded) {
    deadline_expired_.fetch_add(1, std::memory_order_relaxed);
  }
  class_counters_[static_cast<int>(klass)].failed.fetch_add(
      1, std::memory_order_release);
  InferenceReply reply;
  reply.status = std::move(status);
  reply.label = label;
  reply.klass = klass;
  Complete(ctx, reply);
}

std::future<InferenceReply> Server::Submit(InferenceRequest request) {
  RequestContext ctx;
  std::future<InferenceReply> future = ctx.promise.emplace().get_future();
  SubmitInternal(std::move(request), std::move(ctx));
  return future;
}

void Server::Submit(InferenceRequest request, Callback callback) {
  RequestContext ctx;
  ctx.callback = std::move(callback);
  SubmitInternal(std::move(request), std::move(ctx));
}

void Server::SubmitInternal(InferenceRequest inference_request,
                            RequestContext ctx) {
  ctx.submit_time = std::chrono::steady_clock::now();
  const TimePoint submit_time = ctx.submit_time;
  const int klass = static_cast<int>(inference_request.klass);
  Request request;
  request.request = std::move(inference_request);
  request.ctx = std::move(ctx);
  // A request without bytes is never admitted: every decoder would
  // dereference the null pointer on a worker thread. The Reclaim flavours
  // leave `request` (and its promise) intact when the push is rejected, so
  // the reply below still reaches the caller.
  const bool has_bytes = request.request.bytes != nullptr;
  const bool accepted =
      has_bytes && (options_.overload == OverloadPolicy::kShed
                        ? admission_.TryPushReclaim(request)
                        : admission_.PushReclaim(request));
  if (accepted) {
    // Release pairs with the acquire loads in stats(): a submission is
    // counted before its request can complete. Global before per-class, so
    // a snapshot's global counter covers its class split.
    submitted_.fetch_add(1, std::memory_order_release);
    class_counters_[klass].submitted.fetch_add(1, std::memory_order_release);
    int64_t unset = -1;
    first_submit_ns_.compare_exchange_strong(
        unset,
        std::chrono::duration_cast<std::chrono::nanoseconds>(submit_time -
                                                             start_time_)
            .count(),
        std::memory_order_relaxed);
    return;
  }
  InferenceReply reply;
  reply.klass = request.request.klass;
  if (!has_bytes) {
    reply.status = Status::InvalidArgument("request has no encoded bytes");
  } else if (admission_.closed()) {
    reply.status = Status::Cancelled("server is shut down");
  } else {
    shed_.fetch_add(1, std::memory_order_release);
    class_counters_[klass].shed.fetch_add(1, std::memory_order_release);
    reply.status =
        Status::ResourceExhausted("admission queue full: request shed");
  }
  reply.label = request.request.label;
  Complete(request.ctx, reply);
}

Server::Shard& Server::PickShard() {
  const size_t count = shards_.size();
  if (count == 1) return *shards_[0];
  // Scan from a rotating offset (so ties — an idle fleet — degrade to
  // round-robin instead of piling onto shard 0) and keep the strictly best
  // score.
  const uint64_t cursor = rr_cursor_.fetch_add(1, std::memory_order_relaxed);
  const bool weighted = options_.dispatch == DispatchPolicy::kCapacityWeighted;
  Shard* best = nullptr;
  double best_score = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < count; ++i) {
    Shard& shard = *shards_[(cursor + i) % count];
    const double outstanding = static_cast<double>(
        shard.outstanding_bytes.load(std::memory_order_relaxed));
    // Capacity weighting scores estimated drain time, so a V100 with a deep
    // queue can still beat an idle K80 on arrival rate — but an idle fast
    // device always wins outright.
    const double score = weighted ? outstanding / shard.capacity_ims
                                  : outstanding;
    if (score < best_score) {
      best_score = score;
      best = &shard;
    }
  }
  return *best;
}

void Server::WorkerLoop() {
  WorkerScratch scratch;
  while (auto request = admission_.Pop()) {
    const InferenceRequest& req = request->request;
    // A request whose deadline already passed while queued completes
    // immediately instead of occupying decode + device time.
    if (req.deadline.has_value() &&
        std::chrono::steady_clock::now() > *req.deadline) {
      Fail(request->ctx, req.label, req.klass,
           Status::DeadlineExceeded("deadline expired in queue"));
      continue;
    }
    // Adaptive serving: resolve the class's active rung once per request.
    // ROI requests pin to rung 0 — the codec cannot combine ROI decode with
    // multi-resolution decode, and partial decode is already cheap.
    const int rung = (controller_ != nullptr && req.roi.empty())
                         ? controller_->RungFor(req.klass)
                         : 0;
    const PlanRung& active = ladder_[static_cast<size_t>(rung)];
    WorkItem item;
    item.bytes = req.bytes;
    item.label = req.label;
    item.roi = req.roi;
    item.decode_scale_denom = active.decode_scale_denom;
    // The dispatch policy runs at stage time: the sample is preprocessed
    // directly into the chosen shard's private staging pool, so the bytes
    // never migrate between device arenas.
    Shard& shard = PickShard();
    Staged staged;
    staged.label = req.label;
    staged.ctx = std::move(request->ctx);
    staged.klass = req.klass;
    staged.rung = rung;
    staged.deadline = req.deadline;
    Status status = Stage(item, active, *shard.pool, scratch, staged);
    if (!status.ok()) {
      Fail(staged.ctx, req.label, req.klass, std::move(status));
      continue;
    }
    const uint64_t staged_bytes = staged.buffer->data.size();
    shard.outstanding_bytes.fetch_add(staged_bytes,
                                      std::memory_order_relaxed);
    // Bounded per-shard queue: workers block here when this shard's batcher
    // falls behind, which in turn fills admission and pushes back on
    // Submit().
    if (!shard.queue->Push(std::move(staged))) {
      shard.outstanding_bytes.fetch_sub(staged_bytes,
                                        std::memory_order_relaxed);
      break;  // queue closed
    }
    StoreMax(shard.depth_hwm,
             static_cast<uint64_t>(shard.queue->size()));
  }
}

Status Server::Stage(const WorkItem& item, const PlanRung& rung,
                     BufferPool& pool, WorkerScratch& scratch,
                     Staged& staged) {
  // Every request stages into its own buffer from the chosen shard's pool,
  // and the plan's terminal op writes the tensor straight into it.
  const auto stage_into = [&](size_t floats) {
    staged.buffer = {pool.Get(floats * sizeof(float)).release(),
                     PoolReturn{&pool}};
    return reinterpret_cast<float*>(staged.buffer->data.data());
  };
  TensorCache::Key key;
  if (cache_ != nullptr) {
    key.content_hash = WorkItemContentHash(item);
    key.plan_fingerprint = rung.fingerprint;
    if (auto cached = cache_->Get(key)) {
      // Repeated content: no decode and no u8 steps; only the plan's float
      // suffix runs, from the cached image.
      const size_t floats = cached->float_count;
      SMOL_ASSIGN_OR_RETURN(
          const size_t written,
          ExecutePlanSuffix(rung.plan, rung.spec, *cached->image,
                            scratch.preproc, stage_into(floats), floats));
      if (written != floats) {
        return Status::Internal("plan output size mismatch");
      }
      staged.cache_hit = true;
      return Status::OK();
    }
  }

  Stopwatch sw;
  Status decoded = decode_(item, &scratch.decoded);
  decode_us_.fetch_add(static_cast<uint64_t>(sw.ElapsedMicros()));
  SMOL_RETURN_IF_ERROR(decoded);

  sw.Restart();
  // Size the staging buffer from the plan's output geometry.
  SMOL_ASSIGN_OR_RETURN(
      const size_t floats,
      PlanOutputFloats(rung.plan, rung.spec, scratch.decoded.width(),
                       scratch.decoded.height(), scratch.decoded.channels()));
  float* dst = stage_into(floats);
  const Image* prefix = nullptr;
  size_t written = 0;
  if (cache_ == nullptr) {
    SMOL_ASSIGN_OR_RETURN(
        written, ExecutePlanInto(rung.plan, rung.spec, scratch.decoded,
                                 scratch.preproc, dst, floats));
  } else {
    // A miss runs the suffix from the scratch prefix, which the suffix
    // leaves intact for the cache to copy.
    SMOL_ASSIGN_OR_RETURN(prefix, ExecutePlanPrefix(rung.plan, rung.spec,
                                                    scratch.decoded,
                                                    scratch.preproc));
    SMOL_ASSIGN_OR_RETURN(
        written, ExecutePlanSuffix(rung.plan, rung.spec, *prefix,
                                   scratch.preproc, dst, floats));
  }
  preproc_us_.fetch_add(static_cast<uint64_t>(sw.ElapsedMicros()));
  if (written != floats) {
    return Status::Internal("plan output size mismatch");
  }
  if (cache_ != nullptr) {
    // Charged what a staging buffer of the image's size reserves, as
    // CacheOptions::tensor_cache_bytes describes. The exact-size copy is
    // made only if the cache admits the entry.
    const size_t charge = pool.ReserveBytes(prefix->size_bytes());
    cache_->Put(key, charge, [prefix, floats] {
      return CachedImage{std::make_shared<const Image>(*prefix), floats};
    });
  }
  return Status::OK();
}

void Server::BatcherLoop(Shard& shard) {
  std::vector<Staged> batch;
  batch.reserve(static_cast<size_t>(options_.max_batch));
  // A request whose deadline passed while it waited for a batch completes
  // here, so it spends no device time. Dropping its buffer recycles it.
  const auto admit = [&](Staged staged) {
    if (staged.deadline.has_value() &&
        std::chrono::steady_clock::now() > *staged.deadline) {
      shard.outstanding_bytes.fetch_sub(staged.buffer->data.size(),
                                        std::memory_order_relaxed);
      staged.buffer.reset();
      Fail(staged.ctx, staged.label, staged.klass,
           Status::DeadlineExceeded("deadline expired before batching"));
      return;
    }
    batch.push_back(std::move(staged));
  };
  // Work-conserving batching: block only for a batch's first sample, take
  // what is already queued behind it, and submit at once. Samples that
  // arrive while this batch is on the device form the next one, so batches
  // grow with backlog and never hold an idle device back.
  while (auto first = shard.queue->Pop()) {  // nullopt: closed and drained
    admit(std::move(*first));
    while (static_cast<int>(batch.size()) < options_.max_batch) {
      auto next = shard.queue->TryPop();
      if (!next) break;
      admit(std::move(*next));
    }
    FlushBatch(shard, batch);
  }
}

void Server::FlushBatch(Shard& shard, std::vector<Staged>& batch) {
  if (batch.empty()) return;
  uint64_t batch_bytes = 0;
  bool pinned = true;
  for (const Staged& staged : batch) {
    batch_bytes += staged.buffer->data.size();
    pinned = pinned && staged.buffer->pinned;
  }
  const int batch_size = static_cast<int>(batch.size());
  // One scatter-gather descriptor per pooled sample buffer: the batch is
  // gathered by the DMA engine, not copied into a contiguous staging area.
  shard.device->ExecuteBatch(batch_size, batch_bytes, pinned,
                             /*chunks=*/batch_size);
  // Dropping each buffer recycles it to this shard's pool before any reply
  // can trigger new work.
  for (Staged& staged : batch) staged.buffer.reset();
  // The batch is through the device: it no longer counts as shard load.
  shard.outstanding_bytes.fetch_sub(batch_bytes, std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  shard.batches.fetch_add(1, std::memory_order_relaxed);
  const TimePoint now = std::chrono::steady_clock::now();
  StoreMax(last_completion_ns_,
           std::chrono::duration_cast<std::chrono::nanoseconds>(now -
                                                                start_time_)
               .count());
  for (Staged& staged : batch) {
    ClassCounters& cc = class_counters_[static_cast<int>(staged.klass)];
    InferenceReply reply;
    reply.status = Status::OK();
    reply.label = staged.label;
    reply.cache_hit = staged.cache_hit;
    reply.batch_size = batch_size;
    reply.shard = shard.index;
    reply.klass = staged.klass;
    reply.plan_rung = staged.rung;
    reply.degraded = staged.rung > 0;
    reply.latency_us =
        std::chrono::duration<double, std::micro>(now - staged.ctx.submit_time)
            .count();
    shard.latency.Record(reply.latency_us);
    // Global then per-shard / per-class, all release: stats() reads the
    // split counters first, so within a snapshot completed >= sum(shard
    // served) and completed >= sum(class completed).
    completed_.fetch_add(1, std::memory_order_release);
    shard.served.fetch_add(1, std::memory_order_release);
    cc.completed.fetch_add(1, std::memory_order_release);
    cc.served_by_rung[static_cast<size_t>(staged.rung)]->fetch_add(
        1, std::memory_order_relaxed);
    if (staged.rung > 0) cc.degraded.fetch_add(1, std::memory_order_relaxed);
    Complete(staged.ctx, reply);
  }
  batch.clear();
}

void Server::ControllerLoop() {
  // The controller samples at a fixed cadence: admission depth and shed
  // delta say how much pressure the front door is under.
  uint64_t last_shed = 0;
  const std::chrono::microseconds interval(kControllerTickUs);
  std::unique_lock<std::mutex> lock(controller_mutex_);
  while (!controller_stop_) {
    controller_cv_.wait_for(lock, interval);
    if (controller_stop_) break;
    lock.unlock();
    LoadSignals signals;
    signals.queue_depth = static_cast<int>(admission_.size());
    signals.queue_capacity = std::max(options_.admission_capacity, 1);
    const uint64_t shed_now = shed_.load(std::memory_order_relaxed);
    signals.shed_delta = shed_now - last_shed;
    last_shed = shed_now;
    controller_->Observe(signals);
    lock.lock();
  }
}

void Server::Shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  if (stopped_) return;
  stopped_ = true;
  if (controller_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> controller_lock(controller_mutex_);
      controller_stop_ = true;
    }
    controller_cv_.notify_all();
    controller_thread_.join();
  }
  admission_.Close();
  for (auto& t : workers_) t.join();
  for (auto& shard : shards_) shard->queue->Close();
  for (auto& shard : shards_) {
    for (auto& t : shard->batchers) t.join();
    shard->device->Drain();
  }
}

ServerStats Server::stats() const {
  ServerStats s;
  // Read order is the coherence guarantee (see ServerStats): shard and class
  // counters, then global completion counters, then admission counters. Each
  // increment on the write side is a release; these acquires ensure a
  // request counted at one stage is also counted at every earlier stage of
  // the snapshot.
  s.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardStats ss;
    ss.shard = shard->index;
    ss.device = shard->device->name();
    ss.capacity_ims = shard->capacity_ims;
    ss.served = shard->served.load(std::memory_order_acquire);
    ss.batches = shard->batches.load(std::memory_order_relaxed);
    ss.mean_batch = ss.batches > 0 ? static_cast<double>(ss.served) /
                                         static_cast<double>(ss.batches)
                                   : 0.0;
    ss.queue_depth_hwm = shard->depth_hwm.load(std::memory_order_relaxed);
    ss.outstanding_bytes =
        shard->outstanding_bytes.load(std::memory_order_relaxed);
    ss.latency = shard->latency.TakeSnapshot();
    ss.device_stats = shard->device->stats();
    ss.buffer_stats = shard->pool->stats();
    s.shards.push_back(std::move(ss));
  }
  s.classes.reserve(kNumRequestClasses);
  for (int c = 0; c < kNumRequestClasses; ++c) {
    const ClassCounters& cc = class_counters_[c];
    ClassStats cs;
    cs.klass = static_cast<RequestClass>(c);
    cs.served_by_rung.reserve(cc.served_by_rung.size());
    for (const auto& rung_count : cc.served_by_rung) {
      cs.served_by_rung.push_back(
          rung_count->load(std::memory_order_relaxed));
    }
    cs.degraded = cc.degraded.load(std::memory_order_relaxed);
    cs.completed = cc.completed.load(std::memory_order_acquire);
    cs.failed = cc.failed.load(std::memory_order_acquire);
    cs.shed = cc.shed.load(std::memory_order_acquire);
    cs.submitted = cc.submitted.load(std::memory_order_acquire);
    s.classes.push_back(std::move(cs));
  }
  s.completed = completed_.load(std::memory_order_acquire);
  s.failed = failed_.load(std::memory_order_acquire);
  s.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  s.callback_errors = callback_errors_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_acquire);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.submitted = submitted_.load(std::memory_order_acquire);
  s.mean_batch = s.batches > 0 ? static_cast<double>(s.completed) /
                                     static_cast<double>(s.batches)
                               : 0.0;
  s.num_rungs = static_cast<int>(ladder_.size());
  s.active_rung.reserve(kNumRequestClasses);
  for (int c = 0; c < kNumRequestClasses; ++c) {
    s.active_rung.push_back(ActiveRung(static_cast<RequestClass>(c)));
  }
  s.plan_switches = controller_ != nullptr ? controller_->switches() : 0;
  s.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start_time_)
                       .count();
  // Throughput over the active window (first submit -> last completion), so
  // idle time before a burst does not dilute the number. wall_seconds keeps
  // the since-construction view.
  const int64_t first_ns = first_submit_ns_.load(std::memory_order_relaxed);
  const int64_t last_ns = last_completion_ns_.load(std::memory_order_relaxed);
  if (first_ns >= 0 && last_ns > first_ns) {
    s.active_seconds = static_cast<double>(last_ns - first_ns) * 1e-9;
  }
  s.throughput_ims =
      s.active_seconds > 0
          ? static_cast<double>(s.completed) / s.active_seconds
          : 0.0;
  s.decode_seconds =
      static_cast<double>(decode_us_.load(std::memory_order_relaxed)) * 1e-6;
  s.preprocess_seconds =
      static_cast<double>(preproc_us_.load(std::memory_order_relaxed)) * 1e-6;
  // Roll the per-shard views up into the fleet-wide ones: histograms merge
  // bucket-wise, pool and device counters sum (max_batch takes the max).
  LatencyHistogram merged;
  for (const auto& shard : shards_) merged.Merge(shard->latency);
  s.latency = merged.TakeSnapshot();
  for (const ShardStats& ss : s.shards) {
    s.buffer_stats.allocations += ss.buffer_stats.allocations;
    s.buffer_stats.reuses += ss.buffer_stats.reuses;
    s.buffer_stats.returns += ss.buffer_stats.returns;
    s.buffer_stats.trims += ss.buffer_stats.trims;
    s.buffer_stats.bytes_allocated += ss.buffer_stats.bytes_allocated;
    s.buffer_stats.bytes_pooled += ss.buffer_stats.bytes_pooled;
    s.accel_stats.batches += ss.device_stats.batches;
    s.accel_stats.images += ss.device_stats.images;
    s.accel_stats.max_batch =
        std::max(s.accel_stats.max_batch, ss.device_stats.max_batch);
    s.accel_stats.bytes += ss.device_stats.bytes;
    s.accel_stats.chunks += ss.device_stats.chunks;
    s.accel_stats.compute_seconds += ss.device_stats.compute_seconds;
    s.accel_stats.transfer_seconds += ss.device_stats.transfer_seconds;
    s.accel_stats.wall_seconds += ss.device_stats.wall_seconds;
  }
  if (cache_ != nullptr) s.tensor_cache = cache_->stats();
  return s;
}

Result<ServerStats> RunToCompletion(
    Server& server, const std::vector<InferenceRequest>& requests) {
  if (requests.empty()) return Status::InvalidArgument("no requests");
  std::mutex error_mutex;
  Status first_error;  // guarded by error_mutex until Shutdown() returns
  for (const InferenceRequest& request : requests) {
    {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error.ok()) break;
    }
    server.Submit(request, [&](const InferenceReply& reply) {
      if (reply.ok()) return;
      std::lock_guard<std::mutex> lock(error_mutex);
      if (first_error.ok()) first_error = reply.status;
    });
  }
  // Drains every accepted request and joins the threads its callbacks run
  // on, so none of them touches these locals afterwards.
  server.Shutdown();
  if (!first_error.ok()) return first_error;
  return server.stats();
}

}  // namespace smol
