// Streaming serving runtime: shared admission, dynamic batching,
// multi-device sharding, and load-adaptive plan selection.
//
// The Server is the runtime's one front door and is persistent: callers
// Submit() individual InferenceRequests (encoded image + QoS class + optional
// deadline) and receive futures or callbacks; RunToCompletion() serves a
// fixed request list as one batch run. Inside, the §6.1 pipeline generalizes
// to a fleet of M devices behind one front end —
//
//   Submit -> [admission queue] -> workers: decode + preprocess at the
//             request class's ACTIVE LADDER RUNG
//          -> dispatch policy picks a shard, stages into ITS pool
//          -> [per-shard staged queue] -> per-shard batcher -> device
//
// — with four serving-specific mechanisms:
//
//   Dynamic batching   Work-conserving: each shard's batcher starts a batch
//                      with the first staged sample it pops, adds whatever
//                      else is already queued (up to max_batch) without
//                      waiting, and submits at once. Samples that arrive
//                      while a batch is on the device form the next one, so
//                      batches grow with backlog and an idle device serves
//                      a lone request immediately.
//   Dispatch           A pluggable policy chooses the shard at stage time:
//                      least-loaded (outstanding bytes) or capacity-weighted
//                      (outstanding work normalized by the device's
//                      modelled capacity, for heterogeneous fleets).
//                      Staging writes into the chosen shard's own (pinned)
//                      BufferPool, so each device keeps a private staging
//                      arena.
//   Backpressure       All queues are bounded. When admission is full,
//                      Submit either blocks (kBlock, closed-loop callers) or
//                      completes the request immediately with
//                      ResourceExhausted (kShed, open-loop traffic). A slow
//                      shard's bounded queue pushes back on the worker that
//                      picked it.
//   Adaptive plans     With AdaptiveOptions enabled the server precompiles a
//                      ladder of preprocessing plans (runtime/
//                      plan_controller.h) and a controller thread watches
//                      admission queue depth and shed pressure, degrading
//                      to cheaper decode/resolution under burst and
//                      recovering with hysteresis. Each request is served
//                      at its class's active rung; the reply reports the
//                      rung.
//
// The single-device Server is the degenerate case M=1: one shard, one pool,
// one batcher — behaviourally identical to the pre-sharding runtime. The
// non-adaptive Server is the degenerate one-rung ladder with no controller.
//
// Shutdown() stops admission, drains every accepted request, and joins the
// worker threads; the destructor calls it. Every request is completed exactly
// once — by result, decode error, deadline expiry, shed status, or (never
// admitted) a null-bytes or post-shutdown rejection.
#ifndef SMOL_RUNTIME_SERVER_H_
#define SMOL_RUNTIME_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/hw/device.h"
#include "src/hw/sim_accelerator.h"
#include "src/runtime/pipeline.h"
#include "src/runtime/plan_controller.h"
#include "src/util/buffer_pool.h"
#include "src/util/latency_histogram.h"
#include "src/util/mpmc_queue.h"
#include "src/util/result.h"
#include "src/util/status.h"
#include "src/util/tensor_cache.h"

namespace smol {

/// What to do with a Submit() when the admission queue is full.
enum class OverloadPolicy {
  kBlock,  ///< block the caller until space frees up (closed loop)
  kShed,   ///< fail fast with ResourceExhausted (open loop)
};

/// How the staging workers choose a shard for each preprocessed sample.
enum class DispatchPolicy {
  kLeastLoaded,       ///< fewest outstanding staged-but-unserved bytes
  kCapacityWeighted,  ///< least (outstanding bytes / device capacity):
                      ///< estimated drain time, for heterogeneous fleets
};

const char* DispatchPolicyName(DispatchPolicy policy);

/// \brief Pipeline shape: the Fig. 7/8 toggles + the worker counts.
struct PipelineOptions {
  bool enable_memory_reuse = true;  ///< buffer-pool recycling
  bool enable_pinned = true;        ///< pinned staging buffers
  bool enable_dag_opt = true;       ///< optimized preprocessing DAG

  /// Decode + preprocess workers; 0 = EffectiveCores(hw concurrency) (§8.1).
  /// The Fig. 7/8 threading lesion is num_producers = 1.
  int num_producers = 0;
  int num_consumers = 2;  ///< per-shard batcher threads (CUDA streams)
};

/// \brief Content-addressed tensor-cache configuration
/// (util/tensor_cache.h): repeated content skips decode and the plan's u8
/// steps, and runs only the plan's float suffix from the cached u8 image.
/// Off by default — it only pays for workloads with repeated content, and
/// it trades memory for compute.
struct CacheOptions {
  bool enable_tensor_cache = false;         ///< master switch
  /// Cache byte budget. Each u8 entry is charged what a staging-pool buffer
  /// of its size reserves (power-of-two bucket x 1.5 over-allocation) plus
  /// 128 B, not its exact bytes: 32 MiB holds 680 rung-0 entries of
  /// 21,675 B (85x85x3), each charged 49,280 B.
  size_t tensor_cache_bytes = 64ull << 20;
};

/// \brief Load-adaptive plan selection (runtime/plan_controller.h).
struct AdaptiveOptions {
  /// Geometry scales of the plan ladder, starting at 1.0 and strictly
  /// decreasing. More than one entry enables the adaptive controller; the
  /// default single rung serves the static base plan.
  std::vector<double> ladder_scales = {1.0};
  /// Per-class rung floors of the controller.
  PlanControllerOptions controller;
};

/// \brief Server configuration: pipeline shape + serving knobs.
struct ServerOptions {
  /// Pipeline toggles and worker counts.
  PipelineOptions pipeline;
  /// Tensor-cache configuration. Entries are keyed per ladder rung, so the
  /// cache composes with adaptive serving.
  CacheOptions cache;
  /// Load-adaptive plan selection; default = static single-plan serving.
  AdaptiveOptions adaptive;

  int max_batch = 16;  ///< dynamic batcher: largest batch it submits
  /// Ignored: the batcher never waits for batch-mates. Kept only because
  /// the serving benchmark's adapter still sets it; the next benchmark
  /// change deletes it.
  double max_queue_delay_us = 2000.0;
  int admission_capacity = 256;  ///< bounded admission queue (backpressure)
  OverloadPolicy overload = OverloadPolicy::kBlock;

  /// The device fleet, one shard per device. Empty = serve the single
  /// accelerator passed to the constructor (the M=1 degenerate case).
  std::vector<std::shared_ptr<Device>> devices;
  DispatchPolicy dispatch = DispatchPolicy::kLeastLoaded;
  int shard_queue_capacity = 64;  ///< per-shard bounded staged queue
};

/// \brief One typed serving request: the encoded image plus its QoS contract.
///
/// The caller owns the encoded bytes and must keep them alive until the
/// reply is delivered (future ready / callback fired).
struct InferenceRequest {
  /// Encoded stream; a null pointer is rejected with InvalidArgument.
  const std::vector<uint8_t>* bytes = nullptr;
  int label = 0;  ///< caller tag, echoed through the pipeline
  /// Optional ROI for partial decoding (empty = full decode). ROI requests
  /// are never resolution-degraded (the codec cannot combine the two).
  Roi roi;
  /// QoS tier: which ladder floor the request may be degraded to.
  RequestClass klass = RequestClass::kBestAccuracy;
  /// Requests still queued past this point — in admission or in a shard
  /// queue waiting for a batch — complete with DeadlineExceeded instead of
  /// occupying a device slot.
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

/// \brief Completion of one Submit()ed request.
struct InferenceReply {
  Status status;  ///< OK, or why the request was shed / failed / expired
  int label = 0;  ///< the request's label, echoed through the pipeline
  double latency_us = 0.0;  ///< submit -> completion wall time
  int batch_size = 0;       ///< size of the coalesced batch it was served in
  int shard = 0;            ///< which device shard served it
  bool cache_hit = false;  ///< served from the tensor cache (decode skipped)
  RequestClass klass = RequestClass::kBestAccuracy;  ///< echoed QoS tier
  /// The ladder rung that served the request (0 = best accuracy). Always 0
  /// on a non-adaptive server.
  int plan_rung = 0;
  /// True when plan_rung > 0: the request was served below full fidelity.
  bool degraded = false;
  bool ok() const { return status.ok(); }
};

/// \brief One device shard's cumulative serving statistics.
struct ShardStats {
  int shard = 0;
  std::string device;         ///< device name ("T4#0", ...)
  double capacity_ims = 0.0;  ///< the device's modelled capacity
  uint64_t served = 0;        ///< images completed by this shard
  uint64_t batches = 0;       ///< device submissions by this shard
  double mean_batch = 0.0;
  uint64_t queue_depth_hwm = 0;    ///< staged-queue depth high-water mark
  uint64_t outstanding_bytes = 0;  ///< staged-but-unserved bytes right now
  LatencyHistogram::Snapshot latency;  ///< submit -> completion, per request
  DeviceStats device_stats;
  BufferPoolStats buffer_stats;  ///< this shard's private staging pool
};

/// \brief One request class's cumulative serving statistics.
struct ClassStats {
  RequestClass klass = RequestClass::kBestAccuracy;
  uint64_t submitted = 0;  ///< accepted into the pipeline
  uint64_t completed = 0;  ///< served through a device
  uint64_t shed = 0;       ///< rejected at admission
  uint64_t failed = 0;     ///< accepted but failed (decode error, deadline)
  uint64_t degraded = 0;   ///< completions served at rung > 0
  std::vector<uint64_t> served_by_rung;  ///< completions per ladder rung
};

/// \brief Cumulative serving statistics since construction.
///
/// Coherence guarantee: stats() reads the per-shard and per-class counters
/// first, then the global completion-side counters, then the admission-side
/// counters, with acquire/release ordering against the increments. Within
/// one snapshot this guarantees submitted >= completed + failed,
/// completed >= sum(shards[i].served), and every global counter >= the sum
/// of its per-class split — a mid-run snapshot can trail in-flight work but
/// never invert the pipeline's causal order.
struct ServerStats {
  uint64_t submitted = 0;  ///< accepted into the pipeline
  uint64_t completed = 0;  ///< served through a device
  uint64_t shed = 0;       ///< rejected at admission (kShed policy)
  uint64_t failed = 0;     ///< accepted but failed (e.g. decode error)
  /// Of failed: requests whose deadline expired before reaching a device.
  uint64_t deadline_expired = 0;
  /// User callbacks that threw. The exception is swallowed and the server
  /// keeps serving; the request still counts as completed, failed or shed.
  uint64_t callback_errors = 0;
  uint64_t batches = 0;  ///< device submissions, summed over shards
  double mean_batch = 0.0;
  double wall_seconds = 0.0;  ///< since construction (for reference)
  /// First accepted submit -> latest completion. This is the serving window
  /// throughput is measured over, so an idle-then-bursty workload is not
  /// diluted by the idle lead-in.
  double active_seconds = 0.0;
  double throughput_ims = 0.0;  ///< completed / active_seconds
  double decode_seconds = 0.0;  ///< summed across workers
  /// Summed across workers, over the requests that were decoded: the whole
  /// plan, or on a cache miss its prefix, the cached copy and its suffix. A
  /// cache hit's suffix is not counted, so this divided by the decode count
  /// stays the preprocessing cost of one decoded image.
  double preprocess_seconds = 0.0;
  LatencyHistogram::Snapshot latency;  ///< merged across shards
  BufferPoolStats buffer_stats;        ///< summed across shard pools
  DeviceStats accel_stats;  ///< summed across devices (max_batch = max)
  TensorCacheStats tensor_cache;   ///< zeros unless enable_tensor_cache
  std::vector<ShardStats> shards;  ///< per-shard breakdown, one per device
  std::vector<ClassStats> classes;  ///< per-request-class breakdown

  int num_rungs = 1;  ///< ladder length (1 = static serving)
  /// The rung each request class is currently served at (index by
  /// static_cast<int>(RequestClass)).
  std::vector<int> active_rung;
  uint64_t plan_switches = 0;  ///< controller rung changes since start
};

/// \brief Persistent streaming inference server over a fleet of devices.
class Server {
 public:
  using Callback = std::function<void(const InferenceReply&)>;

  /// Starts the worker/batcher threads immediately; compiles the
  /// preprocessing plan (and, with adaptive serving on, the whole ladder)
  /// from \p pipeline_spec (§6.2). \p decode emits into a per-worker scratch
  /// image whose storage it may reuse across requests (e.g.
  /// SjpgDecodeInto). \p accel is the fleet when options.devices is empty;
  /// ignored (may be null) otherwise.
  Server(ServerOptions options, PipelineSpec pipeline_spec,
         DecodeIntoFn decode, std::shared_ptr<Device> accel);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Submits one request; the future always becomes ready (shed, failed,
  /// and deadline-expired requests carry a non-OK status in the reply).
  std::future<InferenceReply> Submit(InferenceRequest request);

  /// Callback flavour: \p callback fires exactly once, on a worker thread
  /// (or on the caller's thread when the request is rejected at Submit).
  /// An exception it throws is caught and counted in
  /// ServerStats::callback_errors; it reaches neither thread.
  void Submit(InferenceRequest request, Callback callback);

  /// Stops accepting work, drains every accepted request, joins the
  /// workers. Idempotent; called by the destructor.
  void Shutdown();

  /// A coherent snapshot (see ServerStats for the ordering guarantee).
  ServerStats stats() const;

  /// The preprocessing plan compiled at construction (the ladder's rung 0).
  const PreprocPlan& plan() const { return ladder_.front().plan; }

  /// The precompiled plan ladder; size 1 unless adaptive serving is on.
  const std::vector<PlanRung>& ladder() const { return ladder_; }

  /// The rung \p klass is currently served at (0 on a static server).
  int ActiveRung(RequestClass klass) const {
    return controller_ != nullptr ? controller_->RungFor(klass) : 0;
  }

  const ServerOptions& options() const { return options_; }

  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// Per-request completion context: exactly one of promise/callback fires.
  /// Only Submit's future form engages the promise: constructing one
  /// allocates its shared state, which a callback request never reads.
  struct RequestContext {
    std::optional<std::promise<InferenceReply>> promise;
    Callback callback;
    TimePoint submit_time;
  };
  struct Request {
    InferenceRequest request;
    RequestContext ctx;
  };
  /// A preprocessed request waiting in a shard queue for its batch.
  struct Staged {
    /// The f32 CHW tensor, owned by this request alone, in a (possibly
    /// pinned) buffer from the pool of the shard it was dispatched to;
    /// dropping it recycles the buffer there.
    std::unique_ptr<PooledBuffer, PoolReturn> buffer;
    bool cache_hit = false;  ///< staged from a cached u8 image
    int label = 0;
    RequestContext ctx;
    RequestClass klass = RequestClass::kBestAccuracy;
    int rung = 0;
    std::optional<TimePoint> deadline;  ///< re-checked when a batch forms
  };
  struct WorkerScratch;  // per-worker decode + preprocess scratch

  /// One device shard: private staging pool, bounded staged queue, dynamic
  /// batcher thread(s), and the counters dispatch + stats read.
  /// Declaration order is load-bearing: the queue holds Staged samples whose
  /// buffers recycle into the pool, so the pool must outlive the queue.
  struct Shard {
    int index = 0;
    std::shared_ptr<Device> device;
    double capacity_ims = 0.0;
    std::unique_ptr<BufferPool> pool;
    std::unique_ptr<MpmcQueue<Staged>> queue;
    LatencyHistogram latency;
    std::atomic<uint64_t> served{0};
    std::atomic<uint64_t> batches{0};
    /// Bytes staged to this shard and not yet through the device — the
    /// load signal the least-loaded / capacity-weighted policies balance.
    std::atomic<uint64_t> outstanding_bytes{0};
    std::atomic<uint64_t> depth_hwm{0};
    std::vector<std::thread> batchers;
  };

  /// Per-request-class counters behind ClassStats. Write ordering mirrors
  /// the global counters: the global increment (release) happens before the
  /// class increment (release), and stats() reads classes before globals,
  /// so global >= sum(classes) within a snapshot.
  struct ClassCounters {
    std::atomic<uint64_t> submitted{0};
    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> shed{0};
    std::atomic<uint64_t> failed{0};
    std::atomic<uint64_t> degraded{0};
    std::vector<std::unique_ptr<std::atomic<uint64_t>>> served_by_rung;
  };

  void SubmitInternal(InferenceRequest request, RequestContext ctx);
  /// Fires the promise and/or callback; a throwing callback is counted in
  /// callback_errors_ and swallowed.
  void Complete(RequestContext& ctx, InferenceReply reply);
  /// Completes an accepted request that never reaches a device with
  /// \p status, counting it in failed (and, for DeadlineExceeded, in
  /// deadline_expired) globally and for \p klass.
  void Fail(RequestContext& ctx, int label, RequestClass klass, Status status);
  Shard& PickShard();
  void WorkerLoop();
  /// Preprocesses \p item at \p rung straight into a buffer from \p pool:
  /// from its cached u8 image when the cache has it (only the plan's float
  /// suffix runs), otherwise after a decode. Sets staged.buffer and
  /// staged.cache_hit.
  Status Stage(const WorkItem& item, const PlanRung& rung, BufferPool& pool,
               WorkerScratch& scratch, Staged& staged);
  void BatcherLoop(Shard& shard);
  void FlushBatch(Shard& shard, std::vector<Staged>& batch);
  void ControllerLoop();

  ServerOptions options_;
  DecodeIntoFn decode_;
  /// The precompiled rung ladder; ladder_[0] is the constructor spec's plan.
  std::vector<PlanRung> ladder_;
  std::unique_ptr<PlanController> controller_;  // null = static serving

  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<TensorCache> cache_;  // null unless enable_tensor_cache
  MpmcQueue<Request> admission_;
  std::vector<std::thread> workers_;  // decode + preprocess + dispatch

  std::atomic<uint64_t> decode_us_{0};   // summed across workers
  std::atomic<uint64_t> preproc_us_{0};  // summed across workers
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> deadline_expired_{0};
  std::atomic<uint64_t> callback_errors_{0};
  std::atomic<uint64_t> batches_{0};
  ClassCounters class_counters_[kNumRequestClasses];
  std::atomic<uint64_t> rr_cursor_{0};  // dispatch rotation / tie-breaking
  TimePoint start_time_;
  /// Active-window bounds, nanoseconds since start_time_ (-1 = unset):
  /// first accepted submission and latest completion.
  std::atomic<int64_t> first_submit_ns_{-1};
  std::atomic<int64_t> last_completion_ns_{-1};

  std::thread controller_thread_;
  std::mutex controller_mutex_;
  std::condition_variable controller_cv_;
  bool controller_stop_ = false;  // guarded by controller_mutex_

  std::mutex shutdown_mutex_;
  bool stopped_ = false;  // guarded by shutdown_mutex_
};

/// Serves \p requests as one batch run: submits them in order, stops
/// submitting after the first failed reply, calls server.Shutdown() (which
/// drains every accepted request) and returns that failure or the drained
/// stats. An empty list is rejected before anything is submitted. Give the
/// server kBlock admission so no request is shed. Batches fill from the
/// backlog when the device is the bottleneck; when the host is, the
/// batcher submits whatever is queued rather than leave the device idle.
Result<ServerStats> RunToCompletion(
    Server& server, const std::vector<InferenceRequest>& requests);

}  // namespace smol

#endif  // SMOL_RUNTIME_SERVER_H_
