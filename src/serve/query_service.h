#ifndef BQE_SERVE_QUERY_SERVICE_H_
#define BQE_SERVE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/mutex.h"
#include "common/rw_gate.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "constraints/maintain.h"
#include "core/engine.h"
#include "serve/request_queue.h"
#include "serve/result_cache.h"
#include "storage/table.h"

namespace bqe {
namespace serve {

/// Serving-layer configuration.
struct ServiceOptions {
  /// Dispatcher threads (named `shards` because servebench and the benches
  /// set it under that name). Each drains chunks off the shared admission
  /// queue and runs its chunk's executions; concurrent dispatchers are
  /// concurrent queries, fair-shared across the WorkerPool via per-request
  /// task-group tags.
  size_t shards = 2;
  /// Admission queue bound: Submit() blocks (backpressure) and TrySubmit()
  /// load-sheds beyond it.
  size_t queue_capacity = 1024;
  /// Batching window cap: max requests one dispatcher drains per chunk,
  /// i.e. the coalescing scope for same-fingerprint requests. With
  /// `adaptive_batch_window` (the default) the *effective* window tracks
  /// the arrival rate and this is its ceiling; with it off, every drain
  /// uses this fixed value.
  size_t batch_window = 32;
  /// Adaptive batching: the drain window follows an EWMA of request
  /// inter-arrival gaps against an EWMA of chunk processing times
  /// (BatchWindowController) — under load the window widens toward
  /// batch_window so one compile/execution coalesces more
  /// same-fingerprint callers, sparse traffic shrinks it toward 1 so a
  /// lone request never claims a backlog-wide drain.
  bool adaptive_batch_window = true;
  /// Minimum coalescing horizon under adaptive batching: the next drain
  /// covers at least this much arrival time even when chunks process
  /// faster (window ≈ max(horizon, ewma chunk time) / mean arrival gap).
  double batch_horizon_us = 250.0;
  /// Max pinned PreparedQuery entries the service holds; incoherent pins
  /// are dropped first when the map fills (mirrors the engine cache).
  size_t pin_capacity = 256;
  /// Morsel workers per execution — the WorkerPool split across
  /// dispatchers: with `shards` dispatchers executing concurrently, each
  /// request gets hardware/shards workers (0 = that auto value, min 1)
  /// instead of every request fanning out onto the full pool and
  /// oversubscribing it. Fair-share across the concurrent task groups does
  /// the rest.
  size_t exec_threads = 0;
  /// When true the service is constructed with no dispatcher threads
  /// running; call Start() to begin draining. Lets tests enqueue a known
  /// request mix and observe deterministic batching.
  bool start_paused = false;
  /// Cross-window result cache (serve/result_cache.h): duplicate reads of
  /// a hot fingerprint between delta batches are answered at *admission*
  /// from the pinned immutable table of the last execution — zero
  /// execution, zero plan-cache or gate traffic, not even an enqueue. Any
  /// applied delta batch (or schema event) invalidates implicitly through
  /// the engine's coherence snapshot.
  bool result_cache = true;
  /// Result-cache capacity over estimated result bytes (LRU eviction).
  size_t result_cache_bytes = 64u << 20;
  /// Incremental view maintenance of cached results (exec/ivm.h): covered
  /// executions retain a maintenance handle next to their cached table, and
  /// an applied delta batch *refreshes* those entries in O(delta) inside
  /// the batch's own exclusive gate hold instead of invalidating them —
  /// hot fingerprints keep serving cache hits across delta churn. Plans
  /// that are not delta-friendly fall back to invalidate-and-recompute per
  /// entry. Handles are reuse-promoted: building one costs on the order of
  /// the execution it shadows, so only a fingerprint's second execution
  /// onward (or a first execution that already coalesced duplicate
  /// callers) retains one — a one-shot query pays nothing. Handles are
  /// also size-bounded: retained build state can dwarf the result it
  /// maintains (intermediate join bags vs a handful of projected rows), so
  /// a handle measuring more than `result_cache_maint_bytes` is refused —
  /// Build aborts the moment its running byte estimate crosses that bound,
  /// so the refusal costs ~bound bytes of construction rather than a full
  /// replay — and the fingerprint is remembered as declined: a few fat
  /// views must not thrash every other entry out of the cache through an
  /// evict/re-execute/rebuild cycle (ServiceStats::maint_declined).
  /// Off: every epoch bump sweeps the cache (eagerly), as before this
  /// option existed.
  bool result_cache_refresh = true;
  /// Per-handle retained-state bound for the refresh path above. 0 (the
  /// default) resolves to min(result_cache_bytes / 8, 2 MiB): no single
  /// handle may claim more than 1/8 of the cache, and the 2 MiB ceiling
  /// keeps the one-time refusal cost flat as the cache budget grows. A
  /// deployment that *wants* fat maintained views — a refresh-dominated
  /// workload whose recomputes are the expensive path — raises this
  /// explicitly alongside result_cache_bytes and accepts the bigger
  /// one-shot Build per view.
  size_t result_cache_maint_bytes = 0;
};

/// Counters the service exposes for observability and tests. stats() takes
/// the read side of the service's writer-priority gate for the snapshot, so
/// no delta batch is mid-apply while the set is read: the delta counters,
/// the engine epochs, and the result-cache counters are mutually consistent
/// (e.g. data_epoch == delta_batches when every batch applies). Query-side
/// counters still advance concurrently — executions run under the same
/// shared gate side — so those remain individually-atomic reads.
struct ServiceStats {
  uint64_t admitted = 0;       ///< Query requests accepted onto the queue.
  uint64_t rejected = 0;       ///< TrySubmit load-sheds + post-shutdown submits.
  uint64_t executed = 0;       ///< Leader executions (one per coalesced group).
  uint64_t coalesced = 0;      ///< Requests answered by another's execution.
  uint64_t batches = 0;        ///< Dispatch chunks drained off the queue.
  uint64_t delta_batches = 0;  ///< SubmitDeltas batches applied.
  uint64_t deltas_applied = 0; ///< Individual deltas applied (inserts+deletes).
  uint64_t pin_hits = 0;       ///< Executions served from the pin map —
                               ///< zero locks between admission and execute.
  uint64_t repins = 0;         ///< Pins (re)resolved through PrepareCompiled.
  uint64_t freezes = 0;        ///< Mirror rebuilds observed during serving
                               ///< (AccessIndex freeze hook).
  uint64_t queue_depth = 0;    ///< Queue size at snapshot time.
  uint64_t batch_window = 0;   ///< Effective drain window at snapshot time
                               ///< (adaptive EWMA value, or the fixed cap).
  /// Result-cache hits resolved at Submit/TrySubmit — the caller's future
  /// was answered without the request ever being admitted (not counted in
  /// `admitted`, `executed`, or `coalesced`).
  uint64_t result_hits_admission = 0;
  /// Result-cache hits taken by a dispatcher for a whole coalesced group:
  /// the entry landed between the group's admission and its dispatch
  /// (typically inserted by an earlier window's execution). One per group
  /// leader; followers count as `coalesced` as usual.
  uint64_t result_hits_window = 0;
  /// Result-cache hits (admission- or window-time) served off an entry that
  /// incremental view maintenance patched since its populating execution —
  /// reads that would have been recomputations before IVM. Disjoint from
  /// the two counters above, so the request accounting is five-way exact:
  /// executed + coalesced + result_hits_admission + result_hits_window +
  /// result_hits_refreshed == query requests.
  uint64_t result_hits_refreshed = 0;
  /// Fingerprints whose maintenance handle crossed the size bound during
  /// its one (aborted) Build and was refused for good — these entries
  /// serve from cache between batches but recompute across them.
  uint64_t maint_declined = 0;
  /// Handle rebuilds deferred after an IVM fallback: the fingerprint's
  /// first post-fallback execution skips the (expensive) rebuild — a plan
  /// that just proved churn-hostile should demonstrate renewed reuse
  /// before the service pays another replay — and the rebuild happens on
  /// the next execution instead.
  uint64_t maint_lazy_rebuilds = 0;
  uint64_t data_epoch = 0;     ///< Engine data epoch at snapshot.
  uint64_t schema_epoch = 0;   ///< Engine bounds/schema epoch at snapshot.
  /// Result-cache counters (internally consistent; see ResultCacheStats).
  ResultCacheStats result_cache;
  /// Engine plan-cache counters (lock-free) — including the pipeline-
  /// breaker build observability (breaker_builds / partitioned_builds /
  /// build_us), so a service stats endpoint shows whether executions are
  /// engaging the partitioned parallel build path.
  PlanCacheStats engine;
};

/// One answered query. The table is shared: every request coalesced into
/// the same leader execution holds the same immutable result.
struct QueryResponse {
  Status status = Status::Ok();
  std::shared_ptr<const Table> table;
  bool used_bounded_plan = false;
  bool coalesced = false;  ///< Answered by a same-fingerprint leader.
  bool pin_hit = false;    ///< Plan came from the service pin map.
  bool result_cache_hit = false;  ///< Answered from the result cache —
                                  ///< no execution ran for this response.
  bool result_refreshed = false;  ///< The cached table had been patched by
                                  ///< incremental view maintenance (only
                                  ///< meaningful with result_cache_hit).
};

/// One applied delta batch.
struct DeltaResponse {
  Status status = Status::Ok();
  MaintenanceStats stats;
};

/// EWMA arrival-rate tracker behind the adaptive batching window,
/// following the classic batching law: one drain should claim about as
/// many requests as arrive while a dispatcher processes one chunk. The
/// effective window is `clamp(horizon / ewma_gap, 1, max_window)`, where
/// `ewma_gap` tracks request inter-arrival gaps (recorded at admission)
/// and the horizon is the EWMA of observed chunk processing times
/// (recorded by dispatchers), floored by the configured minimum coalescing
/// horizon. Self-balancing in both directions: under load (tiny gaps,
/// long drains) the window saturates at max_window — maximal
/// same-fingerprint coalescing per drain — while sparse traffic (gaps far
/// beyond any drain) collapses it to 1 so a lone request is answered
/// without claiming a wide backlog one dispatcher would then serialize.
/// Before two arrivals there is no gap signal and the controller reports
/// max_window (the pre-adaptive fixed behavior). Thread-safe: producers
/// record arrivals concurrently with dispatchers recording drains and
/// reading the window; timestamps/durations are caller supplied
/// (monotonic microseconds) so tests drive it deterministically.
class BatchWindowController {
 public:
  BatchWindowController(size_t max_window, double min_horizon_us)
      : max_window_(max_window == 0 ? 1 : max_window),
        min_horizon_us_(min_horizon_us) {}

  /// Records one admission; folds the gap since the previous admission
  /// into the EWMA (alpha 0.25 — a few arrivals re-center the window after
  /// a workload shift, one outlier gap does not).
  void RecordArrival(uint64_t now_us) {
    MutexLock lk(&mu_);
    if (last_us_ != 0) {
      double gap = now_us >= last_us_
                       ? static_cast<double>(now_us - last_us_)
                       : 0.0;
      ewma_gap_us_ = ewma_gap_us_ < 0 ? gap
                                      : ewma_gap_us_ + 0.25 * (gap - ewma_gap_us_);
    }
    last_us_ = now_us;
  }

  /// Records how long one drained chunk took to process end to end; the
  /// EWMA becomes the coalescing horizon (how much arrival time the next
  /// drain should cover).
  void RecordDrain(double duration_us) {
    MutexLock lk(&mu_);
    ewma_drain_us_ = ewma_drain_us_ < 0
                         ? duration_us
                         : ewma_drain_us_ + 0.25 * (duration_us - ewma_drain_us_);
  }

  size_t Window() const {
    MutexLock lk(&mu_);
    if (ewma_gap_us_ < 0) return max_window_;  // No gap signal yet.
    double horizon =
        ewma_drain_us_ > min_horizon_us_ ? ewma_drain_us_ : min_horizon_us_;
    // A zero-gap burst saturates at the cap without dividing by zero.
    double w = horizon / (ewma_gap_us_ < 1.0 ? 1.0 : ewma_gap_us_);
    if (w >= static_cast<double>(max_window_)) return max_window_;
    return w <= 1.0 ? 1 : static_cast<size_t>(w);
  }

 private:
  const size_t max_window_;
  const double min_horizon_us_;
  mutable Mutex mu_;  ///< Tiny critical sections; admission already
                      ///< takes the queue lock, this adds one more
                      ///< uncontended hop.
  uint64_t last_us_ GUARDED_BY(mu_) = 0;
  /// < 0 until the first gap sample.
  double ewma_gap_us_ GUARDED_BY(mu_) = -1.0;
  /// < 0 until the first drain sample.
  double ewma_drain_us_ GUARDED_BY(mu_) = -1.0;
};

/// The serving front-end over one BoundedEngine: callers stop holding the
/// engine and calling Execute() under their own locking, and instead submit
/// requests that the service admits, batches, and dispatches.
///
/// Request lifecycle (see docs/architecture.md for the full diagram):
///
///   0. *Result-cache lookup.* Submit()/TrySubmit() first consult the
///      cross-window ResultCache under the engine's lock-free coherence
///      snapshot: a steady-state duplicate read resolves its future right
///      there — no enqueue, no execution, no lock beyond the cache's own
///      mutex. Dispatchers re-check the cache at dispatch time, so a group
///      admitted before an identical execution completed still skips its
///      own execution.
///   1. *Admission.* Submit()/SubmitDeltas() enqueue onto one bounded MPMC
///      queue and return a future. Backpressure (Push blocks) or load-shed
///      (TrySubmit fails) beyond queue_capacity.
///   2. *Batching.* A dispatcher drains a chunk of up to batch_window
///      requests and groups the queries by engine fingerprint: each group
///      is one compile + one execution, fanned out to every caller in the
///      group as a shared immutable table. Deltas in the chunk are applied
///      first (read-your-writes within a window).
///   3. *Pinning.* The group leader resolves a pinned shared_ptr<const
///      PreparedQuery> from the service's pin map, validated lock-free via
///      BoundedEngine::StillCoherent(); only a coherence change falls back
///      to PrepareCompiled(). Execution runs ExecutePrepared(), which never
///      touches the plan-cache lock — across data-only Apply batches the
///      serving path holds no lock but the read side of the writer-priority
///      gate.
///   4. *Fair-share execution.* Each in-flight request's morsel work enters
///      the WorkerPool as a task group tagged with the request id;
///      concurrent requests fair-share pool threads round-robin instead of
///      serializing behind one global morsel loop.
///   5. *Writes.* SubmitDeltas routes engine.Apply() through the exclusive
///      side of the WriterPriorityGate (common/rw_gate.h), serializing
///      against in-flight executions without starving behind readers.
///
/// The engine must have BuildIndices() built before the service is
/// constructed, and BuildIndices() must not be called while a service is
/// attached (it would replace the IndexSet under the service's freeze
/// hooks). The service must be destroyed (or Shutdown()) before the engine.
class QueryService {
 public:
  explicit QueryService(BoundedEngine* engine, ServiceOptions opts = {});

  ~QueryService();  ///< Shutdown(): drains the queue, joins dispatchers.

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Async admission with backpressure: blocks while the queue is full.
  /// The future resolves when a dispatcher answers the request; after
  /// Shutdown() it resolves immediately with FailedPrecondition.
  std::future<QueryResponse> Submit(RaExprPtr query);

  /// Non-blocking admission: load-sheds (immediate FailedPrecondition
  /// response, counted in stats().rejected) when the queue is full.
  std::future<QueryResponse> TrySubmit(RaExprPtr query);

  /// Blocking convenience: Submit + wait.
  QueryResponse Query(RaExprPtr query);

  /// Async write admission: the batch is applied by a dispatcher under the
  /// exclusive side of the writer-priority gate, serialized against every
  /// in-flight execution.
  std::future<DeltaResponse> SubmitDeltas(
      std::vector<Delta> deltas, OverflowPolicy policy = OverflowPolicy::kGrow);

  /// Blocking convenience: SubmitDeltas + wait.
  DeltaResponse ApplyDeltas(std::vector<Delta> deltas,
                            OverflowPolicy policy = OverflowPolicy::kGrow);

  /// Starts dispatchers when constructed with start_paused. Idempotent.
  void Start();

  /// Stops admission, drains queued requests, joins dispatchers, and
  /// uninstalls the freeze hooks. Idempotent; implied by the destructor.
  void Shutdown();

  /// One-pass counter snapshot — the service's stats endpoint. Taken under
  /// the read side of the writer gate (see ServiceStats), so it serializes
  /// against delta application but never against executions.
  ServiceStats stats() const;

  const BoundedEngine& engine() const { return *engine_; }

 private:
  struct Request {
    enum class Kind { kQuery, kDeltas } kind = Kind::kQuery;
    uint64_t id = 0;  ///< Admission ticket; doubles as the task-group tag.
    RaExprPtr query;
    std::string fingerprint;  ///< Computed at admission (engine key).
    std::vector<Delta> deltas;
    OverflowPolicy policy = OverflowPolicy::kGrow;
    std::promise<QueryResponse> query_promise;
    std::promise<DeltaResponse> delta_promise;
  };

  Request MakeQueryRequest(RaExprPtr query);
  /// Pushes `r` (blocking admission or load-shed) and counts the outcome —
  /// successful admissions also feed the adaptive-window arrival tracker.
  /// On false the caller still owns the request and must resolve its
  /// promise with the rejection.
  bool Admit(Request* r, bool blocking);
  /// The drain window for the next chunk: the adaptive EWMA value, or the
  /// fixed batch_window when adaptivity is off.
  size_t EffectiveWindow() const;
  void DispatchMain();
  void ProcessChunk(std::vector<Request>* chunk);
  /// Resolves the pinned plan for one fingerprint (pin map first, then
  /// PrepareCompiled), under the read gate — the shared hold is what keeps
  /// StillCoherent()'s verdict valid through the execution that follows.
  Result<std::shared_ptr<const PreparedQuery>> ResolvePin(
      const std::string& fingerprint, const RaExprPtr& query, bool* pin_hit)
      REQUIRES_SHARED(gate_);
  /// Whether this fingerprint's maintenance handle measured over the size
  /// bound once — if so, never build one again.
  bool MaintenanceDeclined(const std::string& fingerprint);
  void DeclineMaintenance(const std::string& fingerprint);
  /// Consumes the fingerprint's pending lazy-rebuild marker (set when an
  /// IVM refresh fell back on its entry): true exactly once per fallback,
  /// telling the caller to skip this execution's handle rebuild.
  bool ConsumeDeferredRebuild(const std::string& fingerprint);
  /// Fills `*resp` from the result cache when enabled and coherent-fresh
  /// under `now`; false on miss (or cache off).
  bool TryServeFromResultCache(const std::string& fingerprint,
                               const CoherenceSnapshot& now,
                               QueryResponse* resp);

  BoundedEngine* engine_;
  ServiceOptions opts_;
  BoundedMpmcQueue<Request> queue_;
  BatchWindowController window_;
  ResultCache rcache_;
  /// Readers: executions + stats snapshots. Writer: Apply batches. Mutable
  /// so the const stats() endpoint can hold the read side.
  mutable WriterPriorityGate gate_;
  Mutex lifecycle_mu_;  ///< Guards Start/Shutdown transitions.
  /// Shutdown() swaps the vector out under lifecycle_mu_ and joins outside
  /// it, so the guard is the whole truth about who touches this field.
  std::vector<std::thread> dispatchers_ GUARDED_BY(lifecycle_mu_);
  bool started_ GUARDED_BY(lifecycle_mu_) = false;
  bool shut_down_ GUARDED_BY(lifecycle_mu_) = false;

  Mutex pin_mu_;  ///< Guards pins_ (held for map access only, never
                  ///< across prepare or execute).
  std::unordered_map<std::string, std::shared_ptr<const PreparedQuery>> pins_
      GUARDED_BY(pin_mu_);

  Mutex maint_mu_;  ///< Guards the maintenance sets (map access only).
  /// Fingerprints whose handle exceeded the size bound once: never build
  /// again (the Build itself is the cost worth avoiding).
  std::unordered_set<std::string> maint_declined_ GUARDED_BY(maint_mu_);
  /// Fingerprints whose entry just fell back during an IVM refresh: their
  /// next execution skips the handle rebuild (lazy rebuild — see
  /// ServiceStats::maint_lazy_rebuilds), the one after rebuilds normally.
  std::unordered_set<std::string> maint_rebuild_pending_ GUARDED_BY(maint_mu_);

  std::atomic<uint64_t> next_id_{1};
  /// Admission-side cache hits must stop at Shutdown() without taking the
  /// lifecycle mutex on every Submit.
  std::atomic<bool> accepting_{true};
  std::atomic<uint64_t> admitted_{0}, rejected_{0}, executed_{0},
      coalesced_{0}, batches_{0}, delta_batches_{0}, deltas_applied_{0},
      pin_hits_{0}, repins_{0}, freezes_{0}, rc_admission_hits_{0},
      rc_window_hits_{0}, rc_refreshed_hits_{0}, maint_declines_{0},
      maint_lazy_rebuilds_{0};
};

}  // namespace serve
}  // namespace bqe

#endif  // BQE_SERVE_QUERY_SERVICE_H_
