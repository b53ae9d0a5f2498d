#include "serve/query_service.h"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <thread>
#include <utility>

namespace bqe {
namespace serve {

QueryService::QueryService(BoundedEngine* engine, ServiceOptions opts)
    : engine_(engine),
      opts_(opts),
      queue_(std::max<size_t>(1, opts.queue_capacity)),
      window_(std::max<size_t>(1, opts.batch_window), opts.batch_horizon_us),
      rcache_(std::max<size_t>(1, opts.result_cache_bytes)) {
  opts_.shards = std::max<size_t>(1, opts_.shards);
  opts_.batch_window = std::max<size_t>(1, opts_.batch_window);
  opts_.pin_capacity = std::max<size_t>(1, opts_.pin_capacity);
  if (opts_.exec_threads == 0) {
    // Concurrent dispatchers split the hardware instead of each
    // oversubscribing the full pool.
    unsigned hw = std::thread::hardware_concurrency();
    opts_.exec_threads = std::max<size_t>(1, (hw == 0 ? 1 : hw) / opts_.shards);
  }
  // Freeze events during serving (a patch budget blown by churn, paid by
  // the next execution probing that relation) surface in stats().freezes.
  // Installation happens before any dispatcher runs, so it is ordered
  // before all service reads.
  engine_->indices().SetFreezeHook([this](const AccessIndex&) {
    freezes_.fetch_add(1, std::memory_order_relaxed);
  });
  if (!opts_.start_paused) Start();
}

QueryService::~QueryService() { Shutdown(); }

void QueryService::Start() {
  MutexLock lk(&lifecycle_mu_);
  if (started_ || shut_down_) return;
  started_ = true;
  for (size_t s = 0; s < opts_.shards; ++s) {
    dispatchers_.emplace_back([this] { DispatchMain(); });
  }
}

void QueryService::Shutdown() {
  bool drain_inline = false;
  // The dispatcher threads are swapped out under the lifecycle mutex and
  // joined outside it: joining under the lock would both hold it across
  // arbitrary dispatcher work and make the GUARDED_BY contract on
  // dispatchers_ a lie.
  std::vector<std::thread> workers;
  {
    MutexLock lk(&lifecycle_mu_);
    if (shut_down_) return;
    shut_down_ = true;
    drain_inline = !started_;
    workers.swap(dispatchers_);
  }
  accepting_.store(false, std::memory_order_release);
  queue_.Close();
  if (drain_inline) {
    // Never started (start_paused): answer what was admitted so no caller
    // is left holding a future that cannot resolve.
    std::vector<Request> chunk;
    while (queue_.PopChunk(opts_.batch_window, &chunk) > 0) {
      batches_.fetch_add(1, std::memory_order_relaxed);
      ProcessChunk(&chunk);
      chunk.clear();
    }
  }
  for (std::thread& t : workers) t.join();
  // Detach the freeze hooks: they capture `this`, and the engine may
  // outlive the service. No dispatcher is running and callers are expected
  // to have stopped racing the engine with a dying service.
  engine_->indices().SetFreezeHook(AccessIndex::FreezeHook{});
}

QueryService::Request QueryService::MakeQueryRequest(RaExprPtr query) {
  Request r;
  r.kind = Request::Kind::kQuery;
  r.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  r.fingerprint = BoundedEngine::QueryFingerprint(query);
  r.query = std::move(query);
  return r;
}

bool QueryService::Admit(Request* r, bool blocking) {
  // The arrival timestamp is taken *before* the push: under backpressure
  // Push blocks until the queue drains, and stamping afterwards would make
  // the EWMA measure drain pace instead of client arrival rate — freezing
  // the adaptive window at its pre-overload value right when maximal
  // coalescing is wanted.
  uint64_t arrival_us = 0;
  if (opts_.adaptive_batch_window) {
    arrival_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
  // Push/TryPush consume the request only on success; a declined request
  // (queue closed, or full under load-shed) stays with the caller.
  bool ok = blocking ? queue_.Push(std::move(*r)) : queue_.TryPush(std::move(*r));
  (ok ? admitted_ : rejected_).fetch_add(1, std::memory_order_relaxed);
  if (ok && opts_.adaptive_batch_window) window_.RecordArrival(arrival_us);
  return ok;
}

size_t QueryService::EffectiveWindow() const {
  return opts_.adaptive_batch_window
             ? std::min(window_.Window(), opts_.batch_window)
             : opts_.batch_window;
}

bool QueryService::TryServeFromResultCache(const std::string& fingerprint,
                                           const CoherenceSnapshot& now,
                                           QueryResponse* resp) {
  if (!opts_.result_cache) return false;
  ResultCache::CachedResult hit;
  if (!rcache_.Lookup(fingerprint, now, &hit)) return false;
  resp->table = std::move(hit.table);
  resp->used_bounded_plan = hit.used_bounded_plan;
  resp->result_cache_hit = true;
  resp->result_refreshed = hit.refreshed;
  return true;
}

std::future<QueryResponse> QueryService::Submit(RaExprPtr query) {
  Request r = MakeQueryRequest(std::move(query));
  std::future<QueryResponse> f = r.query_promise.get_future();
  // The steady-state fast path: a duplicate read of a hot fingerprint with
  // no intervening delta resolves right here — no enqueue, no dispatcher,
  // no execution, no gate. The coherence snapshot is the engine's lock-free
  // atomic pair, so this races cleanly with a dispatcher applying deltas
  // (a torn read can only miss, never serve stale).
  QueryResponse cached;
  if (accepting_.load(std::memory_order_acquire) &&
      TryServeFromResultCache(r.fingerprint, engine_->Coherence(), &cached)) {
    // Hits on IVM-patched entries are accounted separately so the five-way
    // request identity (executed + coalesced + admission + window +
    // refreshed hits) stays exact.
    (cached.result_refreshed ? rc_refreshed_hits_ : rc_admission_hits_)
        .fetch_add(1, std::memory_order_relaxed);
    r.query_promise.set_value(std::move(cached));
    return f;
  }
  if (!Admit(&r, /*blocking=*/true)) {
    QueryResponse resp;
    resp.status = Status::FailedPrecondition("query service is shut down");
    r.query_promise.set_value(std::move(resp));
  }
  return f;
}

std::future<QueryResponse> QueryService::TrySubmit(RaExprPtr query) {
  Request r = MakeQueryRequest(std::move(query));
  std::future<QueryResponse> f = r.query_promise.get_future();
  QueryResponse cached;
  if (accepting_.load(std::memory_order_acquire) &&
      TryServeFromResultCache(r.fingerprint, engine_->Coherence(), &cached)) {
    (cached.result_refreshed ? rc_refreshed_hits_ : rc_admission_hits_)
        .fetch_add(1, std::memory_order_relaxed);
    r.query_promise.set_value(std::move(cached));
    return f;
  }
  if (!Admit(&r, /*blocking=*/false)) {
    QueryResponse resp;
    resp.status = Status::FailedPrecondition(
        "admission queue full (load shed) or service shut down");
    r.query_promise.set_value(std::move(resp));
  }
  return f;
}

QueryResponse QueryService::Query(RaExprPtr query) {
  return Submit(std::move(query)).get();
}

std::future<DeltaResponse> QueryService::SubmitDeltas(std::vector<Delta> deltas,
                                                      OverflowPolicy policy) {
  Request r;
  r.kind = Request::Kind::kDeltas;
  r.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  r.deltas = std::move(deltas);
  r.policy = policy;
  std::future<DeltaResponse> f = r.delta_promise.get_future();
  if (!Admit(&r, /*blocking=*/true)) {
    DeltaResponse resp;
    resp.status = Status::FailedPrecondition("query service is shut down");
    r.delta_promise.set_value(std::move(resp));
  }
  return f;
}

DeltaResponse QueryService::ApplyDeltas(std::vector<Delta> deltas,
                                        OverflowPolicy policy) {
  return SubmitDeltas(std::move(deltas), policy).get();
}

void QueryService::DispatchMain() {
  std::vector<Request> chunk;
  while (queue_.PopChunk(EffectiveWindow(), &chunk) > 0) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    auto t0 = std::chrono::steady_clock::now();
    ProcessChunk(&chunk);
    if (opts_.adaptive_batch_window) {
      // Chunk processing time is the adaptive window's coalescing horizon.
      window_.RecordDrain(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - t0)
              .count());
    }
    chunk.clear();
  }
}

Result<std::shared_ptr<const PreparedQuery>> QueryService::ResolvePin(
    const std::string& fingerprint, const RaExprPtr& query, bool* pin_hit) {
  *pin_hit = false;
  {
    MutexLock lk(&pin_mu_);
    auto it = pins_.find(fingerprint);
    if (it != pins_.end() && engine_->StillCoherent(*it->second)) {
      *pin_hit = true;
      pin_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Coherence moved (or first sight): resolve through the engine cache.
  // This is the only serving path that touches the plan-cache lock, and
  // data-only Apply batches never take it — that is the zero-re-prepare
  // guarantee serve_stress_test pins through stats().
  BQE_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> pq,
                       engine_->PrepareCompiled(query));
  repins_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lk(&pin_mu_);
  if (pins_.size() >= opts_.pin_capacity &&
      pins_.find(fingerprint) == pins_.end()) {
    // Drop stale pins first; a full map of live pins resets wholesale
    // (mirroring the engine cache's eviction policy).
    for (auto it = pins_.begin(); it != pins_.end();) {
      if (!engine_->StillCoherent(*it->second)) {
        it = pins_.erase(it);
      } else {
        ++it;
      }
    }
    if (pins_.size() >= opts_.pin_capacity) pins_.clear();
  }
  pins_[fingerprint] = pq;
  return pq;
}

bool QueryService::ConsumeDeferredRebuild(const std::string& fingerprint) {
  MutexLock lk(&maint_mu_);
  return maint_rebuild_pending_.erase(fingerprint) != 0;
}

bool QueryService::MaintenanceDeclined(const std::string& fingerprint) {
  MutexLock lk(&maint_mu_);
  return maint_declined_.count(fingerprint) != 0;
}

void QueryService::DeclineMaintenance(const std::string& fingerprint) {
  MutexLock lk(&maint_mu_);
  if (maint_declined_.insert(fingerprint).second) {
    maint_declines_.fetch_add(1, std::memory_order_relaxed);
  }
}

void QueryService::ProcessChunk(std::vector<Request>* chunk) {
  // Writes first: deltas admitted in the same batching window apply before
  // the window's reads execute (read-your-writes within one window). Across
  // windows there is no global order with more than one dispatcher —
  // concurrent dispatchers interleave freely; a client that needs a query
  // to observe its own earlier delta must wait on the delta's future first
  // (or run a single-dispatcher service). Each batch holds the exclusive
  // gate side — writer priority means it does not starve behind the read
  // storm.
  for (Request& r : *chunk) {
    if (r.kind != Request::Kind::kDeltas) continue;
    DeltaResponse resp;
    {
      WriterGateLock wl(&gate_);
      CoherenceSnapshot pre = engine_->Coherence();
      Result<MaintenanceStats> st = engine_->Apply(r.deltas, r.policy);
      if (st.ok()) {
        resp.stats = *st;
      } else {
        resp.status = st.status();
      }
      CoherenceSnapshot post = engine_->Coherence();
      if (opts_.result_cache && post != pre) {
        // The snapshot moved: push the applied batch through the cache while
        // still holding the exclusive side — executions (and therefore
        // Insert) are excluded, which is exactly Refresh's contract. A batch
        // that failed part-way, grew a bound (schema epoch moved), or runs
        // with maintenance disabled sweeps instead: stale tables leave the
        // byte budget now rather than at their next lookup.
        if (st.ok() && opts_.result_cache_refresh &&
            post.schema_epoch == pre.schema_epoch) {
          RefreshSummary sum = rcache_.Refresh(
              gate_, engine_->last_applied().deltas, pre, post);
          if (!sum.fallback_fingerprints.empty()) {
            // Fingerprints whose handles just proved churn-hostile: defer
            // their next (execution-priced) rebuild by one read, so a view
            // that falls back on every batch doesn't pay Build per batch
            // for a handle that never survives to a Refresh.
            MutexLock lk(&maint_mu_);
            for (std::string& fp : sum.fallback_fingerprints) {
              maint_rebuild_pending_.insert(std::move(fp));
            }
          }
        } else {
          rcache_.SweepStale(post);
        }
      }
      // The delta counters move inside the exclusive hold so a stats()
      // snapshot (which takes the read side) sees the engine's epoch bump
      // and these counters as one step — data_epoch == delta_batches holds
      // at every snapshot when all batches apply.
      delta_batches_.fetch_add(1, std::memory_order_relaxed);
      deltas_applied_.fetch_add(resp.stats.inserts + resp.stats.deletes,
                                std::memory_order_relaxed);
    }
    r.delta_promise.set_value(std::move(resp));
  }

  // Group same-fingerprint queries: one pin resolution + one execution per
  // group, fanned out to every caller as a shared immutable table.
  std::unordered_map<std::string_view, std::vector<Request*>> groups;
  std::vector<std::string_view> order;  // First-seen admission order.
  for (Request& r : *chunk) {
    if (r.kind != Request::Kind::kQuery) continue;
    auto [it, fresh] = groups.try_emplace(std::string_view(r.fingerprint));
    if (fresh) order.push_back(it->first);
    it->second.push_back(&r);
  }

  for (std::string_view fp : order) {
    std::vector<Request*>& group = groups[fp];
    Request* leader = group.front();
    QueryResponse resp;
    bool pin_hit = false;
    std::shared_ptr<const PhysicalPlan> maintainable;
    {
      ReaderGateLock rl(&gate_);
      // The shared hold excludes writers, so this snapshot is what the
      // execution below runs under — exactly the freshness a result
      // inserted against it can claim.
      CoherenceSnapshot snap = engine_->Coherence();
      // Dispatch-side cache re-check: an identical execution may have
      // completed (earlier window, other dispatcher) between this group's
      // admission and now.
      if (TryServeFromResultCache(leader->fingerprint, snap, &resp)) {
        (resp.result_refreshed ? rc_refreshed_hits_ : rc_window_hits_)
            .fetch_add(1, std::memory_order_relaxed);
      } else {
        Result<std::shared_ptr<const PreparedQuery>> pin =
            ResolvePin(leader->fingerprint, leader->query, &pin_hit);
        if (!pin.ok()) {
          resp.status = pin.status();
        } else if ((*pin)->info.covered) {
          // The pinned path: no plan-cache lock anywhere in here.
          Result<ExecuteResult> r = engine_->ExecutePrepared(
              **pin, leader->id, opts_.exec_threads);
          executed_.fetch_add(1, std::memory_order_relaxed);
          if (r.ok()) {
            resp.table = std::make_shared<const Table>(std::move(r->table));
            resp.used_bounded_plan = true;
            maintainable = (*pin)->physical;
          } else {
            resp.status = r.status();
          }
        } else {
          // Non-covered: the baseline fallback needs the original query, so
          // route through Execute() (its re-prepare is a cache hit). Still
          // one execution per coalesced group.
          Result<ExecuteResult> r = engine_->Execute(leader->query);
          executed_.fetch_add(1, std::memory_order_relaxed);
          if (r.ok()) {
            resp.table = std::make_shared<const Table>(std::move(r->table));
            resp.used_bounded_plan = r->used_bounded_plan;
          } else {
            resp.status = r.status();
          }
        }
        if (opts_.result_cache && resp.status.ok() && resp.table != nullptr) {
          // Covered executions with *demonstrated reuse* retain a
          // maintenance handle so the entry can be patched (instead of
          // invalidated) across delta batches. Build replays the plan's row
          // path once, serially, against the tables the execution just read
          // — legal under this shared hold, and the retained state is what
          // Refresh later patches in O(delta). But Build costs on the order
          // of the execution itself, so a one-shot fingerprint must not pay
          // it: a handle is built only from the second execution onward
          // (pin resolved from the map — this fingerprint executed before)
          // or when the window already coalesced duplicates behind the
          // leader. A plan Build declines (nullptr) simply caches without a
          // handle.
          std::unique_ptr<PlanMaintenance> maint;
          bool reused = pin_hit || group.size() > 1;
          if (opts_.result_cache_refresh && maintainable != nullptr &&
              reused && ConsumeDeferredRebuild(leader->fingerprint)) {
            // This fingerprint's handle died in the last batch's Refresh
            // (plan reported not-maintainable). Skip exactly one rebuild:
            // the entry is cached without a handle, and the *next*
            // execution — proof the fingerprint is still hot across
            // churn — rebuilds. A view invalidated on every batch thus
            // pays Build half as often, a view that survives churn pays
            // one extra recompute total.
            maint_lazy_rebuilds_.fetch_add(1, std::memory_order_relaxed);
          } else if (opts_.result_cache_refresh && maintainable != nullptr &&
                     reused && !MaintenanceDeclined(leader->fingerprint)) {
            // Size bound: a handle holding more than 1/8 of the whole
            // cache would evict several other entries just to exist, and
            // the resulting evict/re-execute/rebuild churn costs far more
            // than recomputing this one view per batch. The budget makes
            // Build abort as soon as retained state crosses the bound, so
            // the one-time refusal costs ~bound bytes of construction, not
            // a full replay; the fingerprint is then remembered and never
            // retried. The default 2 MiB ceiling keeps that refusal cost
            // flat as the cache budget grows; refresh-dominated
            // deployments raise result_cache_maint_bytes explicitly to
            // retain fat views on purpose.
            constexpr size_t kMaintBytesCap = 2u << 20;
            size_t maint_bound =
                opts_.result_cache_maint_bytes != 0
                    ? opts_.result_cache_maint_bytes
                    : std::min(kMaintBytesCap, opts_.result_cache_bytes / 8);
            bool oversized = false;
            maint = PlanMaintenance::Build(gate_, maintainable, *resp.table,
                                           maint_bound, &oversized);
            if (oversized) DeclineMaintenance(leader->fingerprint);
          }
          // Insert under the same gate hold the execution ran in: `snap`
          // cannot have moved, so coalesced callers and later windows share
          // this one immutable table until the next delta batch.
          rcache_.Insert(leader->fingerprint, snap,
                         ResultCache::CachedResult{resp.table,
                                                   resp.used_bounded_plan,
                                                   /*refreshed=*/false},
                         std::move(maint));
        }
      }
    }
    resp.pin_hit = pin_hit;
    for (size_t i = 0; i < group.size(); ++i) {
      QueryResponse out = resp;  // Copies status + shares the table.
      out.coalesced = i > 0;
      if (i > 0) coalesced_.fetch_add(1, std::memory_order_relaxed);
      group[i]->query_promise.set_value(std::move(out));
    }
  }
}

ServiceStats QueryService::stats() const {
  // One consistent pass (not a loose pile of atomic reads): holding the
  // read side of the writer gate means no delta batch is mid-apply, so the
  // engine's epochs, the delta counters (bumped inside the exclusive hold),
  // and the result-cache state can never be observed torn against each
  // other. Readers (executions) share the gate side with us, so this never
  // blocks serving — at worst it queues behind a writer like any read.
  ReaderGateLock rl(&gate_);
  ServiceStats s;
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.executed = executed_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.delta_batches = delta_batches_.load(std::memory_order_relaxed);
  s.deltas_applied = deltas_applied_.load(std::memory_order_relaxed);
  s.pin_hits = pin_hits_.load(std::memory_order_relaxed);
  s.repins = repins_.load(std::memory_order_relaxed);
  s.freezes = freezes_.load(std::memory_order_relaxed);
  s.queue_depth = queue_.size();
  s.batch_window = EffectiveWindow();
  s.result_hits_admission = rc_admission_hits_.load(std::memory_order_relaxed);
  s.result_hits_window = rc_window_hits_.load(std::memory_order_relaxed);
  s.result_hits_refreshed = rc_refreshed_hits_.load(std::memory_order_relaxed);
  s.maint_declined = maint_declines_.load(std::memory_order_relaxed);
  s.maint_lazy_rebuilds = maint_lazy_rebuilds_.load(std::memory_order_relaxed);
  CoherenceSnapshot snap = engine_->Coherence();
  s.schema_epoch = snap.schema_epoch;
  s.data_epoch = snap.data_epoch;
  s.result_cache = rcache_.stats();
  s.engine = engine_->plan_cache_stats();
  return s;
}

}  // namespace serve
}  // namespace bqe
