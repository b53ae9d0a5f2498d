#ifndef BQE_CORE_ENGINE_H_
#define BQE_CORE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "baseline/eval.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "constraints/access_schema.h"
#include "constraints/index.h"
#include "constraints/maintain.h"
#include "core/cov.h"
#include "core/minimize.h"
#include "core/plan.h"
#include "core/plan_exec.h"
#include "exec/physical_plan.h"
#include "ra/normalize.h"
#include "storage/database.h"

namespace bqe {

/// Configuration of the bounded-evaluation framework (Section 7, Figure 4).
struct EngineOptions {
  /// C3: minimize the access schema before planning.
  bool minimize = true;
  MinimizeAlgo minimize_algo = MinimizeAlgo::kGreedy;
  /// Try the A-equivalence rewriter when a query is not covered.
  bool rewrite = true;
  /// Fall back to the conventional evaluator for non-covered queries
  /// (when false, Execute returns NotCovered instead).
  bool baseline_fallback = true;
  /// Cache prepared queries (coverage + minimization + plan + compiled
  /// physical plan) keyed by query fingerprint and the bounds/schema
  /// epoch, so a repeated Execute() of the same query skips C2-C4
  /// entirely — including across data-only Apply() batches.
  bool plan_cache = true;
  /// Max cached prepared queries; incoherent entries are evicted first.
  size_t plan_cache_capacity = 256;
  /// Execution threads for bounded plans: 1 = serial, >1 = morsel-driven
  /// parallel execution, 0 = auto (hardware concurrency, capped).
  size_t exec_threads = 0;
  /// Adaptive micro-plan fallback threshold (total fetch-index entries at or
  /// below which the row-at-a-time interpreter runs instead of the
  /// vectorized executor — per-operator batch setup dominates below it;
  /// tuned on bench_fig5_scale). 0 disables.
  size_t row_path_threshold = 8192;
  /// Mirror patch budget per AccessIndex: in-place patches a frozen fetch
  /// mirror absorbs since its last full (re)build before it is invalidated
  /// and lazily rebuilt. A forced rebuild also truncates the index's bucket
  /// patch log, pushing IVM refresh (exec/ivm) through its wholesale
  /// re-resolution fallback — so churn-heavy deployments with hot
  /// maintained views may raise this beyond the auto formula. 0 = auto
  /// (a quarter of the index's base store + 64).
  size_t mirror_patch_budget = 0;
};

/// Everything Prepare() learns about a query.
struct PrepareInfo {
  bool covered = false;
  bool used_rewrite = false;
  /// Number of constraints the (possibly minimized) plan relies on.
  size_t constraints_used = 0;
  CoverageReport report;
  BoundedPlan plan;          ///< Valid when covered.
  std::string sql;           ///< Plan2SQL output, when covered (Prepare only).
  std::string explanation;   ///< Human-readable coverage explanation.
};

/// Lock-free coherence snapshot for *result* caches layered on the engine
/// (serve/result_cache.h): a materialized query answer is valid exactly
/// while both components are unchanged — `schema_epoch` moves on schema-
/// level events (BuildIndices, bound growth), `data_epoch` once per
/// applied delta batch. Both components are read from atomics the engine
/// stamps at the end of every mutating call, so Coherence() is safe to
/// call with no lock and no gate (e.g. at serving-layer admission time,
/// concurrently with a dispatcher applying deltas); the two loads are not
/// sealed against each other, but a torn pair can only *mismatch* a
/// stamped key — a spurious cache miss, never a stale hit.
struct CoherenceSnapshot {
  uint64_t schema_epoch = 0;
  uint64_t data_epoch = 0;

  bool operator==(const CoherenceSnapshot& o) const {
    return schema_epoch == o.schema_epoch && data_epoch == o.data_epoch;
  }
  bool operator!=(const CoherenceSnapshot& o) const { return !(*this == o); }
};

/// Coherence snapshot of one AccessIndex a compiled plan binds, taken at
/// prepare time. The pointer is only dereferenced while the schema epoch it
/// was prepared under is still current (BuildIndices() replaces the IndexSet
/// and bumps that epoch, so stale pointers are never chased).
struct BoundIndexSnapshot {
  const AccessIndex* index = nullptr;  ///< Relation via index->constraint().
  uint64_t mirror_generation = 0;      ///< AccessIndex::mirror_generation().
};

/// A fully prepared query: the Prepare() analysis plus the compiled
/// physical plan, reusable across executions. This is what the engine's
/// plan cache stores; the compiled plan borrows index bindings from the
/// engine's IndexSet and must not outlive the engine.
///
/// Coherence is schema-granular: `schema_epoch` keys the entry to the
/// bounds/schema state (BuildIndices + any SetBound), and `bound_indices`
/// records the plan's read set over the index layer so heavy churn on one
/// relation (a mirror rebuild past the patch budget) re-validates only the
/// plans touching it. Data-only deltas invalidate nothing: the plan binds
/// live AccessIndices whose mirrors are patched in place.
struct PreparedQuery {
  PrepareInfo info;
  std::shared_ptr<const PhysicalPlan> physical;  ///< Set when covered.
  uint64_t schema_epoch = 0;  ///< Engine bounds/schema epoch at prepare.
  std::vector<BoundIndexSnapshot> bound_indices;  ///< Covered plans only.
};

/// Plan-cache observability counters. This is a *snapshot* struct: the
/// engine keeps the live counters in atomics, so plan_cache_stats() reads
/// them without the cache lock and is safe to poll from a stats endpoint
/// while other threads execute. Each counter is individually coherent; the
/// set as a whole is not sealed against increments between the four reads.
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Misses that found a cached entry and threw it away as incoherent
  /// (schema epoch moved, or a bound index's mirror rebuilt). First-time
  /// preparations are plain misses; this counts re-prepare storms, and the
  /// cache-coherence stress test pins it at zero across data-only deltas.
  uint64_t reprepares = 0;
  /// Pipeline-breaker build observability, accumulated over bounded
  /// executions (ExecutePrepared / covered Execute): how many breaker build
  /// phases ran, how many took the two-phase partitioned path vs the serial
  /// fallback, and their total build-phase wall time in microseconds
  /// (ExecStats::BuildStats folded into the engine's lock-free counters, so
  /// a stats endpoint can watch build parallelism engage without touching
  /// per-request stats). Only parallel executions (num_threads > 1, the
  /// default under EffectiveThreads on multicore hosts) decompose build
  /// phases — single-threaded executions leave these untouched, so zeros
  /// here mean "no parallel executions", not "no breakers". The serving
  /// layer re-exports these via ServiceStats::engine.
  uint64_t breaker_builds = 0;
  uint64_t partitioned_builds = 0;
  uint64_t serial_builds = 0;
  uint64_t build_us = 0;
  /// Breaker builds whose partition count came from the plan's observed
  /// build-size EWMA and differed from what the compile-time est_rows hint
  /// would have picked — i.e. how often feedback corrected a stale hint on
  /// a cached plan whose build sides grew or shrank under data-only deltas.
  uint64_t build_feedback_repicks = 0;
};

/// The delta batch behind the engine's most recent data-epoch bump: the
/// cleanly applied prefix of the last Apply() call that applied anything,
/// tagged with the epoch it produced. Incremental view maintenance layered
/// on results (serve/result_cache + exec/ivm) drives cache refreshes from
/// this instead of re-deriving what a batch did.
struct AppliedBatch {
  std::vector<Delta> deltas;
  uint64_t data_epoch = 0;  ///< DataEpoch() right after the bump; 0 = never.
};

/// Result of Execute().
struct ExecuteResult {
  Table table;
  bool used_bounded_plan = false;
  bool plan_cache_hit = false;   ///< Prepare/compile skipped via the cache.
  ExecStats bounded_stats;       ///< Valid when used_bounded_plan.
  BaselineStats baseline_stats;  ///< Valid otherwise.
};

/// The bounded-evaluation framework of Section 7: owns the access schema A
/// and its indices I_A over one database, checks coverage (C2), minimizes
/// access (C3), generates plans (C4), translates them to SQL (C5), and
/// evaluates queries through the indices (C6), falling back to conventional
/// evaluation for non-covered queries.
///
/// Repeated queries take the fast path: PrepareCompiled() memoizes the full
/// C2-C4 pipeline plus physical-plan compilation behind a fingerprint
/// (printed algebra form + exact type-tagged constant encoding) keyed to
/// the *bounds/schema epoch*. Boundedness is a property of the access
/// schema, not the data: data-only Apply() batches leave every cached plan
/// valid (bound AccessIndex mirrors are patched in place and the row-path
/// decision is re-taken per execution), so delta+query interleavings keep
/// their cache hits. Only schema-level events invalidate: BuildIndices()
/// (bumps SchemaEpoch and replaces the IndexSet) and bound changes
/// (SetBound under OverflowPolicy::kGrow, folded in via
/// IndexSet::BoundsEpoch()); additionally a plan is re-prepared when one of
/// *its own* bound indices rebuilt its mirror past the patch budget
/// (per-relation re-validation via BoundIndexSnapshot).
///
/// Concurrency: concurrent const calls (Execute/Prepare/PrepareCompiled)
/// are safe — the plan cache is internally locked and lazy index freezes
/// are serialized per index. The mutating calls (BuildIndices/Apply) must
/// be externally serialized against everything else, like any writer.
class BoundedEngine {
 public:
  BoundedEngine(Database* db, AccessSchema schema, EngineOptions options = {});

  /// C1: builds all indices. Must be called before Prepare/Execute.
  /// Fails with ConstraintViolation if the data does not satisfy A.
  Status BuildIndices();

  /// C2-C5 for one query (uncached analysis; no compilation), with the
  /// plan's SQL rendering in PrepareInfo::sql.
  Result<PrepareInfo> Prepare(const RaExprPtr& query) const;

  /// Cached C2-C4 + physical compilation. `cache_hit` (optional) reports
  /// whether the cached entry was reused. Serving never reads the SQL, so
  /// the result's info.sql is left empty (render it with PlanToSql).
  Result<std::shared_ptr<const PreparedQuery>> PrepareCompiled(
      const RaExprPtr& query, bool* cache_hit = nullptr) const;

  /// The plan-cache key of `query`: printed algebra form plus an exact
  /// type-tagged encoding of every predicate constant. Two queries with
  /// equal fingerprints prepare (and answer) identically under a fixed
  /// catalog and bounds/schema epoch — which is what lets the serving
  /// layer coalesce same-fingerprint requests behind one execution and
  /// key its pin map consistently with this cache.
  static std::string QueryFingerprint(const RaExprPtr& query);

  /// Full pipeline: bounded plan when covered (after optional rewriting),
  /// baseline otherwise.
  Result<ExecuteResult> Execute(const RaExprPtr& query) const;

  /// Executes an already prepared — and possibly *pinned* — covered query
  /// against the live indices, never touching the plan cache or its lock.
  /// This is the serving layer's execution path: it pins the shared_ptr
  /// <const PreparedQuery> from PrepareCompiled() across data-only Apply()
  /// batches and executes through this, so query execution is lock-free
  /// with respect to the cache even while the cache churns. `task_tag`
  /// labels the execution's morsel work in the shared WorkerPool (see
  /// ExecOptions::task_tag). Fails with FailedPrecondition for non-covered
  /// preparations (those need the original query for the baseline fallback
  /// — route them through Execute()). The pinned plan stays *correct*
  /// across data-only deltas even when StillCoherent() turns false (its
  /// AccessIndex bindings are live; a blown patch budget just means the
  /// next execution pays a mirror rebuild) — incoherence only means the
  /// cache would no longer hand it out. `num_threads` (0 = the engine's
  /// own EffectiveThreads) lets a serving layer with several dispatchers
  /// partition morsel workers across concurrent executions instead of
  /// oversubscribing every request onto the full pool.
  Result<ExecuteResult> ExecutePrepared(const PreparedQuery& pq,
                                        uint64_t task_tag = 0,
                                        size_t num_threads = 0) const;

  /// True when a PreparedQuery previously returned by PrepareCompiled()
  /// would still be served from the cache: the bounds/schema epoch is
  /// unchanged and none of its bound indices rebuilt their mirror. Lock-
  /// free (atomic mirror-generation reads); callers must hold the read
  /// side of the serving discipline, like any const engine call.
  bool StillCoherent(const PreparedQuery& pq) const {
    return IsCoherent(pq, SchemaEpoch());
  }

  /// Incremental maintenance of D, A and I_A (Proposition 12). Bumps the
  /// *data* epoch — and only when something was actually applied (a cleanly
  /// rejected batch leaves all cached state coherent). Cached plans stay
  /// valid and keep serving hits; they re-prepare only if the batch changed
  /// a bound (kGrow) or blew a bound index's mirror patch budget.
  Result<MaintenanceStats> Apply(const std::vector<Delta>& deltas,
                                 OverflowPolicy policy = OverflowPolicy::kGrow);

  /// The applied batch behind the latest data-epoch bump (empty with epoch
  /// 0 before the first one). Plain state written by Apply(): read it under
  /// the same external writer serialization as Apply itself — the serving
  /// layer does, inside the exclusive writer-gate hold of the batch it is
  /// routing into result maintenance.
  const AppliedBatch& last_applied() const { return last_applied_; }

  const AccessSchema& schema() const { return schema_; }
  const IndexSet& indices() const { return indices_; }
  const Database& db() const { return *db_; }

  /// Index footprint in tuples (compared against |D| in Exp-1(IV)).
  size_t IndexFootprint() const { return indices_.TotalEntries(); }

  /// Bounds/schema epoch: the plan-cache coherence key. Moves on
  /// BuildIndices() and on any bound change (IndexSet::BoundsEpoch(), i.e.
  /// SetBound — in practice OverflowPolicy::kGrow raising an N). Data-only
  /// maintenance leaves it unchanged.
  uint64_t SchemaEpoch() const { return schema_epoch_ + indices_.BoundsEpoch(); }

  /// Data epoch: bumped once per Apply() batch that applied at least one
  /// delta (fully or partially). Cached plans are *not* keyed on it — it
  /// exists for observability and for external caches layered on results.
  /// Atomic: safe to read with no lock while a serialized writer runs
  /// Apply() on another thread.
  uint64_t DataEpoch() const {
    return data_epoch_.load(std::memory_order_acquire);
  }

  /// Lock-free (schema_epoch, data_epoch) pair for result caches; see
  /// CoherenceSnapshot. Unlike SchemaEpoch() — which sums plain per-index
  /// bound counters and therefore needs the same external serialization as
  /// any const engine call racing a writer — this reads only atomics the
  /// mutating calls stamp on completion, so it is safe at serving-layer
  /// admission time concurrently with BuildIndices()/Apply().
  CoherenceSnapshot Coherence() const {
    return CoherenceSnapshot{schema_stamp_.load(std::memory_order_acquire),
                             data_epoch_.load(std::memory_order_acquire)};
  }

  /// Lock-free counter snapshot; see PlanCacheStats. Safe to poll
  /// concurrently with Execute/PrepareCompiled on other threads.
  PlanCacheStats plan_cache_stats() const;
  size_t plan_cache_size() const;
  void ClearPlanCache();

 private:
  size_t EffectiveThreads() const;

  /// Prepare() without the SQL rendering: PrepareInfo::sql stays empty.
  Result<PrepareInfo> PlanQuery(const RaExprPtr& query) const;

  /// True when a cached entry may still be served under the current
  /// bounds/schema epoch: the epoch matches and none of the plan's bound
  /// indices rebuilt their mirror since prepare time.
  bool IsCoherent(const PreparedQuery& pq, uint64_t schema_epoch) const;

  Database* db_;
  AccessSchema schema_;
  EngineOptions options_;
  IndexSet indices_;
  bool indices_built_ = false;
  uint64_t schema_epoch_ = 0;  ///< Bumped by BuildIndices().
  /// Bumped by Apply() batches that applied; atomic for Coherence().
  std::atomic<uint64_t> data_epoch_{0};
  AppliedBatch last_applied_;  ///< See last_applied().
  /// Mirror of SchemaEpoch() refreshed by the mutating calls (BuildIndices/
  /// Apply) after the IndexSet settles, so Coherence() never walks the
  /// plain per-index bound counters. May lag SchemaEpoch() only while a
  /// writer is mid-flight — a window in which a result keyed on the stale
  /// stamp can only miss, never serve stale.
  std::atomic<uint64_t> schema_stamp_{0};

  mutable Mutex cache_mu_;
  mutable std::unordered_map<std::string, std::shared_ptr<const PreparedQuery>>
      cache_ GUARDED_BY(cache_mu_);
  /// Live counters behind plan_cache_stats(). Atomics, not a PlanCacheStats
  /// under the lock: the stats endpoint polls them concurrently with the
  /// hot cache path, and a snapshot must not contend with it.
  mutable std::atomic<uint64_t> stat_hits_{0};
  mutable std::atomic<uint64_t> stat_misses_{0};
  mutable std::atomic<uint64_t> stat_evictions_{0};
  mutable std::atomic<uint64_t> stat_reprepares_{0};
  mutable std::atomic<uint64_t> stat_breaker_builds_{0};
  mutable std::atomic<uint64_t> stat_partitioned_builds_{0};
  mutable std::atomic<uint64_t> stat_serial_builds_{0};
  mutable std::atomic<uint64_t> stat_build_us_{0};
  mutable std::atomic<uint64_t> stat_feedback_repicks_{0};
};

}  // namespace bqe

#endif  // BQE_CORE_ENGINE_H_
