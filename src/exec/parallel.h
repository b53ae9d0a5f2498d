#ifndef BQE_EXEC_PARALLEL_H_
#define BQE_EXEC_PARALLEL_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/status.h"
#include "exec/exec_stats.h"
#include "exec/physical_plan.h"
#include "storage/table.h"

namespace bqe {

/// A lazily grown, process-wide pool of execution worker threads scheduling
/// *tagged task groups*: each ParallelFor call registers one group of
/// independent items, and any number of groups run concurrently — pool
/// threads pick one item at a time round-robin across the active groups, so
/// concurrent queries fair-share the pool instead of serializing behind a
/// single global morsel loop. The calling thread always participates as its
/// own group's worker 0 (and only that group's), so every group makes
/// progress even with zero free pool threads — concurrent callers can never
/// deadlock on each other — and `ParallelFor(n, 1, fn)` degenerates to a
/// plain loop with no cross-thread traffic.
class WorkerPool {
 public:
  /// Upper bound on pool threads (and thus on useful ExecOptions::
  /// num_threads). Far above any sane bounded-plan fan-out.
  static constexpr size_t kMaxThreads = 16;

  /// Per-group scheduling parameters.
  struct GroupOptions {
    /// Max concurrent workers in this group, *including* the caller.
    /// Clamped to [1, min(kMaxThreads, n)].
    size_t workers = 1;
    /// Identity tag (e.g. a request id) carried for observability; the
    /// serving layer tags each query's morsel work with its request id
    /// (threaded through ExecOptions::task_tag) so concurrent requests are
    /// distinguishable task groups rather than one anonymous queue.
    uint64_t tag = 0;
  };

  /// Cumulative scheduling counters (guarded snapshot; see stats()).
  struct PoolStats {
    uint64_t groups = 0;        ///< Task groups ever registered.
    uint64_t items = 0;         ///< Items executed (callers + pool threads).
    uint64_t pool_items = 0;    ///< Items executed by pool threads alone.
    uint64_t max_concurrent_groups = 0;  ///< High-water concurrent groups.
  };

  /// The shared pool. Threads are created on first use and grown on demand
  /// (toward the combined worker demand of the active groups) up to
  /// kMaxThreads - 1 pool threads (each caller is its group's extra worker).
  static WorkerPool& Shared();

  ~WorkerPool();

  /// Runs fn(worker_id, item) for every item in [0, n) as one task group,
  /// distributed dynamically (morsel stealing via an atomic cursor) over at
  /// most opts.workers workers including the calling thread. Worker ids are
  /// dense in [0, workers). Blocks until all items finish; rethrows the
  /// first exception any worker threw (remaining items are curtailed).
  /// Reentrant: concurrent calls from different threads run concurrently.
  void ParallelFor(size_t n, const GroupOptions& opts,
                   const std::function<void(size_t, size_t)>& fn);

  /// Untagged convenience overload (pre-serving API, kept for direct
  /// executor callers and tests).
  void ParallelFor(size_t n, size_t workers,
                   const std::function<void(size_t, size_t)>& fn) {
    ParallelFor(n, GroupOptions{workers, 0}, fn);
  }

  PoolStats stats() const;

 private:
  WorkerPool();  // Constructs Impl eagerly: ParallelFor is reentrant, so a
                 // lazy first-use init would race between concurrent callers.
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  struct Impl;  // Out of line so the header stays light.
  Impl* impl_;
};

/// Morsel-driven parallel execution of a compiled plan: workers pull
/// batch-range morsels of each pipeline's source through fused
/// fetch→filter→project→probe stages with per-worker reusable scratch.
/// Pipeline breakers (hash-join build sides, difference exclusion sets,
/// set-op dedupe merges) run the *two-phase partitioned build* when the
/// compile-time estimate picked a partition count and the materialized
/// build clears ExecOptions::partitioned_build_min_rows: workers
/// radix-scatter the build rows by key-hash prefix into per-task
/// per-partition slices, then build one independent KeyTable per partition
/// in parallel, with probes routed by the same hash so the probe path
/// stays lock-free; small builds fall back to the serial single-partition
/// build on the calling thread. Set-semantics breakers keep the per-morsel
/// local dedupe and emit through an ordered merge (flag-gather under the
/// partitioned build). Per-thread ExecStats are merged at the end;
/// breaker build phases are timed in ExecStats::build. The produced row
/// stream is byte-identical to the serial executor's on every path.
/// Callers must have frozen all fetch indices (ExecutePhysicalPlan does
/// this before dispatching here).
Result<Table> ExecutePhysicalPlanParallel(const PhysicalPlan& plan,
                                          ExecStats* stats,
                                          const ExecOptions& opts);

}  // namespace bqe

#endif  // BQE_EXEC_PARALLEL_H_
