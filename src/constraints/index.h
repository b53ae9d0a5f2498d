#ifndef BQE_CONSTRAINTS_INDEX_H_
#define BQE_CONSTRAINTS_INDEX_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "constraints/access_constraint.h"
#include "constraints/access_schema.h"
#include "exec/column_batch.h"
#include "exec/key_codec.h"
#include "storage/database.h"

namespace bqe {

/// One gather segment of a frozen-mirror bucket: either a contiguous row
/// range [begin, end) of `batch` (rows == nullptr) or an explicit row-id
/// list rows[0..n). A bucket resolves to at most two segments (base rows in
/// the frozen entry store, then rows appended by incremental patches).
struct FrozenSegment {
  const ColumnBatch* batch = nullptr;
  uint32_t begin = 0, end = 0;     // Used when rows == nullptr.
  const uint32_t* rows = nullptr;  // Else rows[0..n) index into `batch`.
  uint32_t n = 0;

  size_t NumRows() const { return rows != nullptr ? n : end - begin; }
};

/// One signed bucket mutation, as recorded by the mirror patch log (see
/// AccessIndex::PatchLogSince): the distinct XY-entry `row` appeared
/// (sign +1) in, or disappeared (sign -1) from, the fetch bucket of `key`.
/// Exactly the events that patch the frozen mirror — refcount-only changes
/// (a duplicate insert, a non-final delete) do not alter the distinct
/// bucket and are not logged.
struct BucketPatch {
  Tuple key;
  Tuple row;
  int32_t sign = 0;
};

/// The index embedded in one access constraint R(X -> Y, N) (Section 7):
/// a hash map from X-values to the distinct XY-projections that occur in the
/// instance, i.e. the partial table T_XY with a hash index on X. Entries are
/// reference-counted so tuple deletions maintain distinctness exactly
/// (Proposition 12).
class AccessIndex {
 public:
  /// Builds the index for `constraint` over `table` in O(|table|) time.
  static Result<AccessIndex> Build(const Table& table,
                                   const AccessConstraint& constraint);

  const AccessConstraint& constraint() const { return constraint_; }

  /// The distinct XY-rows for one X-value; at most `violation_` many more
  /// than N when the instance violates the constraint. The returned rows
  /// are X columns followed by Y columns (constraint attribute order).
  /// `accessed` (optional) is incremented by the number of rows returned.
  std::vector<Tuple> Fetch(const Tuple& xkey, uint64_t* accessed = nullptr) const;

  /// Batch-native fetch: appends the same rows directly into `out` (whose
  /// columns must match output_types()), skipping the intermediate
  /// std::vector<Tuple>. Returns the number of rows appended.
  size_t FetchInto(const Tuple& xkey, ColumnBatch* out,
                   uint64_t* accessed = nullptr) const;

  /// Builds the key-encoded columnar mirror if it is not currently valid.
  /// The mirror is maintained incrementally by ApplyInsert/ApplyDelete
  /// (affected buckets are patched in place); only when the patch budget is
  /// exhausted is it invalidated and rebuilt here from scratch.
  ///
  /// Concurrency: EnsureFrozen() itself is internally synchronized, so
  /// concurrent *readers* (parallel Execute calls) are safe; afterwards
  /// FrozenProbe/FrozenEntries are plain const reads. Maintenance
  /// (ApplyInsert/ApplyDelete/SetBound) is NOT synchronized against readers
  /// and must be externally serialized with query execution, as with any
  /// writer on this index.
  void EnsureFrozen() const;

  /// The *raw base store* of the mirror: the distinct XY-rows present at
  /// the last full freeze, in bucket order. NOT the complete mirror once
  /// incremental patches have been applied — rows inserted since live in a
  /// separate overflow store, and deleted rows are still physically present
  /// here (only the patched bucket's row list drops them). Resolve buckets
  /// through FrozenProbe(); this accessor exists for diagnostics and tests.
  /// Calls EnsureFrozen().
  const ColumnBatch& FrozenEntries() const;

  /// Looks up an encoded X-key (AppendEncodedTuple/AppendEncodedKey layout)
  /// in the frozen mirror and emits the bucket's rows as gather segments
  /// into out[0..2). Returns the number of segments (0 when the key is
  /// absent or its bucket is empty). Callers must EnsureFrozen() first.
  size_t FrozenProbe(std::string_view encoded_xkey,
                     FrozenSegment out[2]) const;

  /// Static column types of fetched rows: X attribute types then Y attribute
  /// types, from the indexed relation's schema. The vectorized executor uses
  /// this to type fetch-step batches without sniffing data.
  const std::vector<ValueType>& output_types() const { return output_types_; }

  /// True if some X-value currently exceeds N distinct Y-values.
  bool HasViolation() const { return violating_keys_ > 0; }

  /// Maximum group size currently present (the tight N for this instance).
  int64_t MaxGroupSize() const;

  /// Number of (X, XY-row) entries — the index footprint in tuples.
  size_t NumEntries() const { return num_entries_; }
  size_t NumKeys() const { return buckets_.size(); }

  /// Monotonic mutation counter: bumped by every ApplyInsert/ApplyDelete/
  /// SetBound. Snapshot it at freeze time; an unchanged epoch guarantees the
  /// frozen mirror still reflects the index (fan-out coherence).
  uint64_t epoch() const { return data_epoch_ + bounds_epoch_; }

  /// Data-side mutation counter: bumped by ApplyInsert/ApplyDelete only.
  /// Data deltas leave a compiled plan *correct* (the plan binds this live
  /// index, and the mirror is patched in place), so the engine's plan cache
  /// deliberately ignores this counter.
  uint64_t data_epoch() const { return data_epoch_; }

  /// Bounds-side mutation counter: bumped by SetBound only. A changed bound
  /// is a schema-level event — coverage, minimization and plan costs may
  /// shift — so the engine folds this into its bounds/schema epoch and
  /// invalidates cached plans.
  uint64_t bounds_epoch() const { return bounds_epoch_; }

  /// Mirror coherence generation: the number of full mirror (re)builds,
  /// counting a pending one (patch budget blown, rebuild deferred to the
  /// next EnsureFrozen) as already having happened. A cached plan snapshots
  /// this per bound index at prepare time; a changed generation means the
  /// relation churned past its patch budget and the engine re-validates
  /// exactly the plans touching it. A single atomic load — safe against
  /// concurrent lazy freezes and never blocks behind one (the engine reads
  /// it under its cache lock on every lookup).
  uint64_t mirror_generation() const {
    return mirror_gen_->load(std::memory_order_acquire);
  }

  /// Patches applied to the mirror since its last full (re)build. Test /
  /// diagnostics accessor for the budget accounting.
  size_t mirror_patch_ops() const;

  /// Overrides the mirror patch budget: how many in-place patches the
  /// frozen mirror absorbs since its last full (re)build before it is
  /// invalidated and lazily rebuilt — which also truncates the bucket
  /// patch log below, forcing log consumers through their wholesale
  /// fallback. 0 (the default) selects the auto budget, a quarter of the
  /// base store plus slack (entries/4 + 64). Counts as maintenance:
  /// externally serialize against readers like any writer.
  void set_mirror_patch_budget(size_t budget) {
    mirror_patch_budget_ = budget;
  }
  size_t mirror_patch_budget() const { return mirror_patch_budget_; }

  /// Current position of the bucket patch log: the sequence number the
  /// *next* logged event will take. Snapshot it when retaining fetch
  /// buckets; PatchLogSince(stamp, ...) later replays exactly what changed.
  /// Same external-serialization contract as PatchLogSince().
  uint64_t patch_log_stamp() const { return patch_log_end_; }

  /// Appends the signed bucket mutations logged in [stamp, now) to `out`
  /// (in application order) and returns true; returns false — appending
  /// nothing — when events since `stamp` were dropped because a
  /// budget-forced mirror rebuild truncated the log, in which case the
  /// consumer must re-resolve its retained buckets wholesale and restart
  /// from patch_log_stamp(). Maintenance-side read: callers must hold the
  /// same external writer discipline as ApplyInsert/ApplyDelete (the
  /// serving layer reads it inside the exclusive gate hold of the batch
  /// that produced the events).
  bool PatchLogSince(uint64_t stamp, std::vector<BucketPatch>* out) const;

  /// Serving-layer freeze observability: invoked under the freeze mutex
  /// after every full mirror (re)build EnsureFrozen() performs, i.e. each
  /// time a lazy rebuild actually fires on a probe path. The QueryService
  /// installs one per index so freezes that happen *during serving* (a
  /// patch budget blown by delta churn, paid by the next execution touching
  /// that relation) surface in its stats instead of hiding inside
  /// execution latency. The hook must be fast and must not
  /// re-enter this index. Installing (SetFreezeHook) counts as maintenance:
  /// externally serialize it against readers like any writer.
  using FreezeHook = std::function<void(const AccessIndex&)>;
  void SetFreezeHook(FreezeHook hook) const;

  /// Projection of a full base-relation row onto the constraint's X
  /// columns — the probe key Fetch() expects. Result-maintenance layers
  /// (exec/ivm) classify a base-table delta row with this: the key it
  /// returns names the only fetch bucket the delta can have changed.
  Tuple FetchKeyOf(const Tuple& row) const { return KeyOf(row); }

  /// Incremental maintenance on a base-table insert/delete of `row`
  /// (full-width row of the indexed relation). O(1) expected per call; the
  /// frozen columnar mirror is patched in place (the affected bucket only)
  /// rather than invalidated, so delta+query interleavings stay O(1) per
  /// delta until the patch budget forces a rebuild.
  Status ApplyInsert(const Tuple& row);
  Status ApplyDelete(const Tuple& row);

  /// Raises/lowers the cardinality bound and recomputes the violation count
  /// (O(number of keys); used only on rare maintenance events).
  void SetBound(int64_t n);

 private:
  AccessIndex() = default;

  Tuple KeyOf(const Tuple& row) const;
  Tuple EntryOf(const Tuple& row) const;

  /// Columnar mirror for batch fetches; see EnsureFrozen().
  struct Frozen {
    bool valid = false;
    KeyTable keys;                     // Encoded X-key -> group id.
    std::vector<uint32_t> start, end;  // Group id -> base entry row range.
    ColumnBatch entries;               // Base store: rows at last full freeze.
    ColumnBatch extra;                 // Overflow store: patched-in rows.
    /// Explicit row lists for buckets modified since the last full freeze.
    /// `base` rows index `entries`, `extra` rows index `extra`; the bucket's
    /// row stream is base-then-extra.
    struct PatchedGroup {
      std::vector<uint32_t> base, extra;
    };
    std::unordered_map<uint32_t, PatchedGroup> patched;
    size_t patch_ops = 0;  // Budget: rebuild once patches pile up.
    uint64_t rebuilds = 0;  // Full (re)builds completed; see mirror_generation().
  };

  void BuildFrozen() const;
  /// Marks the mirror invalid (rebuild pending) and advances the coherence
  /// generation. Only called on a valid mirror, so each call is one
  /// valid -> invalid transition.
  void InvalidateMirror() const;
  /// Patches the mirror for one inserted/deleted distinct entry. Falls back
  /// to invalidation when the patch budget is exhausted (or on any
  /// inconsistency, defensively).
  void PatchFrozenInsert(const Tuple& xkey, const Tuple& entry) const;
  void PatchFrozenDelete(const Tuple& xkey, const Tuple& entry) const;
  Frozen::PatchedGroup& MaterializePatch(uint32_t group) const;
  bool PatchBudgetExceeded() const;
  /// Records one distinct-entry transition in the bucket patch log (or
  /// keeps the log truncated while a rebuild is pending — a log no consumer
  /// may trust must not grow without bound under write-only traffic).
  void LogBucketPatch(const Tuple& key, const Tuple& row, int32_t sign);
  /// Drops all retained events; stale stamps then read as truncated.
  void TruncatePatchLog() const;

  AccessConstraint constraint_;
  std::vector<int> x_idx_;   // Column indices of X in the base schema.
  std::vector<int> y_idx_;   // Column indices of Y.
  std::vector<ValueType> output_types_;  // Types of X then Y columns.
  // X-value -> (XY-row -> refcount).
  std::unordered_map<Tuple, std::map<Tuple, int64_t, TupleLess>, TupleHash> buckets_;
  size_t num_entries_ = 0;
  size_t violating_keys_ = 0;
  uint64_t data_epoch_ = 0;    // ApplyInsert/ApplyDelete.
  uint64_t bounds_epoch_ = 0;  // SetBound.
  size_t mirror_patch_budget_ = 0;  ///< 0 = auto; see set_mirror_patch_budget.
  mutable Frozen frozen_;
  /// The bucket patch log: the distinct-entry transitions ApplyInsert/
  /// ApplyDelete performed, retained since the last mirror (re)build so
  /// result-maintenance consumers (exec/ivm) turn "what changed in the
  /// buckets I retain?" into a log replay instead of a wholesale re-fetch.
  /// Events carry global sequence numbers; the deque holds positions
  /// [patch_log_begin_, patch_log_end_). Truncation (InvalidateMirror, and
  /// continuously while a rebuild is pending) advances `begin` to `end`, so
  /// a consumer stamped before the truncation detects the gap. Mutable for
  /// the same reason as `frozen_`: maintenance owns it under the external
  /// writer discipline, and InvalidateMirror() is reached from const patch
  /// paths.
  mutable std::deque<BucketPatch> patch_log_;
  mutable uint64_t patch_log_begin_ = 0;
  mutable uint64_t patch_log_end_ = 0;
  /// See mirror_generation(). Incremented on the first full build and on
  /// every valid -> invalid transition; a completed lazy rebuild does not
  /// move it (the pending rebuild was already counted). Heap-allocated so
  /// AccessIndex stays movable.
  mutable std::unique_ptr<std::atomic<uint64_t>> mirror_gen_ =
      std::make_unique<std::atomic<uint64_t>>(0);
  /// The freeze synchronization state, heap-allocated as one unit so
  /// AccessIndex stays movable while the hook's guard is expressible as a
  /// sibling-member GUARDED_BY the clang analysis checks. `mu` serializes
  /// lazy BuildFrozen() between concurrent readers; maintenance does not
  /// take it (writers must be externally serialized anyway), which is also
  /// why `frozen_` itself carries no annotation — reader-side accesses are
  /// under `mu`, maintenance patches it lock-free under the external
  /// writer discipline, and no single capability names both regimes.
  struct FreezeSync {
    Mutex mu;
    std::unique_ptr<FreezeHook> hook GUARDED_BY(mu);  ///< See SetFreezeHook().
  };
  mutable std::unique_ptr<FreezeSync> freeze_sync_ =
      std::make_unique<FreezeSync>();
};

/// All indices I_A for an access schema over a database.
class IndexSet {
 public:
  /// Builds one AccessIndex per constraint; O(||A|| * |D|) total, matching
  /// Section 7. Fails if a constraint references unknown relations/attrs.
  /// `mirror_patch_budget` (0 = auto) is installed on every index; see
  /// AccessIndex::set_mirror_patch_budget().
  static Result<IndexSet> Build(const Database& db, const AccessSchema& schema,
                                size_t mirror_patch_budget = 0);

  const AccessIndex* Get(int constraint_id) const;
  AccessIndex* GetMutable(int constraint_id);

  size_t TotalEntries() const;
  size_t size() const { return indices_.size(); }

  /// Sum of per-index data epochs (changes on any ApplyInsert/ApplyDelete)
  /// and bounds epochs (changes on any SetBound). The engine folds
  /// BoundsEpoch() into its plan-cache coherence key; DataEpoch() lets
  /// callers detect whether a maintenance batch actually touched an index.
  uint64_t DataEpoch() const;
  uint64_t BoundsEpoch() const;

  /// True when any index currently sees a cardinality violation.
  bool HasViolation() const;

  /// Installs `hook` on every index (see AccessIndex::SetFreezeHook). Like
  /// any maintenance call, externally serialize against readers.
  void SetFreezeHook(AccessIndex::FreezeHook hook) const;

 private:
  std::vector<std::unique_ptr<AccessIndex>> indices_;
};

}  // namespace bqe

#endif  // BQE_CONSTRAINTS_INDEX_H_
