#ifndef BQE_EXEC_IVM_H_
#define BQE_EXEC_IVM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rw_gate.h"
#include "common/thread_annotations.h"
#include "constraints/maintain.h"
#include "exec/physical_plan.h"
#include "storage/table.h"

namespace bqe {

/// Outcome of one PlanMaintenance::Refresh().
enum class RefreshOutcome {
  kRefreshed,        ///< `*patched` holds the post-batch result.
  kNotMaintainable,  ///< The handle is dead; recompute and rebuild.
};

/// Per-refresh observability: how much the patch moved, which index-side
/// path resolved it, and where the wall time went.
struct RefreshStats {
  size_t rows_added = 0;    ///< Rows the patch appended to the result.
  size_t rows_removed = 0;  ///< Rows the patch removed from the result.
  size_t deltas_relevant = 0;  ///< Batch deltas inside the plan's read set.
  /// Index-side bucket mutations applied off the mirror patch log to
  /// retained (probed) buckets — the O(delta) path that replaced wholesale
  /// bucket re-resolution.
  size_t bucket_diff_hits = 0;
  /// Probed buckets re-resolved wholesale because the index's patch log
  /// was truncated by a budget-forced mirror rebuild since the last
  /// refresh (the rare O(bucket) fallback).
  size_t bucket_refetch_fallbacks = 0;
  /// Difference-subtrahend deletions absorbed as support-count work: the
  /// deleted row either still has surviving duplicates or never suppressed
  /// any retained minuend row, so nothing can resurrect and no output
  /// changes.
  size_t subtrahend_decrements = 0;
  /// Subtrahend deletions that zeroed the support of a key some retained
  /// minuend row carries: a previously-suppressed row actually resurrects,
  /// the one remaining difference shape that reports kNotMaintainable.
  size_t resurrection_fallbacks = 0;
  /// Per-phase wall time in microseconds: classifying the batch against
  /// the read set, propagating signed rows through the op DAG, patching
  /// the cached table. Only populated when a stats pointer is passed (the
  /// clock reads are per refresh, not per row).
  double classify_us = 0.0;
  double propagate_us = 0.0;
  double patch_us = 0.0;
};

/// Incremental view maintenance of one cached bounded-query result: the
/// retained build state that lets a delta batch be pushed *through* the
/// compiled plan as a micro-batch, patching the materialized table in
/// O(delta) instead of recomputing it in O(query).
///
/// Bounded plans are finite fetch/filter/project/join DAGs whose only data
/// access is the fetch steps' AccessIndex probes (the paper's core
/// property), so a plan's read set over the base data is exactly the
/// relations its `fetch_indices()` bind, and per-delta provenance is
/// computable op by op. Build() replays the populating execution's
/// row-path semantics once, retaining per-operator state:
///
///   - kFetch: the distinct probe keys with input multiplicities and the
///     bucket each returned, held as a hash set of distinct rows (the fetch
///     step probes with *distinct input rows*, so an input delta changes
///     the output only on a 0 <-> 1 key transition — resolved against the
///     live post-batch index — while an index-side delta replays the
///     index's bucket patch log onto the retained buckets in O(1) per
///     logged event; only a log truncated by a budget-forced mirror
///     rebuild falls back to wholesale re-resolution of the touched keys),
///   - kJoin / kProduct: both join sides as key-bucketed bags, so a delta
///     row on one side meets exactly its matching bucket on the other
///     (sequential two-stage propagation: dL joins R-old, then dR joins
///     L-new, which covers the dL x dR cross term with the right sign),
///   - dedupe kProject / kUnion / kDiff: multiplicity maps, so set-semantic
///     outputs emit a patch row only on a support transition (count
///     0 <-> positive), never on a mere recount,
///   - kFilter / non-dedupe kProject / kConst / kEmpty: stateless; deltas
///     stream through.
///
/// Refresh() then turns an applied delta batch into exact signed
/// insert/delete patches against the cached table. Plans with ops that are
/// not delta-friendly report kNotMaintainable and the caller falls back to
/// invalidate-and-recompute; today that is (a) a difference-subtrahend
/// deletion that zeroes the support of a key some retained minuend row
/// carries — a previously-suppressed row actually resurrects; deletions
/// whose key keeps support, or never suppressed anything, are absorbed as
/// per-key support-count decrements — and (b) any observed count underflow
/// or missing retained row — a defensive impossibility check, since the
/// engine applies each batch to the base data before the cache refreshes.
///
/// Soundness does not rest on the vectorized executor emitting rows in any
/// particular order: Build() verifies that the bag it derives equals the
/// cached table's bag exactly and refuses the handle otherwise, so a
/// Refresh() patch is always applied to a table whose contents the retained
/// state accounts for row by row.
///
/// Threading: Build() and Refresh() mutate retained state and must run
/// under the caller's writer discipline — Build under at least the shared
/// side of the serving gate (it replays against tables a concurrent writer
/// would mutate), Refresh inside the exclusive hold of the very ApplyDeltas
/// batch being pushed. Both take that gate as an annotated parameter
/// (REQUIRES_SHARED / REQUIRES), so the clang thread-safety analysis proves
/// the hold at every call site instead of a comment requesting it. The
/// handle pins the compiled plan; its AccessIndex bindings stay valid
/// because BuildIndices() is forbidden while a service is attached.
class PlanMaintenance {
 public:
  /// Replays `plan` serially against the live indices, retaining per-op
  /// state, and verifies the derived output bag equals `result` exactly.
  /// Returns nullptr when the plan is not maintainable (difference op whose
  /// maintenance we refuse up front is *not* rejected here — only deletions
  /// on its subtrahend are, at refresh time) or when the verification bag
  /// differs (never expected; defensive).
  ///
  /// `max_bytes` caps the retained state: construction aborts as soon as
  /// the accumulated ApproxBytes() estimate exceeds it, returning nullptr
  /// with `*size_exceeded` (when non-null) set true, so a caller refusing
  /// oversized handles pays at most ~`max_bytes` of state construction
  /// instead of a full replay plus bag verification. The default cap is
  /// unbounded; `*size_exceeded` is always written when the pointer is
  /// given (false on every other outcome, success included).
  /// `gate` is the serving gate whose (at least shared) hold keeps the
  /// replayed tables stable for the duration of the build. Every probe —
  /// build replay and refresh re-resolution alike — goes to the plan's own
  /// AccessIndex bindings, which index the full database.
  static std::unique_ptr<PlanMaintenance> Build(
      const WriterPriorityGate& gate, std::shared_ptr<const PhysicalPlan> plan,
      const Table& result, size_t max_bytes = static_cast<size_t>(-1),
      bool* size_exceeded = nullptr) REQUIRES_SHARED(gate);

  ~PlanMaintenance();

  /// Pushes one applied delta batch through the plan. `current` is the
  /// cached table the batch invalidated (the one Build() verified, as
  /// patched by prior Refresh() calls); on kRefreshed `*patched` holds the
  /// post-batch result — `current` itself when no delta touched the plan's
  /// read set, else a fresh immutable table. On kNotMaintainable the handle
  /// is dead (retained state may be partially advanced) and every later
  /// call returns kNotMaintainable immediately.
  ///
  /// Must be called with the batch already applied to the base data and
  /// indices (fetch re-resolution probes the live post-batch index), once
  /// per applied batch, in order.
  RefreshOutcome Refresh(const WriterPriorityGate& gate,
                         const std::vector<Delta>& deltas,
                         const std::shared_ptr<const Table>& current,
                         std::shared_ptr<const Table>* patched,
                         RefreshStats* stats = nullptr) REQUIRES(gate);

  /// Estimated heap footprint of the retained state (fetch buckets, join
  /// side bags, multiplicity maps). Counted into the result cache's byte
  /// cap so retained build state competes with result bytes honestly.
  size_t ApproxBytes() const { return approx_bytes_; }

  const std::shared_ptr<const PhysicalPlan>& plan() const { return plan_; }

 private:
  struct OpState;  // Per-operator retained state; defined in ivm.cc.

  PlanMaintenance() = default;

  std::shared_ptr<const PhysicalPlan> plan_;
  std::vector<std::unique_ptr<OpState>> states_;  // Index-aligned with ops().
  /// Relations the plan's fetch indices read: the delta classification set.
  std::unordered_set<std::string> read_rels_;
  size_t approx_bytes_ = 0;
  bool dead_ = false;
};

}  // namespace bqe

#endif  // BQE_EXEC_IVM_H_
