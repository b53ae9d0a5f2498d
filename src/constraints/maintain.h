#ifndef BQE_CONSTRAINTS_MAINTAIN_H_
#define BQE_CONSTRAINTS_MAINTAIN_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "constraints/access_schema.h"
#include "constraints/index.h"
#include "storage/database.h"

namespace bqe {

/// One update of Delta-D: a tuple insertion or deletion.
struct Delta {
  enum class Kind { kInsert, kDelete };
  Kind kind = Kind::kInsert;
  std::string rel;
  Tuple row;

  static Delta Insert(std::string rel, Tuple row) {
    return Delta{Kind::kInsert, std::move(rel), std::move(row)};
  }
  static Delta Delete(std::string rel, Tuple row) {
    return Delta{Kind::kDelete, std::move(rel), std::move(row)};
  }
};

/// What to do when an insertion pushes a group past its bound N
/// (Section 7(1c): discovered constraints "may change ... and are thus
/// maintained").
enum class OverflowPolicy {
  kStrict,  ///< Reject the batch with ConstraintViolation.
  kGrow,    ///< Raise N to the new group size (maintaining A itself).
};

struct MaintenanceStats {
  size_t inserts = 0;
  size_t deletes = 0;
  size_t index_updates = 0;       ///< Per-constraint index touches.
  size_t constraints_grown = 0;   ///< Constraints whose N was raised (kGrow).
  /// Deltas applied *in full* (table plus every index of the relation) —
  /// the length of the batch prefix downstream result maintenance may push
  /// through compiled plans. On a part-way failure this can lag `inserts +
  /// deletes` by one: the failing delta touched the table or some indices
  /// but not all, and no cache may treat it as cleanly applied.
  size_t deltas_applied = 0;
};

/// Applies Delta-D to the database, the indices I_A and (under kGrow) the
/// schema A itself. Per Proposition 12 the work is O(N_A * |Delta-D|),
/// independent of |D|. Each delta makes one expected O(arity) hash probe
/// in its base table (Table::Insert appends; Table::Erase locates the row
/// by hash and swaps the last row in), then touches each index of its
/// relation once: an expected O(1) probe for the X-bucket plus an
/// O(log N) step in the bucket's ordered entry map, and the mirror patch.
/// A relation's first delete builds its table's erase locator in O(|R|),
/// once.
///
/// Under kStrict, the function stops at the first violating insert and
/// returns ConstraintViolation; previously applied deltas stay applied
/// (callers that need atomicity batch-validate first).
///
/// `applied` (optional) receives the running stats even when the batch
/// fails part-way, so callers can tell a cleanly rejected batch (nothing
/// applied, caches stay coherent) from a partially applied one (the engine
/// must bump its data epoch).
Result<MaintenanceStats> ApplyDeltas(Database* db, AccessSchema* schema,
                                     IndexSet* indices,
                                     const std::vector<Delta>& deltas,
                                     OverflowPolicy policy,
                                     MaintenanceStats* applied = nullptr);

}  // namespace bqe

#endif  // BQE_CONSTRAINTS_MAINTAIN_H_
