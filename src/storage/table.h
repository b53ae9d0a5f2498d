#ifndef BQE_STORAGE_TABLE_H_
#define BQE_STORAGE_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "exec/column_batch.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace bqe {

/// An in-memory row-store relation instance. BQE keeps instances simple:
/// a schema plus a bag of rows; set semantics are enforced by the relational
/// operators, not by the store.
///
/// Row order is insertion order until the first Erase; after that it is
/// unspecified (Erase moves the last row into the freed position). Readers
/// that need an order sort, as Canonicalize does.
class Table {
 public:
  Table() = default;
  explicit Table(RelationSchema schema) : schema_(std::move(schema)) {}

  const RelationSchema& schema() const { return schema_; }
  const std::vector<Tuple>& rows() const { return rows_; }
  size_t NumRows() const { return rows_.size(); }

  /// Appends a row after checking arity and (non-null) types.
  Status Insert(Tuple row);

  /// Appends without validation; used by generators on hot paths.
  void InsertUnchecked(Tuple row) {
    rows_.push_back(std::move(row));
    if (!slots_.empty()) LocateLastRow();
  }

  /// Declared column types, in attribute order.
  std::vector<ValueType> ColumnTypes() const;

  /// Emits the table contents as columnar batches of at most `batch_size`
  /// rows, typed by the schema. The vectorized executor's scan surface.
  BatchVec ScanBatches(size_t batch_size = kDefaultBatchSize) const;

  /// Appends every row of `batch` after checking arity against the schema
  /// (per-value types are not re-checked; batches carry their own types).
  Status AppendBatch(const ColumnBatch& batch);

  /// Removes one occurrence of `row`; NotFound (table unchanged) when
  /// absent. O(arity) expected: the row is found through a hash locator and
  /// the last row is moved into its place, so the order of the remaining
  /// rows is unspecified afterwards. The first Erase on a table builds the
  /// locator in O(rows); tables that never see a delete never pay for it.
  Status Erase(const Tuple& row);

  /// Sorts rows lexicographically and removes duplicates, producing the
  /// canonical set representation (used by tests and result comparison).
  /// Drops the Erase locator.
  void Canonicalize();

  /// True if the two tables hold the same *set* of rows (ignoring order and
  /// duplicates). Schemas are not compared.
  static bool SameSet(const Table& a, const Table& b);

  /// Distinct projection onto attribute indices; result schema uses the
  /// projected attribute metadata.
  Table DistinctProject(const std::vector<int>& col_idx) const;

  /// Multi-line rendering with a header; `max_rows` limits output.
  std::string ToString(size_t max_rows = 20) const;

  /// Cheap O(rows x cols) estimate of the resident heap footprint — tuple
  /// vectors, value slots, and string payloads (small strings count their
  /// inline capacity like any other). Used by byte-capped caches of
  /// materialized results (serve/result_cache) for LRU accounting; it is an
  /// estimate, not an allocator-exact measurement.
  size_t ApproxBytes() const;

 private:
  /// The locator slot where probing for `row` starts.
  size_t HomeSlot(const Tuple& row) const;
  /// Puts position `pos` in the first free slot of its row's probe run.
  void PlaceRow(size_t pos);
  /// Sizes the locator for the current rows and places every row.
  void RebuildLocator();
  /// Places rows_.back() in the locator, growing it when too full.
  void LocateLastRow();
  /// Frees locator slot `hole`, shifting later entries of its probe run back
  /// so that lookups never need tombstones.
  void FreeSlot(size_t hole);

  RelationSchema schema_;
  std::vector<Tuple> rows_;
  /// Erase locator: an open-addressing hash table (linear probing, load at
  /// most 3/4) whose occupied slots hold row positions, placed by TupleHash
  /// of the row. 4 bytes a slot and 4/3 to 8/3 slots a row (about 8 bytes
  /// a row); no tuple is copied. Empty until the first Erase, then kept
  /// current by every appender.
  std::vector<uint32_t> slots_;
};

}  // namespace bqe

#endif  // BQE_STORAGE_TABLE_H_
