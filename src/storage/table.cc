#include "storage/table.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_set>

#include "common/strings.h"

namespace bqe {

namespace {

constexpr uint32_t kEmptySlot = std::numeric_limits<uint32_t>::max();
constexpr size_t kMinSlots = 16;

}  // namespace

Status Table::Insert(Tuple row) {
  if (row.size() != schema_.arity()) {
    return Status::InvalidArgument(
        StrCat("arity mismatch inserting into ", schema_.name(), ": got ",
               row.size(), ", want ", schema_.arity()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!row[i].is_null() && row[i].type() != schema_.attrs()[i].type) {
      return Status::InvalidArgument(
          StrCat("type mismatch for ", schema_.name(), ".",
                 schema_.attrs()[i].name, ": got ", ValueTypeName(row[i].type()),
                 ", want ", ValueTypeName(schema_.attrs()[i].type)));
    }
  }
  InsertUnchecked(std::move(row));
  return Status::Ok();
}

std::vector<ValueType> Table::ColumnTypes() const {
  std::vector<ValueType> out;
  out.reserve(schema_.arity());
  for (const Attribute& a : schema_.attrs()) out.push_back(a.type);
  return out;
}

BatchVec Table::ScanBatches(size_t batch_size) const {
  return TuplesToBatches(rows_, ColumnTypes(), batch_size);
}

Status Table::AppendBatch(const ColumnBatch& batch) {
  if (batch.num_cols() != schema_.arity()) {
    return Status::InvalidArgument(
        StrCat("arity mismatch appending batch to ", schema_.name(), ": got ",
               batch.num_cols(), ", want ", schema_.arity()));
  }
  rows_.reserve(rows_.size() + batch.num_rows());
  for (size_t i = 0; i < batch.num_rows(); ++i) {
    InsertUnchecked(batch.RowToTuple(i));
  }
  return Status::Ok();
}

size_t Table::HomeSlot(const Tuple& row) const {
  // Fibonacci hashing: TupleHash folds identity-hashed integers, so its low
  // bits are weak; the product's high bits are not.
  int bits = __builtin_ctzll(slots_.size());
  return static_cast<size_t>((static_cast<uint64_t>(TupleHash{}(row)) *
                              0x9e3779b97f4a7c15ULL) >> (64 - bits));
}

void Table::PlaceRow(size_t pos) {
  assert(pos < kEmptySlot);
  const size_t mask = slots_.size() - 1;
  size_t i = HomeSlot(rows_[pos]);
  while (slots_[i] != kEmptySlot) i = (i + 1) & mask;
  slots_[i] = static_cast<uint32_t>(pos);
}

void Table::RebuildLocator() {
  size_t cap = kMinSlots;
  while (cap * 3 < rows_.size() * 4) cap *= 2;
  slots_.assign(cap, kEmptySlot);
  for (size_t pos = 0; pos < rows_.size(); ++pos) PlaceRow(pos);
}

void Table::LocateLastRow() {
  if (rows_.size() * 4 > slots_.size() * 3) {
    RebuildLocator();
  } else {
    PlaceRow(rows_.size() - 1);
  }
}

void Table::FreeSlot(size_t hole) {
  const size_t mask = slots_.size() - 1;
  for (size_t j = (hole + 1) & mask; slots_[j] != kEmptySlot;
       j = (j + 1) & mask) {
    // The entry at j may fill the hole unless its home slot lies cyclically
    // after the hole, in (hole, j].
    size_t home = HomeSlot(rows_[slots_[j]]);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = kEmptySlot;
}

Status Table::Erase(const Tuple& row) {
  if (slots_.empty()) RebuildLocator();
  const size_t mask = slots_.size() - 1;
  for (size_t i = HomeSlot(row); slots_[i] != kEmptySlot;
       i = (i + 1) & mask) {
    if (CompareTuples(rows_[slots_[i]], row) != 0) continue;
    const uint32_t pos = slots_[i];
    const uint32_t last = static_cast<uint32_t>(rows_.size() - 1);
    FreeSlot(i);
    if (pos != last) {
      // The last row moves into the freed position; repoint its slot.
      size_t k = HomeSlot(rows_[last]);
      while (slots_[k] != last) k = (k + 1) & mask;
      slots_[k] = pos;
      rows_[pos] = std::move(rows_[last]);
    }
    rows_.pop_back();
    return Status::Ok();
  }
  return Status::NotFound(StrCat("row ", TupleToString(row), " not in ",
                                 schema_.name()));
}

void Table::Canonicalize() {
  std::vector<uint32_t>().swap(slots_);
  std::sort(rows_.begin(), rows_.end(), TupleLess{});
  rows_.erase(std::unique(rows_.begin(), rows_.end()), rows_.end());
}

bool Table::SameSet(const Table& a, const Table& b) {
  Table ca = a, cb = b;
  ca.Canonicalize();
  cb.Canonicalize();
  if (ca.rows_.size() != cb.rows_.size()) return false;
  for (size_t i = 0; i < ca.rows_.size(); ++i) {
    if (CompareTuples(ca.rows_[i], cb.rows_[i]) != 0) return false;
  }
  return true;
}

Table Table::DistinctProject(const std::vector<int>& col_idx) const {
  std::vector<Attribute> attrs;
  attrs.reserve(col_idx.size());
  for (int i : col_idx) attrs.push_back(schema_.attrs()[static_cast<size_t>(i)]);
  Table out(RelationSchema(schema_.name(), std::move(attrs)));
  std::unordered_set<Tuple, TupleHash> seen;
  for (const Tuple& row : rows_) {
    Tuple proj = ProjectTuple(row, col_idx);
    if (seen.insert(proj).second) out.InsertUnchecked(std::move(proj));
  }
  return out;
}

size_t Table::ApproxBytes() const {
  size_t bytes = sizeof(Table) + rows_.capacity() * sizeof(Tuple) +
                 slots_.capacity() * sizeof(uint32_t);
  for (const Tuple& row : rows_) {
    bytes += row.capacity() * sizeof(Value);
    for (const Value& v : row) {
      if (v.type() == ValueType::kString) bytes += v.AsString().capacity();
    }
  }
  return bytes;
}

std::string Table::ToString(size_t max_rows) const {
  std::string out = schema_.ToString() + " [" + std::to_string(rows_.size()) +
                    " rows]\n";
  size_t shown = 0;
  for (const Tuple& row : rows_) {
    if (shown++ >= max_rows) {
      out += "  ...\n";
      break;
    }
    out += "  " + TupleToString(row) + "\n";
  }
  return out;
}

}  // namespace bqe
