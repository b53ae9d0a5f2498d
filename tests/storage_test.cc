#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "common/rng.h"
#include "exec/column_batch.h"
#include "storage/database.h"
#include "storage/tuple.h"

namespace bqe {
namespace {

// ----------------------------------------------------------------- Value ---

TEST(ValueTest, NullByDefault) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
  EXPECT_EQ(v.ToString(), "NULL");
}

TEST(ValueTest, IntRoundTrip) {
  Value v = Value::Int(-42);
  EXPECT_EQ(v.type(), ValueType::kInt);
  EXPECT_EQ(v.AsInt(), -42);
  EXPECT_EQ(v.ToString(), "-42");
}

TEST(ValueTest, DoubleRoundTrip) {
  Value v = Value::Double(2.5);
  EXPECT_EQ(v.type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(v.AsDouble(), 2.5);
}

TEST(ValueTest, StringRoundTrip) {
  Value v = Value::Str("hello");
  EXPECT_EQ(v.type(), ValueType::kString);
  EXPECT_EQ(v.AsString(), "hello");
  EXPECT_EQ(v.ToString(), "'hello'");
}

TEST(ValueTest, CompareSameType) {
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::Int(2).Compare(Value::Int(2)), 0);
  EXPECT_GT(Value::Str("b").Compare(Value::Str("a")), 0);
  EXPECT_LT(Value::Double(1.0).Compare(Value::Double(1.5)), 0);
}

TEST(ValueTest, CompareAcrossTypesByTag) {
  // null < int < double < string (variant index order).
  EXPECT_LT(Value().Compare(Value::Int(0)), 0);
  EXPECT_LT(Value::Int(99).Compare(Value::Double(0.0)), 0);
  EXPECT_LT(Value::Double(99.0).Compare(Value::Str("")), 0);
}

TEST(ValueTest, EqualityOperators) {
  EXPECT_TRUE(Value::Int(5) == Value::Int(5));
  EXPECT_TRUE(Value::Int(5) != Value::Int(6));
  EXPECT_TRUE(Value::Int(5) != Value::Str("5"));
  EXPECT_TRUE(Value::Int(4) < Value::Int(5));
  EXPECT_TRUE(Value::Int(5) >= Value::Int(5));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Str("abc").Hash(), Value::Str("abc").Hash());
  EXPECT_EQ(Value::Int(7).Hash(), Value::Int(7).Hash());
  // Different types with "same" payload should (overwhelmingly) differ.
  EXPECT_NE(Value::Int(0).Hash(), Value().Hash());
}

TEST(ValueTest, DoubleNaNHasTotalOrder) {
  const double inf = std::numeric_limits<double>::infinity();
  Value nan = Value::Double(std::numeric_limits<double>::quiet_NaN());
  Value other_nan = Value::Double(-std::nan("7"));
  EXPECT_EQ(nan.Compare(other_nan), 0);
  EXPECT_GT(nan.Compare(Value::Double(inf)), 0);
  EXPECT_LT(Value::Double(1.0).Compare(nan), 0);
  EXPECT_NE(nan, Value::Double(1.0));
  EXPECT_EQ(Value::Double(-0.0), Value::Double(0.0));

  std::vector<Value> v = {nan, Value::Double(2), Value::Double(-inf),
                          other_nan, Value::Double(1)};
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v[0], Value::Double(-inf));
  EXPECT_EQ(v[1], Value::Double(1));
  EXPECT_EQ(v[2], Value::Double(2));
  EXPECT_TRUE(std::isnan(v[3].AsDouble()) && std::isnan(v[4].AsDouble()));
}

TEST(ValueTest, DoubleHashAgreesWithCompare) {
  EXPECT_EQ(Value::Double(-0.0).Hash(), Value::Double(0.0).Hash());
  Value nan = Value::Double(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(nan.Hash(), Value::Double(-std::nan("7")).Hash());
  EXPECT_EQ(nan.Hash(), Value::Double(std::nan("12345")).Hash());
  TupleHash th;
  EXPECT_EQ(th({Value::Int(1), Value::Double(-0.0), nan}),
            th({Value::Int(1), Value::Double(0.0), Value::Double(std::nan(""))}));
}

TEST(ValueTest, ParseLiterals) {
  EXPECT_EQ(*Value::Parse("42"), Value::Int(42));
  EXPECT_EQ(*Value::Parse("-17"), Value::Int(-17));
  EXPECT_EQ(*Value::Parse("2.5"), Value::Double(2.5));
  EXPECT_EQ(*Value::Parse("'txt'"), Value::Str("txt"));
  EXPECT_EQ(*Value::Parse("NULL"), Value());
  EXPECT_EQ(*Value::Parse("  7 "), Value::Int(7));
}

TEST(ValueTest, ParseErrors) {
  EXPECT_FALSE(Value::Parse("").ok());
  EXPECT_FALSE(Value::Parse("abc").ok());
  EXPECT_FALSE(Value::Parse("12x").ok());
}

// ----------------------------------------------------------------- Tuple ---

TEST(TupleTest, CompareLexicographic) {
  Tuple a = {Value::Int(1), Value::Int(2)};
  Tuple b = {Value::Int(1), Value::Int(3)};
  EXPECT_LT(CompareTuples(a, b), 0);
  EXPECT_EQ(CompareTuples(a, a), 0);
  EXPECT_GT(CompareTuples(b, a), 0);
}

TEST(TupleTest, ShorterTupleSortsFirstOnPrefix) {
  Tuple a = {Value::Int(1)};
  Tuple b = {Value::Int(1), Value::Int(0)};
  EXPECT_LT(CompareTuples(a, b), 0);
}

TEST(TupleTest, HashEqualForEqualTuples) {
  Tuple a = {Value::Int(1), Value::Str("x")};
  Tuple b = {Value::Int(1), Value::Str("x")};
  EXPECT_EQ(TupleHash{}(a), TupleHash{}(b));
}

TEST(TupleTest, ProjectTupleDuplicatesAllowed) {
  Tuple t = {Value::Int(10), Value::Int(20), Value::Int(30)};
  Tuple p = ProjectTuple(t, {2, 0, 2});
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0], Value::Int(30));
  EXPECT_EQ(p[1], Value::Int(10));
  EXPECT_EQ(p[2], Value::Int(30));
}

TEST(TupleTest, ToStringFormat) {
  Tuple t = {Value::Int(1), Value::Str("a")};
  EXPECT_EQ(TupleToString(t), "(1, 'a')");
}

// ---------------------------------------------------------------- Schema ---

TEST(SchemaTest, AttrIndexLookup) {
  RelationSchema s("r", {{"a", ValueType::kInt}, {"b", ValueType::kString}});
  EXPECT_EQ(s.arity(), 2u);
  EXPECT_EQ(s.AttrIndex("a"), 0);
  EXPECT_EQ(s.AttrIndex("b"), 1);
  EXPECT_EQ(s.AttrIndex("c"), -1);
  EXPECT_TRUE(s.HasAttr("a"));
  EXPECT_FALSE(s.HasAttr("z"));
}

TEST(SchemaTest, RequireAttrError) {
  RelationSchema s("r", {{"a", ValueType::kInt}});
  EXPECT_TRUE(s.RequireAttr("a").ok());
  Result<int> r = s.RequireAttr("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, ToStringListsTypes) {
  RelationSchema s("r", {{"a", ValueType::kInt}, {"b", ValueType::kDouble}});
  EXPECT_EQ(s.ToString(), "r(a:int, b:double)");
}

// --------------------------------------------------------------- Catalog ---

TEST(CatalogTest, AddAndGet) {
  Catalog c;
  ASSERT_TRUE(c.AddRelation(RelationSchema("r", {{"a", ValueType::kInt}})).ok());
  ASSERT_NE(c.Get("r"), nullptr);
  EXPECT_EQ(c.Get("missing"), nullptr);
  EXPECT_TRUE(c.Has("r"));
  EXPECT_EQ(c.size(), 1u);
}

TEST(CatalogTest, DuplicateRejected) {
  Catalog c;
  ASSERT_TRUE(c.AddRelation(RelationSchema("r", {})).ok());
  EXPECT_EQ(c.AddRelation(RelationSchema("r", {})).code(),
            StatusCode::kAlreadyExists);
}

TEST(CatalogTest, EmptyNameRejected) {
  Catalog c;
  EXPECT_EQ(c.AddRelation(RelationSchema("", {})).code(),
            StatusCode::kInvalidArgument);
}

TEST(CatalogTest, RelationNamesSorted) {
  Catalog c;
  ASSERT_TRUE(c.AddRelation(RelationSchema("zeta", {})).ok());
  ASSERT_TRUE(c.AddRelation(RelationSchema("alpha", {})).ok());
  std::vector<std::string> names = c.RelationNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
}

// ----------------------------------------------------------------- Table ---

Table MakeTable() {
  return Table(RelationSchema(
      "t", {{"a", ValueType::kInt}, {"b", ValueType::kString}}));
}

TEST(TableTest, InsertValidRow) {
  Table t = MakeTable();
  EXPECT_TRUE(t.Insert({Value::Int(1), Value::Str("x")}).ok());
  EXPECT_EQ(t.NumRows(), 1u);
}

TEST(TableTest, InsertArityMismatch) {
  Table t = MakeTable();
  EXPECT_EQ(t.Insert({Value::Int(1)}).code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, InsertTypeMismatch) {
  Table t = MakeTable();
  EXPECT_EQ(t.Insert({Value::Str("no"), Value::Str("x")}).code(),
            StatusCode::kInvalidArgument);
}

TEST(TableTest, NullAllowedForAnyType) {
  Table t = MakeTable();
  EXPECT_TRUE(t.Insert({Value(), Value::Str("x")}).ok());
}

TEST(TableTest, EraseRemovesOneOccurrence) {
  Table t = MakeTable();
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::Str("x")}).ok());
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::Str("x")}).ok());
  ASSERT_TRUE(t.Erase({Value::Int(1), Value::Str("x")}).ok());
  EXPECT_EQ(t.NumRows(), 1u);
  ASSERT_TRUE(t.Erase({Value::Int(1), Value::Str("x")}).ok());
  EXPECT_EQ(t.Erase({Value::Int(1), Value::Str("x")}).code(),
            StatusCode::kNotFound);
}

TEST(TableTest, EraseMatchesDoublesAsCompareDoes) {
  Table t(RelationSchema("d", {{"x", ValueType::kDouble}}));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(t.Insert({Value::Double(1.0)}).ok());
  ASSERT_TRUE(t.Insert({Value::Double(-std::nan("3"))}).ok());
  ASSERT_TRUE(t.Insert({Value::Double(0.0)}).ok());
  // Any NaN deletes the NaN row, and never a number.
  ASSERT_TRUE(t.Erase({Value::Double(nan)}).ok());
  EXPECT_EQ(t.Erase({Value::Double(nan)}).code(), StatusCode::kNotFound);
  // -0.0 equals 0.0.
  ASSERT_TRUE(t.Erase({Value::Double(-0.0)}).ok());
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.rows()[0][0], Value::Double(1.0));
}

TEST(TableTest, EraseOnEmptyTableIsNotFound) {
  Table t = MakeTable();
  EXPECT_EQ(t.Erase({Value::Int(1), Value::Str("x")}).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::Str("x")}).ok());
  ASSERT_TRUE(t.Erase({Value::Int(1), Value::Str("x")}).ok());
  EXPECT_EQ(t.NumRows(), 0u);
}

/// True if the table holds exactly the bag `ref`.
bool SameBag(const Table& t, const std::multiset<Tuple, TupleLess>& ref) {
  std::vector<Tuple> rows = t.rows();
  std::sort(rows.begin(), rows.end(), TupleLess{});
  return rows == std::vector<Tuple>(ref.begin(), ref.end());
}

// Differential loop: every appender, located erase of present, duplicate
// and absent rows, Canonicalize, and copy-then-mutate, checked against a
// std::multiset reference bag after every step. Small value domains (with
// NaNs of several payloads and both zeros) make duplicates and equal-hash
// probe runs common; phases alternate between growing and shrinking so the
// locator is both grown and drained.
TEST(TableTest, LocatedEraseMatchesMultisetReference) {
  const RelationSchema schema("r", {{"a", ValueType::kInt},
                                    {"b", ValueType::kString},
                                    {"c", ValueType::kDouble}});
  const std::vector<std::string> strs = {"x", "y", "zz"};
  const std::vector<double> dbls = {0.0, -0.0, 1.5,
                                    std::numeric_limits<double>::quiet_NaN(),
                                    -std::nan("9")};
  Rng rng(20160626);
  auto random_row = [&] {
    return Tuple{Value::Int(rng.UniformInt(0, 19)),
                 Value::Str(rng.Pick(strs)), Value::Double(rng.Pick(dbls))};
  };

  Table t(schema);
  std::multiset<Tuple, TupleLess> ref;
  size_t erased = 0, misses = 0, copies = 0;
  for (int step = 0; step < 10000; ++step) {
    const bool growing = (step / 1000) % 2 == 0;
    const int op = static_cast<int>(rng.UniformInt(0, 99));
    if (op < (growing ? 20 : 10)) {
      Tuple row = random_row();
      ref.insert(row);
      ASSERT_TRUE(t.Insert(std::move(row)).ok());
    } else if (op < (growing ? 40 : 20)) {
      Tuple row = random_row();
      ref.insert(row);
      t.InsertUnchecked(std::move(row));
    } else if (op < (growing ? 50 : 25)) {
      ColumnBatch batch(t.ColumnTypes());
      const int n = static_cast<int>(rng.UniformInt(0, 12));
      for (int i = 0; i < n; ++i) {
        Tuple row = random_row();
        batch.AppendTuple(row);
        ref.insert(std::move(row));
      }
      ASSERT_TRUE(t.AppendBatch(batch).ok());
    } else if (op < 80) {
      // A present row, duplicated first half of the time.
      if (t.NumRows() == 0) continue;
      Tuple row = t.rows()[rng.PickIndex(t.NumRows())];
      if (rng.Bernoulli(0.5)) {
        t.InsertUnchecked(row);
        ref.insert(row);
      }
      ASSERT_TRUE(t.Erase(row).ok()) << TupleToString(row);
      ref.erase(ref.find(row));
      ++erased;
    } else if (op < 97) {
      // A random row, often absent: NotFound must leave the table as is.
      Tuple row = random_row();
      auto it = ref.find(row);
      if (it == ref.end()) {
        std::vector<Tuple> before = t.rows();
        EXPECT_EQ(t.Erase(row).code(), StatusCode::kNotFound);
        ASSERT_TRUE(t.rows() == before);
        ++misses;
      } else {
        ASSERT_TRUE(t.Erase(row).ok());
        ref.erase(it);
        ++erased;
      }
    } else if (op < 98) {
      t.Canonicalize();
      std::set<Tuple, TupleLess> distinct(ref.begin(), ref.end());
      ref = std::multiset<Tuple, TupleLess>(distinct.begin(), distinct.end());
      ASSERT_TRUE(std::is_sorted(t.rows().begin(), t.rows().end(),
                                 TupleLess{}));
    } else {
      // A copy carries its own locator: mutating it leaves the original,
      // and the original's next mutations leave the copy.
      Table copy = t;
      std::multiset<Tuple, TupleLess> copy_ref = ref;
      if (copy.NumRows() > 0) {
        Tuple row = copy.rows()[rng.PickIndex(copy.NumRows())];
        ASSERT_TRUE(copy.Erase(row).ok());
        copy_ref.erase(copy_ref.find(row));
      }
      Tuple extra = random_row();
      copy.InsertUnchecked(extra);
      copy_ref.insert(extra);
      ASSERT_TRUE(SameBag(t, ref));
      if (t.NumRows() > 0) {
        Tuple row = t.rows()[0];
        ASSERT_TRUE(t.Erase(row).ok());
        ref.erase(ref.find(row));
      }
      ASSERT_TRUE(SameBag(copy, copy_ref));
      ++copies;
    }
    ASSERT_TRUE(SameBag(t, ref)) << "after step " << step;
  }
  // The loop really exercised every path.
  EXPECT_GT(erased, 2000u);
  EXPECT_GT(misses, 100u);
  EXPECT_GT(copies, 50u);
}

TEST(TableTest, CanonicalizeSortsAndDedupes) {
  Table t = MakeTable();
  ASSERT_TRUE(t.Insert({Value::Int(2), Value::Str("b")}).ok());
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::Str("a")}).ok());
  ASSERT_TRUE(t.Insert({Value::Int(2), Value::Str("b")}).ok());
  t.Canonicalize();
  ASSERT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.rows()[0][0], Value::Int(1));
}

TEST(TableTest, SameSetIgnoresOrderAndDuplicates) {
  Table a = MakeTable(), b = MakeTable();
  ASSERT_TRUE(a.Insert({Value::Int(1), Value::Str("x")}).ok());
  ASSERT_TRUE(a.Insert({Value::Int(2), Value::Str("y")}).ok());
  ASSERT_TRUE(b.Insert({Value::Int(2), Value::Str("y")}).ok());
  ASSERT_TRUE(b.Insert({Value::Int(1), Value::Str("x")}).ok());
  ASSERT_TRUE(b.Insert({Value::Int(1), Value::Str("x")}).ok());
  EXPECT_TRUE(Table::SameSet(a, b));
  ASSERT_TRUE(b.Insert({Value::Int(3), Value::Str("z")}).ok());
  EXPECT_FALSE(Table::SameSet(a, b));
}

TEST(TableTest, DistinctProject) {
  Table t = MakeTable();
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::Str("x")}).ok());
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::Str("y")}).ok());
  ASSERT_TRUE(t.Insert({Value::Int(2), Value::Str("x")}).ok());
  Table p = t.DistinctProject({0});
  EXPECT_EQ(p.NumRows(), 2u);
  EXPECT_EQ(p.schema().arity(), 1u);
}

// -------------------------------------------------------------- Database ---

TEST(DatabaseTest, CreateInsertLookup) {
  Database db;
  ASSERT_TRUE(
      db.CreateTable(RelationSchema("r", {{"a", ValueType::kInt}})).ok());
  ASSERT_TRUE(db.Insert("r", {Value::Int(1)}).ok());
  ASSERT_NE(db.Get("r"), nullptr);
  EXPECT_EQ(db.Get("r")->NumRows(), 1u);
  EXPECT_EQ(db.Get("missing"), nullptr);
  EXPECT_EQ(db.Insert("missing", {}).code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, TotalTuples) {
  Database db;
  ASSERT_TRUE(db.CreateTable(RelationSchema("r", {{"a", ValueType::kInt}})).ok());
  ASSERT_TRUE(db.CreateTable(RelationSchema("s", {{"b", ValueType::kInt}})).ok());
  ASSERT_TRUE(db.Insert("r", {Value::Int(1)}).ok());
  ASSERT_TRUE(db.Insert("s", {Value::Int(2)}).ok());
  ASSERT_TRUE(db.Insert("s", {Value::Int(3)}).ok());
  EXPECT_EQ(db.TotalTuples(), 3u);
  EXPECT_EQ(db.TableSizes()["s"], 2u);
}

TEST(DatabaseTest, DuplicateTableRejected) {
  Database db;
  ASSERT_TRUE(db.CreateTable(RelationSchema("r", {})).ok());
  EXPECT_EQ(db.CreateTable(RelationSchema("r", {})).code(),
            StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace bqe
