#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/rng.h"
#include "constraints/maintain.h"
#include "constraints/validate.h"
#include "core/engine.h"
#include "workload/datasets.h"
#include "workload/querygen.h"

namespace bqe {
namespace {

/// Property: after any sequence of random inserts/deletes maintained
/// incrementally (Proposition 12), the indices are indistinguishable from
/// indices rebuilt from scratch, and engine answers match the baseline.
class MaintainPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MaintainPropertyTest, IncrementalEqualsRebuild) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 97 + 5);
  Result<GeneratedDataset> ds_r = MakeAirca(0.01, 300 + GetParam());
  ASSERT_TRUE(ds_r.ok());
  GeneratedDataset ds = std::move(*ds_r);

  Result<IndexSet> built = IndexSet::Build(ds.db, ds.schema);
  ASSERT_TRUE(built.ok());
  IndexSet incremental = std::move(*built);

  // Random deltas: inserts of fresh flight rows and deletes of existing
  // ones (keeping the airline-per-airport discipline loose is fine: the
  // kGrow policy absorbs overflows).
  std::vector<Delta> deltas;
  const Table* ontime = ds.db.Get("ontime");
  for (int i = 0; i < 60; ++i) {
    if (rng.Bernoulli(0.5) && ontime->NumRows() > 0) {
      const Tuple& victim = ontime->rows()[rng.PickIndex(ontime->NumRows())];
      deltas.push_back(Delta::Delete("ontime", victim));
      // Apply immediately so later picks see current state.
      Result<MaintenanceStats> st =
          ApplyDeltas(&ds.db, &ds.schema, &incremental, {deltas.back()},
                      OverflowPolicy::kGrow);
      ASSERT_TRUE(st.ok()) << st.status().ToString();
    } else {
      Tuple row = {Value::Int(1000000 + i),
                   Value::Int(rng.UniformInt(0, 29)),
                   Value::Int(rng.UniformInt(0, 219)),
                   Value::Int(rng.UniformInt(0, 219)),
                   Value::Int(rng.UniformInt(0, 365)),
                   Value::Int(rng.UniformInt(-10, 180)),
                   Value::Int(rng.UniformInt(-10, 200)),
                   Value::Int(rng.UniformInt(0, 1))};
      deltas.push_back(Delta::Insert("ontime", std::move(row)));
      Result<MaintenanceStats> st =
          ApplyDeltas(&ds.db, &ds.schema, &incremental, {deltas.back()},
                      OverflowPolicy::kGrow);
      ASSERT_TRUE(st.ok()) << st.status().ToString();
    }
  }

  // The grown schema must hold on the final database...
  Result<ValidationReport> report = Validate(ds.db, ds.schema);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->satisfied) << report->ToString();

  // ...and the incrementally maintained indices must match a rebuild.
  Result<IndexSet> rebuilt = IndexSet::Build(ds.db, ds.schema);
  ASSERT_TRUE(rebuilt.ok());
  ASSERT_EQ(incremental.size(), rebuilt->size());
  for (size_t cid = 0; cid < incremental.size(); ++cid) {
    const AccessIndex* a = incremental.Get(static_cast<int>(cid));
    const AccessIndex* b = rebuilt->Get(static_cast<int>(cid));
    EXPECT_EQ(a->NumEntries(), b->NumEntries()) << "constraint " << cid;
    EXPECT_EQ(a->NumKeys(), b->NumKeys()) << "constraint " << cid;
    EXPECT_EQ(a->MaxGroupSize(), b->MaxGroupSize()) << "constraint " << cid;
  }

  // Spot-check fetch equality on sampled keys from the data.
  const AccessConstraint& c0 = ds.schema.at(0);  // ontime(origin -> ...).
  for (int i = 0; i < 10; ++i) {
    Tuple key = {Value::Int(rng.UniformInt(0, 219))};
    std::vector<Tuple> fa = incremental.Get(0)->Fetch(key);
    std::vector<Tuple> fb = rebuilt->Get(0)->Fetch(key);
    ASSERT_EQ(fa.size(), fb.size()) << c0.ToString();
    for (size_t k = 0; k < fa.size(); ++k) {
      EXPECT_EQ(CompareTuples(fa[k], fb[k]), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaintainPropertyTest, ::testing::Range(0, 6));

/// Property: under delete-heavy batches (half the deltas delete, some of
/// them one copy of a duplicated row), every maintained index equals one
/// rebuilt from scratch after every batch — on every X-key ever touched —
/// and every table holds exactly the reference bag.
class DeleteHeavyApplyTest : public ::testing::TestWithParam<int> {};

TEST_P(DeleteHeavyApplyTest, IndicesAndTablesMatchRebuildAfterEveryBatch) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 131 + 11);
  Result<GeneratedDataset> ds_r = MakeAirca(0.01, 900 + GetParam());
  ASSERT_TRUE(ds_r.ok());
  GeneratedDataset ds = std::move(*ds_r);
  Result<IndexSet> built = IndexSet::Build(ds.db, ds.schema);
  ASSERT_TRUE(built.ok());
  IndexSet incremental = std::move(*built);

  // The constrained relations, each with a reference bag and a pickable
  // copy of its rows.
  std::set<std::string> rel_set;
  for (size_t cid = 0; cid < ds.schema.size(); ++cid) {
    rel_set.insert(ds.schema.at(static_cast<int>(cid)).rel);
  }
  const std::vector<std::string> rels(rel_set.begin(), rel_set.end());
  std::map<std::string, std::multiset<Tuple, TupleLess>> ref;
  std::map<std::string, std::vector<Tuple>> live;
  std::map<std::string, std::vector<Tuple>> touched;  // For key sampling.
  for (const std::string& rel : rels) {
    const std::vector<Tuple>& rows = ds.db.Get(rel)->rows();
    ref[rel].insert(rows.begin(), rows.end());
    live[rel] = rows;
  }

  size_t deletes = 0;
  for (int batch_no = 0; batch_no < 12; ++batch_no) {
    std::vector<Delta> batch;
    const int n = static_cast<int>(rng.UniformInt(1, 24));
    for (int i = 0; i < n; ++i) {
      const std::string& rel = rng.Pick(rels);
      std::vector<Tuple>& rows = live[rel];
      if (rows.empty()) continue;
      const size_t pick = rng.PickIndex(rows.size());
      if (rng.Bernoulli(0.5)) {
        Tuple victim = rows[pick];
        rows[pick] = std::move(rows.back());
        rows.pop_back();
        ref[rel].erase(ref[rel].find(victim));
        touched[rel].push_back(victim);
        batch.push_back(Delta::Delete(rel, std::move(victim)));
        ++deletes;
      } else {
        // A duplicate of a live row, or a live row with one column taken
        // from another live row (same types, often a new X-key or entry).
        Tuple row = rows[pick];
        if (rng.Bernoulli(0.6)) {
          const size_t col = rng.PickIndex(row.size());
          row[col] = rows[rng.PickIndex(rows.size())][col];
        }
        rows.push_back(row);
        ref[rel].insert(row);
        touched[rel].push_back(row);
        batch.push_back(Delta::Insert(rel, std::move(row)));
      }
    }
    Result<MaintenanceStats> st = ApplyDeltas(&ds.db, &ds.schema, &incremental,
                                              batch, OverflowPolicy::kGrow);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    ASSERT_EQ(st->deltas_applied, batch.size());

    for (const std::string& rel : rels) {
      std::vector<Tuple> rows = ds.db.Get(rel)->rows();
      std::sort(rows.begin(), rows.end(), TupleLess{});
      ASSERT_TRUE(rows == std::vector<Tuple>(ref[rel].begin(), ref[rel].end()))
          << rel << " after batch " << batch_no;
    }

    Result<IndexSet> rebuilt = IndexSet::Build(ds.db, ds.schema);
    ASSERT_TRUE(rebuilt.ok());
    ASSERT_EQ(incremental.size(), rebuilt->size());
    for (size_t cid = 0; cid < incremental.size(); ++cid) {
      const AccessIndex* a = incremental.Get(static_cast<int>(cid));
      const AccessIndex* b = rebuilt->Get(static_cast<int>(cid));
      ASSERT_EQ(a->NumEntries(), b->NumEntries()) << "constraint " << cid;
      ASSERT_EQ(a->NumKeys(), b->NumKeys()) << "constraint " << cid;
      ASSERT_EQ(a->MaxGroupSize(), b->MaxGroupSize()) << "constraint " << cid;
      for (const Tuple& row : touched[a->constraint().rel]) {
        Tuple key = a->FetchKeyOf(row);
        ASSERT_TRUE(a->Fetch(key) == b->Fetch(key))
            << "constraint " << cid << " key " << TupleToString(key);
      }
    }
  }
  EXPECT_GT(deletes, 20u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeleteHeavyApplyTest, ::testing::Range(0, 4));

}  // namespace
}  // namespace bqe
