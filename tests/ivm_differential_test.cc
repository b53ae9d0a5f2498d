#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "baseline/eval.h"
#include "common/rw_gate.h"
#include "constraints/index.h"
#include "core/engine.h"
#include "exec/ivm.h"
#include "ra/normalize.h"
#include "workload/datasets.h"
#include "workload/graph_churn.h"
#include "workload/querygen.h"

namespace bqe {
namespace {

/// Differential testing of incremental view maintenance: a maintained
/// result — patched through PlanMaintenance::Refresh() across applied
/// delta batches — must equal a from-scratch re-execution of the same
/// compiled plan as an exact bag, for every case of the same generated
/// 48-query corpus the vectorized executor is differentially tested on
/// (vec_differential_test.cc), under batches that *delete* existing base
/// rows and then re-insert them (so bounds never grow and every delta
/// shape, including minus deltas through fetch/join/dedupe/difference,
/// is exercised). Where a plan is legitimately not maintainable for a
/// batch (deletions reaching a difference subtrahend), Refresh() must say
/// so — never return a wrong table — and a rebuilt handle must resume
/// maintaining the recomputed result.

using workload::FriendsMayNotJuneCafesQuery;
using workload::FriendsNycCafesQuery;
using workload::GraphChurnConfig;
using workload::GraphChurnFixture;
using workload::GraphChurnJuneBatch;
using workload::GraphChurnMixedBatch;
using workload::MakeGraphChurnFixture;

EngineOptions DeterministicOptions(size_t threads) {
  EngineOptions opts;
  opts.exec_threads = threads;
  opts.row_path_threshold = 0;
  return opts;
}

/// Exact multiset equality, order-free: a refreshed table keeps surviving
/// rows in place and appends net additions, so its row order legitimately
/// differs from a fresh execution's.
void ExpectSameBag(const Table& got, const Table& want,
                   const std::string& context) {
  ASSERT_EQ(got.NumRows(), want.NumRows()) << context;
  std::vector<Tuple> g = got.rows(), w = want.rows();
  std::sort(g.begin(), g.end());
  std::sort(w.begin(), w.end());
  EXPECT_EQ(g, w) << context;
}

/// Build() and Refresh() carry REQUIRES[_SHARED](gate) contracts (the
/// serving layer calls them under its writer-priority gate), so even these
/// single-threaded tests must hold a gate to call them. These helpers
/// acquire a test-local gate around each call; exclusive ownership
/// satisfies both the shared (Build) and exclusive (Refresh) contracts.
std::unique_ptr<PlanMaintenance> BuildMaintained(
    WriterPriorityGate* gate, std::shared_ptr<const PhysicalPlan> plan,
    const Table& result) {
  WriterGateLock wl(gate);
  return PlanMaintenance::Build(*gate, std::move(plan), result);
}

RefreshOutcome RefreshMaintained(WriterPriorityGate* gate,
                                 PlanMaintenance* maint,
                                 const std::vector<Delta>& deltas,
                                 const std::shared_ptr<const Table>& current,
                                 std::shared_ptr<const Table>* patched,
                                 RefreshStats* stats) {
  WriterGateLock wl(gate);
  return maint->Refresh(*gate, deltas, current, patched, stats);
}

struct DiffCase {
  const char* dataset;
  uint64_t seed;
};

std::string CaseName(const ::testing::TestParamInfo<DiffCase>& info) {
  return std::string(info.param.dataset) + "_s" +
         std::to_string(info.param.seed);
}

class IvmDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(IvmDifferentialTest, MaintainedResultMatchesRecompute) {
  const DiffCase& param = GetParam();
  // Fresh dataset per case: Apply() mutates the database in place, so the
  // shared-cache pattern of vec_differential_test.cc would leak deltas
  // across cases.
  Result<GeneratedDataset> ds = MakeDataset(param.dataset, 0.02, 4321);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();

  BoundedEngine engine(&ds->db, ds->schema, DeterministicOptions(2));
  ASSERT_TRUE(engine.BuildIndices().ok());

  // The exact corpus of vec_differential_test.cc: same seeding, same shape
  // knobs, so the 48 plans IVM is proven on are the 48 plans the executor
  // itself is proven on.
  QueryGenConfig cfg;
  cfg.seed = param.seed * 7919 + 17;
  cfg.num_sel = 2 + static_cast<int>(param.seed % 5);
  cfg.num_join = static_cast<int>(param.seed % 5);
  cfg.num_unidiff = static_cast<int>(param.seed % 3);
  Result<RaExprPtr> q = GenerateCoveredQuery(*ds, cfg);
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  Result<std::shared_ptr<const PreparedQuery>> pq = engine.PrepareCompiled(*q);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  ASSERT_TRUE((*pq)->info.covered);
  ASSERT_NE((*pq)->physical, nullptr);

  Result<ExecuteResult> first = engine.ExecutePrepared(**pq);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  std::shared_ptr<const Table> cur =
      std::make_shared<const Table>(std::move(first->table));

  WriterPriorityGate gate;
  std::unique_ptr<PlanMaintenance> maint =
      BuildMaintained(&gate, (*pq)->physical, *cur);
  ASSERT_NE(maint, nullptr) << "build-time bag verification failed";
  EXPECT_GT(maint->ApproxBytes(), 0u);

  // The plan's read set: only deltas on these relations can change the
  // result, and Refresh() classifies by exactly this set.
  std::unordered_set<std::string> read_rels;
  for (const AccessIndex* ix : (*pq)->physical->fetch_indices()) {
    read_rels.insert(ix->constraint().rel);
  }

  // Re-execute the (still pinned, still valid) plan from scratch against
  // the live post-batch indices and compare as an exact bag. On a
  // legitimate fallback, recompute and rebuild the handle — correctness is
  // "never a wrong table", not "never a fallback".
  size_t fallbacks = 0;
  auto check_batch = [&](const std::vector<Delta>& batch,
                         const std::string& ctx) {
    Result<MaintenanceStats> st = engine.Apply(batch);
    ASSERT_TRUE(st.ok()) << ctx << ": " << st.status().ToString();
    bool touched_read_set = false;
    for (const Delta& d : batch) touched_read_set |= read_rels.count(d.rel) > 0;
    std::shared_ptr<const Table> patched;
    RefreshStats rs;
    RefreshOutcome out =
        RefreshMaintained(&gate, maint.get(), batch, cur, &patched, &rs);
    Result<ExecuteResult> fresh = engine.ExecutePrepared(**pq);
    ASSERT_TRUE(fresh.ok()) << ctx;
    if (out == RefreshOutcome::kRefreshed) {
      ASSERT_NE(patched, nullptr) << ctx;
      ExpectSameBag(*patched, fresh->table, ctx);
      if (touched_read_set) {
        EXPECT_GE(rs.deltas_relevant, 1u) << ctx;
      } else {
        EXPECT_EQ(patched.get(), cur.get()) << ctx;
      }
      cur = patched;
    } else {
      ++fallbacks;
      cur = std::make_shared<const Table>(std::move(fresh->table));
      maint = BuildMaintained(&gate, (*pq)->physical, *cur);
      ASSERT_NE(maint, nullptr) << ctx << ": rebuild after fallback failed";
    }
  };

  for (int r = 0; r < 3; ++r) {
    // Delete up to two existing rows from every base relation (read set or
    // not — irrelevant deltas must classify out), then re-insert the same
    // rows, so the instance returns to its pre-round state and no bound
    // ever grows. Both directions run through Apply() + Refresh().
    std::vector<Delta> deletes, reinserts;
    for (const auto& [rel, size] : ds->db.TableSizes()) {
      const Table* t = ds->db.Get(rel);
      ASSERT_NE(t, nullptr);
      size_t n = t->NumRows();
      if (n == 0) continue;
      size_t i1 = (static_cast<size_t>(r) * 7) % n;
      size_t i2 = (static_cast<size_t>(r) * 7 + 3) % n;
      deletes.push_back(Delta::Delete(rel, t->rows()[i1]));
      reinserts.push_back(Delta::Insert(rel, t->rows()[i1]));
      if (i2 != i1) {
        deletes.push_back(Delta::Delete(rel, t->rows()[i2]));
        reinserts.push_back(Delta::Insert(rel, t->rows()[i2]));
      }
    }
    ASSERT_FALSE(deletes.empty());
    check_batch(deletes, "round " + std::to_string(r) + " deletes");
    check_batch(reinserts, "round " + std::to_string(r) + " reinserts");
  }

  // A delta entirely outside the read set must be a no-op refresh that
  // hands back the *same* table object (re-keyed, not copied).
  std::string outside;
  for (const auto& [rel, size] : ds->db.TableSizes()) {
    if (size > 0 && read_rels.count(rel) == 0) outside = rel;
  }
  if (!outside.empty()) {
    Tuple row = ds->db.Get(outside)->rows()[0];
    std::vector<Delta> batch = {Delta::Delete(outside, row)};
    ASSERT_TRUE(engine.Apply(batch).ok());
    std::shared_ptr<const Table> patched;
    RefreshStats rs;
    ASSERT_EQ(RefreshMaintained(&gate, maint.get(), batch, cur, &patched, &rs),
              RefreshOutcome::kRefreshed);
    EXPECT_EQ(patched.get(), cur.get());
    EXPECT_EQ(rs.deltas_relevant, 0u);
    EXPECT_EQ(rs.rows_added + rs.rows_removed, 0u);
    ASSERT_TRUE(engine.Apply({Delta::Insert(outside, row)}).ok());
  }

  // Fallbacks are possible only for plans with a difference op, and only
  // when a deletion reaches its subtrahend.
  if (cfg.num_unidiff == 0) {
    EXPECT_EQ(fallbacks, 0u);
  }
}

std::vector<DiffCase> AllCases() {
  std::vector<DiffCase> cases;
  for (const char* ds : {"airca", "tfacc", "mcbm"}) {
    for (uint64_t seed = 0; seed < 16; ++seed) {
      cases.push_back(DiffCase{ds, seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Datasets, IvmDifferentialTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

/// Long mixed insert+delete churn through fetch and join ops: every batch
/// must stay maintainable, every patched table must equal a fresh
/// re-execution as an exact bag AND the conventional baseline evaluator
/// as a set (the fully independent oracle that never saw a plan).
TEST(IvmGraphChurnDifferentialTest, MixedChurnStaysMaintainableAndExact) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions(2));
  ASSERT_TRUE(engine.BuildIndices().ok());
  WriterPriorityGate gate;

  constexpr int kQueries = 3;
  constexpr int kBatches = 24;  // Lag 8: deletions flow from batch 8 on.

  struct Maintained {
    RaExprPtr query;
    NormalizedQuery normalized;
    std::shared_ptr<const PreparedQuery> prepared;
    std::shared_ptr<const Table> cur;
    std::unique_ptr<PlanMaintenance> maint;
  };
  std::vector<Maintained> views;
  for (int i = 0; i < kQueries; ++i) {
    Maintained v;
    v.query = FriendsNycCafesQuery(fx.cfg.Pid(i));
    Result<NormalizedQuery> nq = Normalize(v.query, fx.db.catalog());
    ASSERT_TRUE(nq.ok());
    v.normalized = std::move(*nq);
    Result<std::shared_ptr<const PreparedQuery>> pq =
        engine.PrepareCompiled(v.query);
    ASSERT_TRUE(pq.ok());
    ASSERT_TRUE((*pq)->info.covered);
    v.prepared = *pq;
    Result<ExecuteResult> first = engine.ExecutePrepared(*v.prepared);
    ASSERT_TRUE(first.ok());
    v.cur = std::make_shared<const Table>(std::move(first->table));
    v.maint = BuildMaintained(&gate, v.prepared->physical, *v.cur);
    ASSERT_NE(v.maint, nullptr);
    views.push_back(std::move(v));
  }

  for (int b = 0; b < kBatches; ++b) {
    std::vector<Delta> batch = GraphChurnMixedBatch(fx.cfg, "ivmdiff", b);
    ASSERT_TRUE(engine.Apply(batch).ok()) << "batch " << b;
    for (int i = 0; i < kQueries; ++i) {
      std::string ctx =
          "batch " + std::to_string(b) + " view " + std::to_string(i);
      Maintained& v = views[static_cast<size_t>(i)];
      std::shared_ptr<const Table> patched;
      RefreshStats rs;
      ASSERT_EQ(RefreshMaintained(&gate, v.maint.get(), batch, v.cur, &patched,
                                  &rs),
                RefreshOutcome::kRefreshed)
          << ctx << ": insert+delete churn through fetch/join must stay "
                    "maintainable";
      EXPECT_GE(rs.deltas_relevant, 1u) << ctx;
      Result<ExecuteResult> fresh = engine.ExecutePrepared(*v.prepared);
      ASSERT_TRUE(fresh.ok()) << ctx;
      ExpectSameBag(*patched, fresh->table, ctx);
      Result<Table> oracle = EvaluateBaseline(v.normalized, fx.db, nullptr);
      ASSERT_TRUE(oracle.ok()) << ctx;
      EXPECT_TRUE(Table::SameSet(*patched, *oracle)) << ctx;
      v.cur = patched;
    }
  }
  // The mixed churn above recycles cafes the views already list (the
  // projection is set-semantic), so its patches may legitimately be
  // no-ops. Prove the patch path actually moves rows both ways: give
  // Pid(0) a new friend dining at a nyc cafe provably *absent* from the
  // view, then take the pair back.
  Maintained& v0 = views[0];
  std::string free_cid;
  for (int m = 0; m < 100 && free_cid.empty(); m += 3) {  // m % 3 == 0: nyc.
    Value cand = Value::Str("c" + std::to_string(m));
    bool present = false;
    for (const Tuple& row : v0.cur->rows()) present |= row[0] == cand;
    if (!present) free_cid = "c" + std::to_string(m);
  }
  ASSERT_FALSE(free_cid.empty()) << "every nyc cafe already in the view";
  auto S = [](const std::string& s) { return Value::Str(s); };
  std::vector<Delta> add = {
      Delta::Insert("friend", {S(fx.cfg.Pid(0)), S("ivmdiff-new")}),
      Delta::Insert("dine",
                    {S("ivmdiff-new"), S(free_cid), Value::Int(5),
                     Value::Int(2015)}),
  };
  ASSERT_TRUE(engine.Apply(add).ok());
  std::shared_ptr<const Table> patched;
  RefreshStats rs;
  ASSERT_EQ(RefreshMaintained(&gate, v0.maint.get(), add, v0.cur, &patched,
                              &rs),
            RefreshOutcome::kRefreshed);
  EXPECT_GE(rs.rows_added, 1u);
  EXPECT_EQ(patched->NumRows(), v0.cur->NumRows() + 1);
  Result<ExecuteResult> fresh = engine.ExecutePrepared(*v0.prepared);
  ASSERT_TRUE(fresh.ok());
  ExpectSameBag(*patched, fresh->table, "targeted insert");
  v0.cur = patched;

  std::vector<Delta> take_back = {
      Delta::Delete("dine",
                    {S("ivmdiff-new"), S(free_cid), Value::Int(5),
                     Value::Int(2015)}),
      Delta::Delete("friend", {S(fx.cfg.Pid(0)), S("ivmdiff-new")}),
  };
  ASSERT_TRUE(engine.Apply(take_back).ok());
  ASSERT_EQ(RefreshMaintained(&gate, v0.maint.get(), take_back, v0.cur,
                              &patched, &rs),
            RefreshOutcome::kRefreshed);
  EXPECT_GE(rs.rows_removed, 1u);
  EXPECT_EQ(patched->NumRows(), v0.cur->NumRows() - 1);
  fresh = engine.ExecutePrepared(*v0.prepared);
  ASSERT_TRUE(fresh.ok());
  ExpectSameBag(*patched, fresh->table, "targeted delete");
}

/// The retained-state byte estimate must track the state, not its history:
/// after a long run of insert+delete churn that keeps the instance the same
/// size, a handle's ApproxBytes() stays within 1 % of a handle built fresh
/// over the same result. (An estimate that charged a row's capacity on
/// insert and credited its stored copy's capacity on removal would creep
/// upward batch by batch until the result cache evicted views it had room
/// for.)
TEST(IvmGraphChurnDifferentialTest, ByteEstimateDoesNotDriftUnderChurn) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions(2));
  ASSERT_TRUE(engine.BuildIndices().ok());
  WriterPriorityGate gate;

  Result<std::shared_ptr<const PreparedQuery>> pq =
      engine.PrepareCompiled(FriendsNycCafesQuery(fx.cfg.Pid(0)));
  ASSERT_TRUE(pq.ok());
  ASSERT_TRUE((*pq)->info.covered);
  Result<ExecuteResult> first = engine.ExecutePrepared(**pq);
  ASSERT_TRUE(first.ok());
  std::shared_ptr<const Table> cur =
      std::make_shared<const Table>(std::move(first->table));
  std::unique_ptr<PlanMaintenance> maint =
      BuildMaintained(&gate, (*pq)->physical, *cur);
  ASSERT_NE(maint, nullptr);

  for (int b = 0; b < 400; ++b) {
    std::vector<Delta> batch = GraphChurnMixedBatch(fx.cfg, "drift", b);
    ASSERT_TRUE(engine.Apply(batch).ok()) << "batch " << b;
    std::shared_ptr<const Table> patched;
    ASSERT_EQ(RefreshMaintained(&gate, maint.get(), batch, cur, &patched,
                                nullptr),
              RefreshOutcome::kRefreshed)
        << "batch " << b;
    cur = patched;
  }
  Result<ExecuteResult> fresh = engine.ExecutePrepared(**pq);
  ASSERT_TRUE(fresh.ok());
  ExpectSameBag(*cur, fresh->table, "after 400 batches");

  std::unique_ptr<PlanMaintenance> rebuilt =
      BuildMaintained(&gate, (*pq)->physical, *cur);
  ASSERT_NE(rebuilt, nullptr);
  const double kept = static_cast<double>(maint->ApproxBytes());
  const double want = static_cast<double>(rebuilt->ApproxBytes());
  EXPECT_NEAR(kept, want, 0.01 * want)
      << "refreshed handle estimate " << kept << " B vs fresh Build " << want
      << " B";
}

/// The spec-mandated refusal: a deletion reaching a difference subtrahend
/// can resurrect result rows whose support the difference forgot, so
/// Refresh() must report kNotMaintainable (and keep reporting it — the
/// handle is dead), and a recompute must find the resurrected row. A
/// handle rebuilt from the recomputed table resumes maintaining.
TEST(IvmGraphChurnDifferentialTest, SubtrahendDeleteForcesFallback) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions(2));
  ASSERT_TRUE(engine.BuildIndices().ok());

  // Fid(0) belongs to Pid(0) and already dines at Cid(0) (nyc) in may, so
  // a june visit to Cid(0) suppresses exactly one result row.
  RaExprPtr q = FriendsMayNotJuneCafesQuery(fx.cfg.Pid(0));
  Result<std::shared_ptr<const PreparedQuery>> pq = engine.PrepareCompiled(q);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  ASSERT_TRUE((*pq)->info.covered);
  Result<ExecuteResult> first = engine.ExecutePrepared(**pq);
  ASSERT_TRUE(first.ok());
  std::shared_ptr<const Table> cur =
      std::make_shared<const Table>(std::move(first->table));
  size_t base_rows = cur->NumRows();
  ASSERT_GT(base_rows, 0u);
  WriterPriorityGate gate;
  std::unique_ptr<PlanMaintenance> maint =
      BuildMaintained(&gate, (*pq)->physical, *cur);
  ASSERT_NE(maint, nullptr);

  // Batch 0 only *inserts* into the subtrahend: maintainable, and the
  // suppression must land in the patch.
  std::vector<Delta> grow = GraphChurnJuneBatch(fx.cfg, 0);
  ASSERT_TRUE(engine.Apply(grow).ok());
  std::shared_ptr<const Table> patched;
  RefreshStats rs;
  ASSERT_EQ(RefreshMaintained(&gate, maint.get(), grow, cur, &patched, &rs),
            RefreshOutcome::kRefreshed);
  EXPECT_EQ(patched->NumRows(), base_rows - 1);
  EXPECT_GE(rs.rows_removed, 1u);
  Result<ExecuteResult> fresh = engine.ExecutePrepared(**pq);
  ASSERT_TRUE(fresh.ok());
  ExpectSameBag(*patched, fresh->table, "after subtrahend insert");
  cur = patched;

  // Batch 4 deletes batch 0's june row: the subtrahend loses support it
  // deliberately never counted, so the handle must refuse — and the fresh
  // recompute resurrects the suppressed row.
  std::vector<Delta> shrink = GraphChurnJuneBatch(fx.cfg, 4);
  ASSERT_TRUE(engine.Apply(shrink).ok());
  EXPECT_EQ(RefreshMaintained(&gate, maint.get(), shrink, cur, &patched, &rs),
            RefreshOutcome::kNotMaintainable);
  // The refusal is attributed precisely: a resurrection, not a generic
  // subtrahend deletion (those are absorbed; see the matrix test below).
  EXPECT_GE(rs.resurrection_fallbacks, 1u);
  fresh = engine.ExecutePrepared(**pq);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->table.NumRows(), base_rows);
  cur = std::make_shared<const Table>(std::move(fresh->table));

  // Dead handle stays dead, even for a maintainable-shaped batch.
  std::vector<Delta> benign = GraphChurnJuneBatch(fx.cfg, 1);
  ASSERT_TRUE(engine.Apply(benign).ok());
  EXPECT_EQ(RefreshMaintained(&gate, maint.get(), benign, cur, &patched, &rs),
            RefreshOutcome::kNotMaintainable);

  // Recovery: rebuild from a fresh post-`benign` execution; the new handle
  // maintains the next insert-only batch again.
  fresh = engine.ExecutePrepared(**pq);
  ASSERT_TRUE(fresh.ok());
  cur = std::make_shared<const Table>(std::move(fresh->table));
  maint = BuildMaintained(&gate, (*pq)->physical, *cur);
  ASSERT_NE(maint, nullptr);
  std::vector<Delta> again = GraphChurnJuneBatch(fx.cfg, 2);
  ASSERT_TRUE(engine.Apply(again).ok());
  ASSERT_EQ(RefreshMaintained(&gate, maint.get(), again, cur, &patched, &rs),
            RefreshOutcome::kRefreshed);
  fresh = engine.ExecutePrepared(**pq);
  ASSERT_TRUE(fresh.ok());
  ExpectSameBag(*patched, fresh->table, "rebuilt handle");
}

/// The subtrahend support-count matrix: only a deletion that actually
/// resurrects a suppressed row may fall back. A deletion of a june row
/// whose key never suppressed anything, or whose key keeps support, is
/// absorbed as bookkeeping (subtrahend_decrements) with the patched table
/// staying bag-exact; the true resurrection still refuses with the precise
/// counter; and a handle rebuilt after the fallback suppresses again on
/// re-insert.
TEST(IvmGraphChurnDifferentialTest, SubtrahendSupportCountsAbsorbSafeDeletes) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions(2));
  ASSERT_TRUE(engine.BuildIndices().ok());
  RaExprPtr q = FriendsMayNotJuneCafesQuery(fx.cfg.Pid(0));
  Result<std::shared_ptr<const PreparedQuery>> pq = engine.PrepareCompiled(q);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  ASSERT_TRUE((*pq)->info.covered);
  Result<ExecuteResult> first = engine.ExecutePrepared(**pq);
  ASSERT_TRUE(first.ok());
  std::shared_ptr<const Table> cur =
      std::make_shared<const Table>(std::move(first->table));
  WriterPriorityGate gate;
  std::unique_ptr<PlanMaintenance> maint =
      BuildMaintained(&gate, (*pq)->physical, *cur);
  ASSERT_NE(maint, nullptr);

  auto S = [](const std::string& s) { return Value::Str(s); };
  auto check = [&](const std::vector<Delta>& batch, const std::string& ctx,
                   RefreshStats* rs) {
    ASSERT_TRUE(engine.Apply(batch).ok()) << ctx;
    std::shared_ptr<const Table> patched;
    ASSERT_EQ(RefreshMaintained(&gate, maint.get(), batch, cur, &patched, rs),
              RefreshOutcome::kRefreshed)
        << ctx;
    Result<ExecuteResult> fresh = engine.ExecutePrepared(**pq);
    ASSERT_TRUE(fresh.ok()) << ctx;
    ExpectSameBag(*patched, fresh->table, ctx);
    cur = patched;
  };

  // Case 1 — never-suppressed: a june visit to a nyc cafe provably absent
  // from the minuend (june is empty, so `cur` *is* the minuend right now)
  // puts a key in the subtrahend that suppresses nothing; deleting it again
  // is a pure support-count erase, not a resurrection.
  std::string free_cid;
  for (int m = 0; m < fx.cfg.cafes && free_cid.empty(); m += 3) {  // nyc.
    Value cand = Value::Str("c" + std::to_string(m));
    bool present = false;
    for (const Tuple& row : cur->rows()) present |= row[0] == cand;
    if (!present) free_cid = "c" + std::to_string(m);
  }
  ASSERT_FALSE(free_cid.empty()) << "every nyc cafe already in the minuend";
  Tuple free_june = {S(fx.cfg.Fid(0)), S(free_cid), Value::Int(6),
                     Value::Int(2015)};
  RefreshStats rs;
  size_t rows_before = cur->NumRows();
  check({Delta::Insert("dine", free_june)}, "never-suppressed insert", &rs);
  EXPECT_EQ(cur->NumRows(), rows_before);  // Suppresses nothing.
  // The insert landed on a retained (empty) june bucket via the patch log.
  EXPECT_GE(rs.bucket_diff_hits, 1u);
  check({Delta::Delete("dine", free_june)}, "never-suppressed delete", &rs);
  EXPECT_EQ(cur->NumRows(), rows_before);
  EXPECT_GE(rs.subtrahend_decrements, 1u);
  EXPECT_EQ(rs.resurrection_fallbacks, 0u);

  // Case 2 — surviving support: Cid(0) is in the minuend (Fid(0) dines
  // there in may, it is nyc). Two friends visit it in june; taking back
  // one visit leaves the suppression supported, so the handle must absorb
  // the deletion instead of falling back.
  Tuple cid0{S(fx.cfg.Cid(0))};
  bool suppressed_target_present = false;
  for (const Tuple& row : cur->rows()) {
    suppressed_target_present |= row == cid0;
  }
  ASSERT_TRUE(suppressed_target_present);
  Tuple june_a = {S(fx.cfg.Fid(0)), S(fx.cfg.Cid(0)), Value::Int(6),
                  Value::Int(2015)};
  Tuple june_b = {S(fx.cfg.Fid(1)), S(fx.cfg.Cid(0)), Value::Int(6),
                  Value::Int(2015)};
  check({Delta::Insert("dine", june_a), Delta::Insert("dine", june_b)},
        "double june insert", &rs);
  EXPECT_EQ(cur->NumRows(), rows_before - 1);  // Cid(0) suppressed once.
  EXPECT_GE(rs.rows_removed, 1u);
  check({Delta::Delete("dine", june_b)}, "delete with surviving support",
        &rs);
  EXPECT_EQ(cur->NumRows(), rows_before - 1);  // Still suppressed.
  EXPECT_EQ(rs.resurrection_fallbacks, 0u);

  // Case 3 — the true resurrection: the last june visit to Cid(0) goes
  // away while the may row is retained. Exactly this refuses, and says so.
  std::vector<Delta> resurrect = {Delta::Delete("dine", june_a)};
  ASSERT_TRUE(engine.Apply(resurrect).ok());
  std::shared_ptr<const Table> patched;
  EXPECT_EQ(
      RefreshMaintained(&gate, maint.get(), resurrect, cur, &patched, &rs),
      RefreshOutcome::kNotMaintainable);
  EXPECT_GE(rs.resurrection_fallbacks, 1u);

  // Case 4 — recovery: rebuild from the recomputed table (the resurrected
  // row is back), then re-insert the june visit; the new handle suppresses
  // it again as a plain maintainable refresh.
  Result<ExecuteResult> fresh = engine.ExecutePrepared(**pq);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->table.NumRows(), rows_before);
  cur = std::make_shared<const Table>(std::move(fresh->table));
  maint = BuildMaintained(&gate, (*pq)->physical, *cur);
  ASSERT_NE(maint, nullptr);
  check({Delta::Insert("dine", june_a)}, "re-insert after rebuild", &rs);
  EXPECT_EQ(cur->NumRows(), rows_before - 1);
}

/// Fat-bucket index-side deltas: with a few hundred retained rows behind
/// one probe key, refresh must patch through the mirror patch log — O(1)
/// per logged event — never by re-diffing the whole bucket. The counters
/// pin the path taken, the bag comparison pins its exactness.
TEST(IvmGraphChurnDifferentialTest, FatBucketDeltasRideThePatchLog) {
  GraphChurnConfig cfg;
  cfg.pids = 3;
  cfg.friends_per_pid = 400;
  cfg.cafes = 50;
  GraphChurnFixture fx = MakeGraphChurnFixture(cfg);
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions(2));
  ASSERT_TRUE(engine.BuildIndices().ok());
  RaExprPtr q = FriendsNycCafesQuery(cfg.Pid(0));
  Result<std::shared_ptr<const PreparedQuery>> pq = engine.PrepareCompiled(q);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  ASSERT_TRUE((*pq)->info.covered);
  Result<ExecuteResult> first = engine.ExecutePrepared(**pq);
  ASSERT_TRUE(first.ok());
  std::shared_ptr<const Table> cur =
      std::make_shared<const Table>(std::move(first->table));
  WriterPriorityGate gate;
  std::unique_ptr<PlanMaintenance> maint =
      BuildMaintained(&gate, (*pq)->physical, *cur);
  ASSERT_NE(maint, nullptr);

  auto S = [](const std::string& s) { return Value::Str(s); };
  size_t diff_hits = 0;
  auto check = [&](const std::vector<Delta>& batch, const std::string& ctx) {
    ASSERT_TRUE(engine.Apply(batch).ok()) << ctx;
    std::shared_ptr<const Table> patched;
    RefreshStats rs;
    ASSERT_EQ(RefreshMaintained(&gate, maint.get(), batch, cur, &patched, &rs),
              RefreshOutcome::kRefreshed)
        << ctx;
    // Every batch mutates Pid(0)'s 400-row friend bucket: the event must
    // ride the log, and nothing may force a wholesale bucket re-resolve.
    EXPECT_GE(rs.bucket_diff_hits, 1u) << ctx;
    EXPECT_EQ(rs.bucket_refetch_fallbacks, 0u) << ctx;
    diff_hits += rs.bucket_diff_hits;
    Result<ExecuteResult> fresh = engine.ExecutePrepared(**pq);
    ASSERT_TRUE(fresh.ok()) << ctx;
    ExpectSameBag(*patched, fresh->table, ctx);
    cur = patched;
  };

  constexpr int kWaves = 6;
  for (int k = 0; k < kWaves; ++k) {
    std::string nf = "fat" + std::to_string(k);
    check({Delta::Insert("friend", {S(cfg.Pid(0)), S(nf)}),
           Delta::Insert("dine", {S(nf), S("c" + std::to_string(3 * k)),
                                  Value::Int(5), Value::Int(2015)})},
          "fat insert " + std::to_string(k));
  }
  for (int k = 0; k < kWaves; ++k) {
    std::string nf = "fat" + std::to_string(k);
    check({Delta::Delete("dine", {S(nf), S("c" + std::to_string(3 * k)),
                                  Value::Int(5), Value::Int(2015)}),
           Delta::Delete("friend", {S(cfg.Pid(0)), S(nf)})},
          "fat delete " + std::to_string(k));
  }
  // One logged friend-bucket event per wave, both directions.
  EXPECT_GE(diff_hits, static_cast<size_t>(2 * kWaves));
}

/// The truncation regression: under a patch budget of one, any batch with
/// three distinct-entry transitions on one index forces a mirror rebuild,
/// which truncates the log mid-batch — refresh must detect the loss
/// (bucket_refetch_fallbacks), re-resolve the touched buckets wholesale,
/// and still produce the exact table; once the mirror has rebuilt, the
/// next batch rides the log again.
TEST(IvmGraphChurnDifferentialTest, TruncatedPatchLogFallsBackToRefetch) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  EngineOptions opts = DeterministicOptions(2);
  opts.mirror_patch_budget = 1;
  BoundedEngine engine(&fx.db, fx.schema, opts);
  ASSERT_TRUE(engine.BuildIndices().ok());
  RaExprPtr q = FriendsNycCafesQuery(fx.cfg.Pid(0));
  Result<std::shared_ptr<const PreparedQuery>> pq = engine.PrepareCompiled(q);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  ASSERT_TRUE((*pq)->info.covered);
  Result<ExecuteResult> first = engine.ExecutePrepared(**pq);
  ASSERT_TRUE(first.ok());
  std::shared_ptr<const Table> cur =
      std::make_shared<const Table>(std::move(first->table));
  WriterPriorityGate gate;
  std::unique_ptr<PlanMaintenance> maint =
      BuildMaintained(&gate, (*pq)->physical, *cur);
  ASSERT_NE(maint, nullptr);

  auto S = [](const std::string& s) { return Value::Str(s); };
  std::vector<Delta> burst;
  for (int k = 0; k < 4; ++k) {
    std::string nf = "tr" + std::to_string(k);
    burst.push_back(Delta::Insert("friend", {S(fx.cfg.Pid(0)), S(nf)}));
    burst.push_back(
        Delta::Insert("dine", {S(nf), S("c" + std::to_string(3 * k)),
                               Value::Int(5), Value::Int(2015)}));
  }
  ASSERT_TRUE(engine.Apply(burst).ok());
  std::shared_ptr<const Table> patched;
  RefreshStats rs;
  ASSERT_EQ(RefreshMaintained(&gate, maint.get(), burst, cur, &patched, &rs),
            RefreshOutcome::kRefreshed);
  // Pid(0)'s friend bucket re-resolved wholesale, exactly once, and no
  // event could have been replayed off the truncated log.
  EXPECT_EQ(rs.bucket_refetch_fallbacks, 1u);
  EXPECT_EQ(rs.bucket_diff_hits, 0u);
  Result<ExecuteResult> fresh = engine.ExecutePrepared(**pq);
  ASSERT_TRUE(fresh.ok());
  ExpectSameBag(*patched, fresh->table, "post-truncation refresh");
  cur = patched;

  // The fresh execution above re-froze the mirrors, so a small follow-up
  // batch logs cleanly and refresh is back on the O(delta) path.
  std::vector<Delta> small = {
      Delta::Insert("friend", {S(fx.cfg.Pid(0)), S("tr-post")}),
      Delta::Insert("dine",
                    {S("tr-post"), S("c0"), Value::Int(5), Value::Int(2015)}),
  };
  ASSERT_TRUE(engine.Apply(small).ok());
  ASSERT_EQ(RefreshMaintained(&gate, maint.get(), small, cur, &patched, &rs),
            RefreshOutcome::kRefreshed);
  EXPECT_GE(rs.bucket_diff_hits, 1u);
  EXPECT_EQ(rs.bucket_refetch_fallbacks, 0u);
  fresh = engine.ExecutePrepared(**pq);
  ASSERT_TRUE(fresh.ok());
  ExpectSameBag(*patched, fresh->table, "post-rebuild refresh");
}

}  // namespace
}  // namespace bqe
