// The three serving workloads: hot_views, user_lookups and adhoc_queries.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <random>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "baseline/eval.h"
#include "bench.h"
#include "common/strings.h"
#include "ra/builder.h"
#include "ra/normalize.h"
#include "workload/datasets.h"
#include "workload/graph_churn.h"
#include "workload/querygen.h"

namespace servebench {

using bqe::Database;
using bqe::Delta;
using bqe::RaExprPtr;
using bqe::Table;
using bqe::Value;
namespace workload = bqe::workload;

Counters Counters::Of(const bqe::serve::ServiceStats& s) {
  Counters c;
  c.executed = s.executed;
  c.result_hits =
      s.result_hits_admission + s.result_hits_window + s.result_hits_refreshed;
  c.refreshes = s.result_cache.refreshes;
  c.refresh_fallbacks = s.result_cache.refresh_fallbacks;
  c.evictions = s.result_cache.evictions;
  c.plan_hits = s.engine.hits;
  c.plan_misses = s.engine.misses;
  c.freezes = s.freezes;
  return c;
}

Counters Counters::operator-(const Counters& o) const {
  Counters c;
  c.executed = executed - o.executed;
  c.result_hits = result_hits - o.result_hits;
  c.refreshes = refreshes - o.refreshes;
  c.refresh_fallbacks = refresh_fallbacks - o.refresh_fallbacks;
  c.evictions = evictions - o.evictions;
  c.plan_hits = plan_hits - o.plan_hits;
  c.plan_misses = plan_misses - o.plan_misses;
  c.freezes = freezes - o.freezes;
  return c;
}

Counters& Counters::operator+=(const Counters& o) {
  executed += o.executed;
  result_hits += o.result_hits;
  refreshes += o.refreshes;
  refresh_fallbacks += o.refresh_fallbacks;
  evictions += o.evictions;
  plan_hits += o.plan_hits;
  plan_misses += o.plan_misses;
  freezes += o.freezes;
  return *this;
}

bqe::EngineOptions BenchEngineOptions() {
  bqe::EngineOptions eo;
  eo.exec_threads = 1;  // Executions run on the dispatcher thread itself.
  return eo;
}

bqe::serve::ServiceOptions BenchServiceOptions() {
  bqe::serve::ServiceOptions so;
  so.shards = 1;
  so.exec_threads = 1;
  return so;
}

OpRecord Workload::RunOp(const Op& op, bool keep_table) {
  Target& t = targets_[op.target];
  OpRecord rec;
  rec.op = op;
  if (op.kind == Op::Kind::kRead) {
    RaExprPtr q = Query(op);
    Clock::time_point a = Clock::now();
    bqe::serve::QueryResponse r = t.service->Query(std::move(q));
    Clock::time_point b = Clock::now();
    rec.t0_us = MicrosBetween(origin_, a);
    rec.t1_us = MicrosBetween(origin_, b);
    rec.ok = r.status.ok() && r.table != nullptr;
    rec.bounded = r.used_bounded_plan;
    if (r.table != nullptr) {
      rec.rows = static_cast<uint32_t>(r.table->NumRows());
      if (keep_table) rec.table = std::move(r.table);
    }
  } else {
    std::vector<Delta> d = Batch(op);
    Clock::time_point a = Clock::now();
    bqe::serve::DeltaResponse r = t.service->ApplyDeltas(std::move(d));
    Clock::time_point b = Clock::now();
    rec.t0_us = MicrosBetween(origin_, a);
    rec.t1_us = MicrosBetween(origin_, b);
    rec.ok = r.status.ok();
  }
  return rec;
}

Counters Workload::Snapshot() const {
  Counters c;
  for (const Target& t : targets_) {
    if (t.service != nullptr) c += Counters::Of(t.service->stats());
  }
  return c;
}

namespace {

/// Starts the one-dispatcher service in front of `t.engine`.
void StartService(Target* t) {
  t->service = std::make_unique<bqe::serve::QueryService>(
      t->engine.get(), BenchServiceOptions());
}

bool SameAnswer(const Table& got, const RaExprPtr& q, const Database& db,
                std::string* err) {
  bqe::Result<bqe::NormalizedQuery> nq = bqe::Normalize(q, db.catalog());
  if (!nq.ok()) {
    *err = "normalize failed: " + nq.status().ToString();
    return false;
  }
  bqe::Result<Table> want = bqe::EvaluateBaseline(*nq, db);
  if (!want.ok()) {
    *err = "baseline failed: " + want.status().ToString();
    return false;
  }
  if (!Table::SameSet(got, *want)) {
    *err = bqe::StrCat("answer differs from baseline/eval (", got.NumRows(),
                       " rows vs ", want->NumRows(), ")");
    return false;
  }
  return true;
}

size_t CountReads(const std::vector<OpRecord>& recs, bool writes = false) {
  size_t n = 0;
  for (const OpRecord& r : recs) {
    if (r.op.warmup) continue;
    if ((r.op.kind == Op::Kind::kWrite) == writes) ++n;
  }
  return n;
}

std::string Fixed(const std::vector<std::pair<std::string, int64_t>>& kv) {
  std::string s = "{";
  for (size_t i = 0; i < kv.size(); ++i) {
    if (i > 0) s += ", ";
    s += bqe::StrCat("\"", kv[i].first, "\": ", kv[i].second);
  }
  return s + "}";
}

// ---------------------------------------------------------------- hot_views

/// A working set of maintained Example-1 views (the plain query and its
/// difference form per person), read with a seeded skew by one closed-loop
/// client; one operation in every round is a mixed insert/delete batch
/// that the result cache refreshes in place.
class HotViews : public Workload {
 public:
  // Engines and services go before the data they point into.
  ~HotViews() override { targets_.clear(); }

  explicit HotViews(const Options& o) : seed_(o.seed), rng_(o.seed * 7919 + 11) {
    cfg_.pids = o.smoke ? 200 : 500;
    cfg_.friends_per_pid = 20;
    cfg_.cafes = 300;
    view_pids_ = o.smoke ? 8 : 32;
    reads_per_round_ = o.smoke ? 31 : 63;
    // Batches aim at the working set: Pid(b % view_pids_).
    batch_cfg_ = cfg_;
    batch_cfg_.pids = view_pids_;
    for (int p = 0; p < view_pids_; ++p) {
      views_.push_back(workload::FriendsNycCafesQuery(cfg_.Pid(p)));
      views_.push_back(workload::FriendsMayNotJuneCafesQuery(cfg_.Pid(p)));
    }
    // Seeded skew: a Zipf(0.9) law over a seeded permutation of the views.
    std::vector<int> rank(views_.size());
    std::iota(rank.begin(), rank.end(), 0);
    std::shuffle(rank.begin(), rank.end(), rng_);
    std::vector<double> w(views_.size());
    for (size_t v = 0; v < views_.size(); ++v) {
      w[v] = 1.0 / std::pow(static_cast<double>(rank[v] + 1), 0.9);
    }
    pick_ = std::discrete_distribution<int>(w.begin(), w.end());
  }

  bool Build(SetupTimes* t, std::string* err) override {
    fx_ = workload::MakeGraphChurnFixture(cfg_);
    // June visits for every fourth friend, at a cafe the friend also visited
    // in May: the difference views then suppress real rows. The delta
    // stream never deletes one of these, so no refresh falls back.
    for (int k = 0; k < cfg_.pids * cfg_.friends_per_pid; k += 4) {
      bqe::Status st = fx_.db.Insert(
          "dine", {Value::Str(cfg_.Fid(k)), Value::Str(cfg_.Cid(k * 7)),
                   Value::Int(6), Value::Int(2015)});
      if (!st.ok()) {
        *err = st.ToString();
        return false;
      }
    }
    Target tg;
    tg.name = "graph_churn";
    tg.db = &fx_.db;
    tg.engine = std::make_unique<bqe::BoundedEngine>(&fx_.db, fx_.schema,
                                                     BenchEngineOptions());
    Clock::time_point a = Clock::now();
    bqe::Status st = tg.engine->BuildIndices();
    t->build_indices_s = MicrosBetween(a, Clock::now()) / 1e6;
    if (!st.ok()) {
      *err = st.ToString();
      return false;
    }
    t->index_entries = tg.engine->IndexFootprint();
    targets_.push_back(std::move(tg));
    if (serve_) StartService(&targets_[0]);
    return true;
  }

  std::vector<Op> WarmupOps() override {
    // Every view executes twice (the second execution retains the
    // maintenance handle); the batch between makes the second read miss.
    std::vector<Op> ops;
    for (size_t v = 0; v < views_.size(); ++v) ops.push_back(Read(v, true));
    ops.push_back(Write(true));
    for (size_t v = 0; v < views_.size(); ++v) ops.push_back(Read(v, true));
    return ops;
  }

  double RunMeasured(double seconds, std::vector<OpRecord>* recs,
                     Counters* measured) override {
    rounds_ = RoundsFor(seconds, kRoundsPerSecond);
    checkpoint_ = 1 + static_cast<int64_t>(seed_ % static_cast<uint64_t>(
                          std::max<int64_t>(1, rounds_ / 2)));
    double elapsed = 0;
    for (int64_t round = 1; round <= rounds_; ++round) {
      std::vector<Op> ops;
      std::uniform_int_distribution<int> at(0, reads_per_round_);
      int write_at = at(rng_);
      for (int i = 0; i <= reads_per_round_; ++i) {
        ops.push_back(i == write_at ? Write(false)
                                    : Read(static_cast<size_t>(pick_(rng_)),
                                           false));
      }
      Counters before = Snapshot();
      Clock::time_point a = Clock::now();
      for (const Op& op : ops) recs->push_back(RunOp(op, false));
      elapsed += MicrosBetween(a, Clock::now()) / 1e6;
      *measured += Snapshot() - before;
      if (round == rounds_ || round == checkpoint_) {
        ++checks_run_;
        if (check_err_.empty()) CheckViews(&check_err_);
      }
    }
    return elapsed;
  }

  bool Check(const std::vector<OpRecord>& recs, std::string* err) override {
    for (const OpRecord& r : recs) {
      if (!r.ok) {
        *err = bqe::StrCat("operation ", r.op.id, " failed");
        return false;
      }
    }
    if (!check_err_.empty()) {
      *err = check_err_;
      return false;
    }
    return true;
  }

  bool CheckCounters(const std::vector<OpRecord>& recs, const Counters& c,
                     std::string* summary, std::string* err) override {
    int64_t reads = static_cast<int64_t>(CountReads(recs));
    int64_t writes = static_cast<int64_t>(CountReads(recs, true));
    int64_t views = static_cast<int64_t>(views_.size());
    *summary = Fixed({{"rounds", rounds_},
                      {"reads", reads},
                      {"writes", writes},
                      {"executions", static_cast<int64_t>(c.executed)},
                      {"reads_not_hit", reads - static_cast<int64_t>(c.result_hits)},
                      {"refreshes_minus_writes_x_views",
                       static_cast<int64_t>(c.refreshes) - writes * views},
                      {"refresh_fallbacks",
                       static_cast<int64_t>(c.refresh_fallbacks)},
                      {"evictions", static_cast<int64_t>(c.evictions)},
                      {"views", views},
                      {"checkpoints", checks_run_}});
    if (c.executed != 0 || static_cast<int64_t>(c.result_hits) != reads ||
        static_cast<int64_t>(c.refreshes) != writes * views ||
        c.refresh_fallbacks != 0 || c.evictions != 0 ||
        reads != rounds_ * reads_per_round_ || writes != rounds_) {
      *err = "hot_views counts fixed by construction deviated: " + *summary;
      return false;
    }
    return true;
  }

  RaExprPtr Query(const Op& op) override { return views_[op.arg]; }

  std::vector<Delta> Batch(const Op& op) override {
    return workload::GraphChurnMixedBatch(batch_cfg_, "hv",
                                          static_cast<int>(op.arg));
  }

  int client_threads() const override { return 1; }
  bool deterministic_order() const override { return true; }


 private:
  Op Read(size_t view, bool warm) {
    Op op;
    op.kind = Op::Kind::kRead;
    op.arg = static_cast<uint32_t>(view);
    op.warmup = warm;
    op.id = next_id_++;
    return op;
  }
  Op Write(bool warm) {
    Op op;
    op.kind = Op::Kind::kWrite;
    op.arg = next_batch_++;
    op.warmup = warm;
    op.id = next_id_++;
    return op;
  }

  /// Every view, read through the service, equals baseline/eval over the
  /// live database. Runs between rounds, outside the measured time.
  void CheckViews(std::string* err) {
    for (size_t v = 0; v < views_.size(); ++v) {
      bqe::serve::QueryResponse r = targets_[0].service->Query(views_[v]);
      if (!r.status.ok() || r.table == nullptr) {
        *err = "checkpoint read failed: " + r.status.ToString();
        return;
      }
      if (!SameAnswer(*r.table, views_[v], fx_.db, err)) {
        *err = bqe::StrCat("view ", v, ": ", *err);
        return;
      }
    }
  }

  /// Rounds of 63 reads and one batch per second of --seconds.
  static constexpr double kRoundsPerSecond = 340;

  uint64_t seed_;
  std::mt19937_64 rng_;
  workload::GraphChurnConfig cfg_;
  workload::GraphChurnConfig batch_cfg_;
  workload::GraphChurnFixture fx_;
  int view_pids_ = 0;
  int reads_per_round_ = 0;
  std::vector<RaExprPtr> views_;
  std::discrete_distribution<int> pick_;
  int64_t checkpoint_ = 0;  ///< Seeded mid-run round checked, besides the end.
  int64_t rounds_ = 0;
  int64_t checks_run_ = 0;
  std::string check_err_;
  uint64_t next_id_ = 1;
  uint32_t next_batch_ = 0;
};

// ------------------------------------------------------------- user_lookups

/// One closed-loop reader issues Example-1 lookups for users drawn without
/// repeats from a key space far larger than the plan cache and the reads of
/// a run; a second client applies mixed insert/delete batches at a fixed
/// rate per read: batch k goes out once the reader is half way through its
/// k-th interval of reads, and runs while the reader goes on.
class UserLookups : public Workload {
 public:
  // Engines and services go before the data they point into.
  ~UserLookups() override { targets_.clear(); }

  explicit UserLookups(const Options& o) : o_(o) {
    cfg_.pids = o.smoke ? 3000 : 25000;
    cfg_.friends_per_pid = 2;
    cfg_.cafes = 300;
    reads_per_round_ = o.smoke ? 50 : 100;
    warm_reads_ = o.smoke ? 20 : 200;
    warm_writes_ = 4;
    users_.resize(static_cast<size_t>(cfg_.pids));
    std::iota(users_.begin(), users_.end(), 0);
    std::mt19937_64 rng(o.seed * 104729 + 3);
    std::shuffle(users_.begin(), users_.end(), rng);
  }

  bool Build(SetupTimes* t, std::string* err) override {
    fx_ = workload::MakeGraphChurnFixture(cfg_);
    for (const bqe::Tuple& row : fx_.db.Get("cafe")->rows()) {
      if (row[1] == Value::Str("nyc")) nyc_.insert(row[0].ToString());
    }
    initial_friend_ = fx_.db.Get("friend")->NumRows();
    initial_dine_ = fx_.db.Get("dine")->NumRows();
    Target tg;
    tg.name = "graph_churn";
    tg.db = &fx_.db;
    tg.engine = std::make_unique<bqe::BoundedEngine>(&fx_.db, fx_.schema,
                                                     BenchEngineOptions());
    Clock::time_point a = Clock::now();
    bqe::Status st = tg.engine->BuildIndices();
    t->build_indices_s = MicrosBetween(a, Clock::now()) / 1e6;
    if (!st.ok()) {
      *err = st.ToString();
      return false;
    }
    t->index_entries = tg.engine->IndexFootprint();
    targets_.push_back(std::move(tg));
    if (serve_) StartService(&targets_[0]);
    return true;
  }

  std::vector<Op> WarmupOps() override {
    // Warm-up users come from the far end of the permutation, so no
    // measured read repeats one of them.
    std::vector<Op> ops;
    for (int i = 0; i < warm_reads_; ++i) {
      if (i % (warm_reads_ / warm_writes_) == 0) ops.push_back(Write(true));
      ops.push_back(Read(users_[users_.size() - 1 - static_cast<size_t>(i)],
                         true));
    }
    return ops;
  }

  double RunMeasured(double seconds, std::vector<OpRecord>* recs,
                     Counters* measured) override {
    int64_t limit = static_cast<int64_t>(users_.size()) - warm_reads_;
    int64_t rounds = std::min(RoundsFor(seconds, kRoundsPerSecond),
                              limit / reads_per_round_);
    reads_target_ = rounds * reads_per_round_;
    writes_target_ = rounds * kWritesPerRound;
    const int64_t reads_per_write = reads_per_round_ / kWritesPerRound;
    Counters before = Snapshot();
    std::mutex mu;
    std::condition_variable cv;
    int64_t released = 0;  // Batches the writer may send; guarded by mu.
    std::vector<OpRecord> wrecs;
    std::thread writer([&] {
      for (int64_t k = 0; k < writes_target_; ++k) {
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return released > k; });
        }
        wrecs.push_back(RunOp(Write(false), false));
      }
    });
    double start_us = MicrosBetween(origin_, Clock::now());
    double end_us = start_us;
    for (int64_t n = 1; n <= reads_target_; ++n) {
      recs->push_back(RunOp(Read(users_[static_cast<size_t>(n - 1)], false),
                            true));
      end_us = recs->back().t1_us;
      if (n % reads_per_write == reads_per_write / 2) {
        {
          std::lock_guard<std::mutex> lock(mu);
          ++released;
        }
        cv.notify_one();
      }
    }
    writer.join();
    *measured += Snapshot() - before;
    recs->insert(recs->end(), wrecs.begin(), wrecs.end());
    std::stable_sort(recs->begin(), recs->end(),
                     [](const OpRecord& a, const OpRecord& b) {
                       return a.t0_us < b.t0_us;
                     });
    return (end_us - start_us) / 1e6;
  }

  bool Check(const std::vector<OpRecord>& recs, std::string* err) override {
    std::vector<uint32_t> read_users;
    for (const OpRecord& r : recs) {
      if (!r.ok) {
        *err = bqe::StrCat("operation ", r.op.id, " failed");
        return false;
      }
      if (r.op.kind != Op::Kind::kRead) continue;
      if (!r.bounded) {
        *err = bqe::StrCat("lookup ", r.op.id, " did not run a bounded plan");
        return false;
      }
      if (!r.op.warmup) read_users.push_back(r.op.arg);
      for (const bqe::Tuple& row : r.table->rows()) {
        if (nyc_.count(row[0].ToString()) == 0) {
          *err = bqe::StrCat("lookup ", r.op.id, " returned non-nyc cafe ",
                             row[0].ToString());
          return false;
        }
      }
    }
    // friend and dine row counts: the fixture plus what the batches sent.
    int64_t friends = static_cast<int64_t>(initial_friend_);
    int64_t dines = static_cast<int64_t>(initial_dine_);
    for (uint32_t b = 0; b < next_batch_; ++b) {
      for (const Delta& d : workload::GraphChurnMixedBatch(cfg_, "ul", b)) {
        int64_t sign = d.kind == Delta::Kind::kInsert ? 1 : -1;
        (d.rel == "friend" ? friends : dines) += sign;
      }
    }
    if (static_cast<int64_t>(fx_.db.Get("friend")->NumRows()) != friends ||
        static_cast<int64_t>(fx_.db.Get("dine")->NumRows()) != dines) {
      *err = bqe::StrCat("row counts: friend ", fx_.db.Get("friend")->NumRows(),
                         " want ", friends, ", dine ",
                         fx_.db.Get("dine")->NumRows(), " want ", dines);
      return false;
    }
    // A seeded sample of the users read, re-asked now that the writer has
    // stopped, against baseline/eval over the live database.
    std::mt19937_64 rng(o_.seed * 31 + 5);
    size_t samples = std::min<size_t>(read_users.size(), 8);
    for (size_t i = 0; i < samples; ++i) {
      uint32_t u = read_users[rng() % read_users.size()];
      RaExprPtr q = workload::FriendsNycCafesQuery(cfg_.Pid(static_cast<int>(u)));
      bqe::serve::QueryResponse r = targets_[0].service->Query(q);
      if (!r.status.ok() || r.table == nullptr) {
        *err = "sample read failed: " + r.status.ToString();
        return false;
      }
      if (!SameAnswer(*r.table, q, fx_.db, err)) {
        *err = bqe::StrCat("user ", u, ": ", *err);
        return false;
      }
    }
    return true;
  }

  bool CheckCounters(const std::vector<OpRecord>& recs, const Counters& c,
                     std::string* summary, std::string* err) override {
    int64_t reads = static_cast<int64_t>(CountReads(recs));
    int64_t writes = static_cast<int64_t>(CountReads(recs, true));
    *summary = Fixed(
        {{"reads", reads},
         {"writes", writes},
         {"executions_minus_reads", static_cast<int64_t>(c.executed) - reads},
         {"plan_misses_minus_reads",
          static_cast<int64_t>(c.plan_misses) - reads},
         {"plan_hits", static_cast<int64_t>(c.plan_hits)},
         {"result_hits", static_cast<int64_t>(c.result_hits)}});
    if (static_cast<int64_t>(c.executed) != reads ||
        static_cast<int64_t>(c.plan_misses) != reads || c.plan_hits != 0 ||
        c.result_hits != 0 || reads != reads_target_ ||
        writes != writes_target_) {
      *err = "user_lookups counts fixed by construction deviated: " + *summary;
      return false;
    }
    return true;
  }

  RaExprPtr Query(const Op& op) override {
    return workload::FriendsNycCafesQuery(cfg_.Pid(static_cast<int>(op.arg)));
  }

  std::vector<Delta> Batch(const Op& op) override {
    return workload::GraphChurnMixedBatch(cfg_, "ul", static_cast<int>(op.arg));
  }

  int client_threads() const override { return 2; }
  std::string Facts() const override {
    return bqe::StrCat(", \"key_space\": ", cfg_.pids,
                       ", \"plan_cache_capacity\": ",
                       BenchEngineOptions().plan_cache_capacity,
                       ", \"reads_per_write\": ",
                       reads_per_round_ / kWritesPerRound);
  }
  bool deterministic_order() const override { return false; }

 private:
  Op Read(int user, bool warm) {
    Op op;
    op.kind = Op::Kind::kRead;
    op.arg = static_cast<uint32_t>(user);
    op.warmup = warm;
    op.id = next_id_.fetch_add(1);
    return op;
  }
  Op Write(bool warm) {
    Op op;
    op.kind = Op::Kind::kWrite;
    op.arg = next_batch_++;
    op.warmup = warm;
    op.id = next_id_.fetch_add(1);
    return op;
  }

  /// Rounds of 100 reads (two batches among them) per second of --seconds.
  static constexpr double kRoundsPerSecond = 12;
  static constexpr int kWritesPerRound = 2;

  Options o_;
  workload::GraphChurnConfig cfg_;
  workload::GraphChurnFixture fx_;
  std::vector<int> users_;
  std::unordered_set<std::string> nyc_;
  size_t initial_friend_ = 0;
  size_t initial_dine_ = 0;
  int reads_per_round_ = 0;
  int warm_reads_ = 0;
  int warm_writes_ = 0;
  int64_t reads_target_ = 0;
  int64_t writes_target_ = 0;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint32_t> next_batch_{0};
};

// ------------------------------------------------------------ adhoc_queries

/// Re-draws the constants of a query's first SPC block from one witness row
/// combination: a random row of the block's first occurrence, then, along
/// the block's join atoms, a random matching row of each joined occurrence.
/// Every constant predicate of the block then holds on that combination, so
/// the block (and a union over it) returns rows. Returns `q` unchanged when
/// the walk finds no witness. The row pointers it keeps are valid only
/// while the tables are unchanged: queries are generated before the
/// workload's first write.
class Grounder {
 public:
  explicit Grounder(const Database* db) : db_(db) {}

  RaExprPtr Ground(const RaExprPtr& q, std::mt19937_64* rng) {
    if (q->op() == bqe::RaOp::kUnion || q->op() == bqe::RaOp::kDiff) {
      RaExprPtr left = Ground(q->left(), rng);
      return q->op() == bqe::RaOp::kUnion ? bqe::Union(left, q->right())
                                           : bqe::Diff(left, q->right());
    }
    if (q->op() != bqe::RaOp::kProject ||
        q->left()->op() != bqe::RaOp::kSelect) {
      return q;
    }
    const RaExprPtr& sel = q->left();
    std::vector<std::pair<std::string, std::string>> occs;  // (occ, base)
    CollectOccurrences(sel->left(), &occs);
    for (int attempt = 0; attempt < 8; ++attempt) {
      std::unordered_map<std::string, const bqe::Tuple*> witness;
      if (!Walk(occs, sel->preds(), rng, &witness)) continue;
      std::vector<bqe::Predicate> preds;
      for (const bqe::Predicate& p : sel->preds()) {
        bqe::Predicate np = p;
        if (p.kind == bqe::Predicate::Kind::kAttrConst) {
          np.constant = Attr(witness, p.lhs);
        }
        preds.push_back(std::move(np));
      }
      return bqe::Project(bqe::Select(sel->left(), std::move(preds)),
                          q->cols());
    }
    return q;
  }

 private:
  using Bucket = std::vector<const bqe::Tuple*>;
  using ValueIndex = std::unordered_map<Value, Bucket, bqe::ValueHash>;

  static void CollectOccurrences(
      const RaExprPtr& e, std::vector<std::pair<std::string, std::string>>* out) {
    if (e->op() == bqe::RaOp::kRel) {
      out->emplace_back(e->occurrence(), e->base());
      return;
    }
    if (e->left() != nullptr) CollectOccurrences(e->left(), out);
    if (e->right() != nullptr) CollectOccurrences(e->right(), out);
  }

  Value Attr(const std::unordered_map<std::string, const bqe::Tuple*>& w,
             const bqe::AttrRef& a) const {
    const bqe::Tuple* row = w.at(a.rel);
    int idx = db_->Get(base_.at(a.rel))->schema().AttrIndex(a.attr);
    return (*row)[static_cast<size_t>(idx)];
  }

  const ValueIndex& IndexOf(const std::string& base, const std::string& attr) {
    std::string key = base + "." + attr;
    auto it = indexes_.find(key);
    if (it != indexes_.end()) return it->second;
    ValueIndex& idx = indexes_[key];
    const Table* t = db_->Get(base);
    int col = t->schema().AttrIndex(attr);
    for (const bqe::Tuple& row : t->rows()) {
      idx[row[static_cast<size_t>(col)]].push_back(&row);
    }
    return idx;
  }

  bool Walk(const std::vector<std::pair<std::string, std::string>>& occs,
            const std::vector<bqe::Predicate>& preds, std::mt19937_64* rng,
            std::unordered_map<std::string, const bqe::Tuple*>* w) {
    base_.clear();
    for (const auto& [occ, base] : occs) base_[occ] = base;
    const Table* first = db_->Get(occs[0].second);
    if (first == nullptr || first->NumRows() == 0) return false;
    (*w)[occs[0].first] = &first->rows()[(*rng)() % first->NumRows()];
    bool progress = true;
    while (progress) {
      progress = false;
      for (const bqe::Predicate& p : preds) {
        if (p.kind != bqe::Predicate::Kind::kAttrAttr) continue;
        bool has_l = w->count(p.lhs.rel) > 0, has_r = w->count(p.rhs.rel) > 0;
        if (has_l == has_r) continue;
        const bqe::AttrRef& from = has_l ? p.lhs : p.rhs;
        const bqe::AttrRef& to = has_l ? p.rhs : p.lhs;
        const ValueIndex& idx = IndexOf(base_.at(to.rel), to.attr);
        auto it = idx.find(Attr(*w, from));
        if (it == idx.end()) return false;
        (*w)[to.rel] = it->second[(*rng)() % it->second.size()];
        progress = true;
      }
    }
    if (w->size() != occs.size()) return false;
    for (const bqe::Predicate& p : preds) {
      if (p.kind == bqe::Predicate::Kind::kAttrAttr &&
          Attr(*w, p.lhs) != Attr(*w, p.rhs)) {
        return false;
      }
    }
    return true;
  }

  const Database* db_;
  std::unordered_map<std::string, std::string> base_;  // occ -> base
  std::unordered_map<std::string, ValueIndex> indexes_;
};

/// One closed-loop client issues distinct covered queries from the random
/// query generator, each once, over three generated datasets; no writes
/// while it reads. A closing phase then applies delete/re-insert batches on
/// each dataset's largest table, which leave the data as it was.
class AdhocQueries : public Workload {
 public:
  // Engines and services go before the data they point into.
  ~AdhocQueries() override { targets_.clear(); }

  explicit AdhocQueries(const Options& o) : o_(o) {
    scale_ = o.smoke ? 0.03 : 0.15;
    reads_per_round_ = 3 * kBlock;
    writes_per_target_ = o.smoke ? 4 : 40;
    check_every_ = o.smoke ? 1 : 6;
  }

  bool Build(SetupTimes* t, std::string* err) override {
    const char* names[] = {"airca", "tfacc", "mcbm"};
    for (int d = 0; d < 3; ++d) {
      bqe::Result<bqe::GeneratedDataset> ds =
          bqe::MakeDataset(names[d], scale_, kDataSeed);
      if (!ds.ok()) {
        *err = ds.status().ToString();
        return false;
      }
      datasets_.push_back(
          std::make_unique<bqe::GeneratedDataset>(std::move(*ds)));
    }
    for (int d = 0; d < 3; ++d) {
      bqe::GeneratedDataset* ds = datasets_[static_cast<size_t>(d)].get();
      Target tg;
      tg.name = names[d];
      tg.db = &ds->db;
      tg.engine = std::make_unique<bqe::BoundedEngine>(&ds->db, ds->schema,
                                                       BenchEngineOptions());
      Clock::time_point a = Clock::now();
      bqe::Status st = tg.engine->BuildIndices();
      t->build_indices_s += MicrosBetween(a, Clock::now()) / 1e6;
      if (!st.ok()) {
        *err = st.ToString();
        return false;
      }
      t->index_entries += tg.engine->IndexFootprint();
      std::vector<size_t> rows;
      std::string largest;
      for (const std::string& rel : ds->db.catalog().RelationNames()) {
        size_t n = ds->db.Get(rel)->NumRows();
        rows.push_back(n);
        if (largest.empty() || n > ds->db.Get(largest)->NumRows()) largest = rel;
      }
      initial_rows_.push_back(rows);
      largest_.push_back(largest);
      grounders_.emplace_back(&ds->db);
      targets_.push_back(std::move(tg));
      if (serve_) StartService(&targets_.back());
    }
    return true;
  }

  std::vector<Op> WarmupOps() override {
    std::vector<Op> ops;
    for (size_t i = 0; i < 3 * kBlock; ++i) ops.push_back(NextRead(true));
    return ops;
  }

  double RunMeasured(double seconds, std::vector<OpRecord>* recs,
                     Counters* measured) override {
    rounds_ = RoundsFor(seconds, kRoundsPerSecond);
    double elapsed = 0;
    for (int64_t round = 0; round < rounds_; ++round) {
      std::vector<Op> ops;
      for (int i = 0; i < reads_per_round_; ++i) ops.push_back(NextRead(false));
      Counters before = Snapshot();
      Clock::time_point a = Clock::now();
      for (const Op& op : ops) recs->push_back(RunOp(op, true));
      elapsed += MicrosBetween(a, Clock::now()) / 1e6;
      *measured += Snapshot() - before;
    }
    // Closing write phase: after the reads, never concurrent with them.
    for (int i = 0; i < 3 * writes_per_target_; ++i) {
      Op op;
      op.kind = Op::Kind::kWrite;
      op.target = static_cast<uint8_t>(i % 3);
      op.arg = static_cast<uint32_t>(i);
      op.id = next_id_++;
      recs->push_back(RunOp(op, false));
    }
    return elapsed;
  }

  bool Check(const std::vector<OpRecord>& recs, std::string* err) override {
    size_t reads = 0, nonempty = 0, checked = 0;
    for (const OpRecord& r : recs) {
      if (!r.ok) {
        *err = bqe::StrCat("operation ", r.op.id, " failed");
        return false;
      }
      if (r.op.kind != Op::Kind::kRead || r.op.warmup) continue;
      ++reads;
      if (r.rows > 0) ++nonempty;
      if (!r.bounded) {
        *err = bqe::StrCat("query ", r.op.arg, " did not run a bounded plan");
        return false;
      }
      if (r.op.arg % static_cast<uint32_t>(check_every_) != 0) continue;
      ++checked;
      const Target& t = targets_[r.op.target];
      if (!SameAnswer(*r.table, queries_[r.op.arg], *t.db, err)) {
        *err = bqe::StrCat(t.name, " query ", r.op.arg, ": ", *err);
        return false;
      }
    }
    nonempty_share_ = reads == 0 ? 0 : static_cast<double>(nonempty) / reads;
    checked_ = checked;
    if (nonempty_share_ < kMinNonemptyShare) {
      *err = bqe::StrCat("only ", nonempty, " of ", reads,
                         " queries returned rows");
      return false;
    }
    // The closing batches re-insert what they delete: every table ends
    // with its initial row count.
    for (size_t d = 0; d < targets_.size(); ++d) {
      const Database& db = *targets_[d].db;
      std::vector<std::string> rels = db.catalog().RelationNames();
      for (size_t i = 0; i < rels.size(); ++i) {
        if (db.Get(rels[i])->NumRows() != initial_rows_[d][i]) {
          *err = bqe::StrCat(targets_[d].name, ".", rels[i], " row count ",
                             db.Get(rels[i])->NumRows(), " want ",
                             initial_rows_[d][i]);
          return false;
        }
      }
    }
    return true;
  }

  bool CheckCounters(const std::vector<OpRecord>& recs, const Counters& c,
                     std::string* summary, std::string* err) override {
    int64_t reads = static_cast<int64_t>(CountReads(recs));
    *summary = Fixed(
        {{"reads", reads},
         {"writes", static_cast<int64_t>(CountReads(recs, true))},
         {"executions_minus_reads", static_cast<int64_t>(c.executed) - reads},
         {"plan_misses_minus_reads",
          static_cast<int64_t>(c.plan_misses) - reads},
         {"plan_hits", static_cast<int64_t>(c.plan_hits)},
         {"result_hits", static_cast<int64_t>(c.result_hits)}});
    if (static_cast<int64_t>(c.executed) != reads ||
        static_cast<int64_t>(c.plan_misses) != reads || c.plan_hits != 0 ||
        c.result_hits != 0 || reads != rounds_ * reads_per_round_) {
      *err = "adhoc_queries counts fixed by construction deviated: " + *summary;
      return false;
    }
    return true;
  }

  RaExprPtr Query(const Op& op) override {
    while (queries_.size() <= op.arg) Generate();
    return queries_[op.arg];
  }

  std::vector<Delta> Batch(const Op& op) override {
    // Two seeded rows of the dataset's largest table, deleted and put back.
    Database* db = targets_[op.target].db;
    const Table* t = db->Get(largest_[op.target]);
    std::mt19937_64 rng(o_.seed * 6151 + op.arg);
    const bqe::Tuple r1 = t->rows()[rng() % t->NumRows()];
    const bqe::Tuple r2 = t->rows()[rng() % t->NumRows()];
    const std::string& rel = largest_[op.target];
    return {Delta::Delete(rel, r1), Delta::Delete(rel, r2),
            Delta::Insert(rel, r1), Delta::Insert(rel, r2)};
  }

  int client_threads() const override { return 1; }
  bool deterministic_order() const override { return true; }

  std::string Facts() const override {
    return bqe::StrCat(", \"nonempty_share\": ", nonempty_share_,
                       ", \"baseline_checked\": ", checked_,
                       ", \"scale\": ", scale_);
  }

 private:
  static constexpr double kMinNonemptyShare = 0.25;
  /// Rounds of 30 reads per second of --seconds.
  static constexpr double kRoundsPerSecond = 13.5;
  static constexpr size_t kBlock = 10;
  /// The datasets are the same in every run; the seed picks the queries.
  static constexpr uint64_t kDataSeed = 1001;

  Op NextRead(bool warm) {
    Op op;
    op.kind = Op::Kind::kRead;
    op.arg = next_query_++;
    op.target = Dataset(op.arg);
    op.warmup = warm;
    op.id = next_id_++;
    Query(op);  // Generated here, outside any timed call.
    return op;
  }

  /// Queries go to the datasets in blocks of kBlock, so each service's
  /// dispatcher serves a run of consecutive reads rather than waking for
  /// every third one.
  static uint8_t Dataset(size_t query) {
    return static_cast<uint8_t>((query / kBlock) % 3);
  }

  /// Appends the next distinct covered query for Dataset(queries_.size()).
  /// Shapes: 4-7 selections, 0-3 joins, and a union or difference in about
  /// one query in four. Every other query has its first block's constants
  /// re-drawn from a witness row combination so that it returns rows.
  void Generate() {
    size_t n = queries_.size();
    size_t d = Dataset(n);
    for (uint64_t attempt = 0;; ++attempt) {
      uint64_t k = n * 64 + attempt;
      std::mt19937_64 rng(o_.seed * 0x9e3779b97f4a7c15ULL + k);
      bqe::QueryGenConfig qc;
      qc.num_sel = 4 + static_cast<int>(rng() % 4);
      qc.num_join = static_cast<int>(rng() % 4);
      uint64_t u = rng() % 8;
      qc.num_unidiff = u < 6 ? 0 : static_cast<int>(u - 5);
      qc.seed = (o_.seed << 32) + k * 512;
      bqe::Result<RaExprPtr> q =
          bqe::GenerateCoveredQuery(*datasets_[d], qc, 64);
      if (!q.ok()) continue;
      RaExprPtr query = *q;
      if (n % 2 == 0) query = grounders_[d].Ground(query, &rng);
      if (!seen_.insert(bqe::BoundedEngine::QueryFingerprint(query)).second) {
        continue;
      }
      queries_.push_back(std::move(query));
      return;
    }
  }

  Options o_;
  double scale_ = 0;
  int reads_per_round_ = 0;
  int64_t rounds_ = 0;
  int writes_per_target_ = 0;
  int check_every_ = 1;
  std::vector<std::unique_ptr<bqe::GeneratedDataset>> datasets_;
  std::vector<std::vector<size_t>> initial_rows_;
  std::vector<std::string> largest_;
  std::vector<Grounder> grounders_;
  std::vector<RaExprPtr> queries_;
  std::unordered_set<std::string> seen_;
  uint32_t next_query_ = 0;
  uint64_t next_id_ = 1;
  double nonempty_share_ = 0;
  size_t checked_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const Options& opts) {
  if (opts.workload == "hot_views") return std::make_unique<HotViews>(opts);
  if (opts.workload == "user_lookups") {
    return std::make_unique<UserLookups>(opts);
  }
  if (opts.workload == "adhoc_queries") {
    return std::make_unique<AdhocQueries>(opts);
  }
  return nullptr;
}

}  // namespace servebench
