// The traced run: replays the service run's operations, in their order,
// through the layers' public functions in the order QueryService composes
// them, recording one span per call tagged with the operation's id.
#include <algorithm>
#include <array>
#include <fstream>
#include <unordered_map>
#include <unordered_set>

#include "bench.h"
#include "common/rw_gate.h"
#include "common/strings.h"
#include "core/cov.h"
#include "core/minimize.h"
#include "core/plan2sql.h"
#include "core/qplan.h"
#include "exec/ivm.h"
#include "exec/physical_plan.h"
#include "ra/normalize.h"
#include "serve/result_cache.h"

namespace servebench {

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

enum Layer : uint8_t {
  kFingerprint,
  kLookup,
  kNormalize,
  kCoverage,
  kMinimize,
  kPlan,
  kPlan2Sql,
  kDecomposed,  // Prepare's calls made one by one, for the sub-spans.
  kPrepare,     // The engine's own BoundedEngine::Prepare.
  kCompile,
  kExecute,
  kMaintBuild,
  kInsert,
  kApply,
  kRefresh,
  kRead,   // Whole replayed read, span bookkeeping included.
  kWrite,  // Whole replayed write.
  kNumLayers
};

const char* const kLayerNames[kNumLayers] = {
    "BoundedEngine::QueryFingerprint",
    "ResultCache::Lookup",
    "Normalize",
    "CheckCoverage",
    "MinimizeAccess",
    "GeneratePlan",
    "PlanToSql",
    "Prepare (decomposed)",
    "BoundedEngine::Prepare",
    "PhysicalPlan::Compile",
    "BoundedEngine::ExecutePrepared",
    "PlanMaintenance::Build",
    "ResultCache::Insert",
    "BoundedEngine::Apply",
    "ResultCache::Refresh",
    "read",
    "write"};

/// The span a layer's span sits in: Prepare's calls made one by one sit in
/// the decomposed span, every other call in its operation's read or write
/// span.
Layer Parent(Layer l) {
  if (l >= kNormalize && l <= kPlan2Sql) return kDecomposed;
  if (l == kApply || l == kRefresh) return kWrite;
  return l == kRead || l == kWrite ? kNumLayers : kRead;
}

struct Span {
  uint64_t op;
  Layer layer;
  double start_us;  ///< From the start of the replay.
  double us;
};

/// Per-target replay state: the service's result cache, gate and pin map,
/// rebuilt around the shadow engine.
struct Lane {
  bqe::BoundedEngine* engine = nullptr;
  std::unique_ptr<bqe::serve::ResultCache> cache;
  bqe::WriterPriorityGate gate;
  std::unordered_map<std::string, std::shared_ptr<const bqe::PreparedQuery>>
      pins;
  std::unordered_set<std::string> declined;
};

class Replayer {
 public:
  Replayer(Workload* shadow, const bqe::serve::ServiceOptions& so)
      : shadow_(shadow), so_(so) {
    for (Target& t : shadow->targets()) {
      auto lane = std::make_unique<Lane>();
      lane->engine = t.engine.get();
      lane->cache =
          std::make_unique<bqe::serve::ResultCache>(so.result_cache_bytes);
      lanes_.push_back(std::move(lane));
    }
  }

  template <typename F>
  auto Time(uint64_t op, Layer layer, F&& f) {
    Clock::time_point a = Clock::now();
    auto r = f();
    Record(op, layer, a);
    return r;
  }

  void Record(uint64_t op, Layer layer, Clock::time_point start) {
    spans_.push_back({op, layer, MicrosBetween(origin_, start),
                      MicrosBetween(start, Clock::now())});
  }

  /// Replays one read; returns its answer's row count, or -1 on failure.
  int64_t Read(const Op& op, std::string* err) {
    Lane& lane = *lanes_[op.target];
    bqe::BoundedEngine& engine = *lane.engine;
    const uint64_t id = op.id;
    bqe::RaExprPtr q = shadow_->Query(op);
    Clock::time_point start = Clock::now();
    std::string fp = Time(id, kFingerprint, [&] {
      return bqe::BoundedEngine::QueryFingerprint(q);
    });
    bqe::CoherenceSnapshot snap = engine.Coherence();
    bqe::serve::ResultCache::CachedResult cached;
    bool hit = Time(id, kLookup,
                    [&] { return lane.cache->Lookup(fp, snap, &cached); });
    int64_t rows = -1;
    if (hit) {
      rows = static_cast<int64_t>(cached.table->NumRows());
    } else {
      bqe::ReaderGateLock rl(&lane.gate);
      std::shared_ptr<const bqe::PreparedQuery> pq;
      bool pin_hit = false;
      auto it = lane.pins.find(fp);
      if (it != lane.pins.end() && engine.StillCoherent(*it->second)) {
        pq = it->second;
        pin_hit = true;
      } else {
        pq = Prepare(id, engine, q, err);
        if (pq == nullptr) return -1;
        if (lane.pins.size() >= so_.pin_capacity) lane.pins.clear();
        lane.pins[fp] = pq;
      }
      bqe::Result<bqe::ExecuteResult> r = Time(id, kExecute, [&] {
        return engine.ExecutePrepared(*pq, id, 1);
      });
      if (!r.ok()) {
        *err = "ExecutePrepared: " + r.status().ToString();
        return -1;
      }
      ++executions_;
      fetched_ += r->bounded_stats.tuples_fetched;
      if (r->bounded_stats.used_row_path) ++row_path_;
      double bound = pq->info.plan.StaticAccessBound();
      if (static_cast<double>(r->bounded_stats.tuples_fetched) > bound) {
        *err = bqe::StrCat("operation ", id, " fetched ",
                           r->bounded_stats.tuples_fetched,
                           " tuples, above the static access bound ", bound);
        return -1;
      }
      auto table = std::make_shared<const bqe::Table>(std::move(r->table));
      rows = static_cast<int64_t>(table->NumRows());
      std::unique_ptr<bqe::PlanMaintenance> maint;
      if (pin_hit && lane.declined.count(fp) == 0) {
        // The service's handle bound: result_cache_maint_bytes, by default
        // min(budget / 8, 2 MiB).
        size_t bound_bytes =
            so_.result_cache_maint_bytes != 0
                ? so_.result_cache_maint_bytes
                : std::min<size_t>(2u << 20, so_.result_cache_bytes / 8);
        bool oversized = false;
        maint = Time(id, kMaintBuild, [&] {
          return bqe::PlanMaintenance::Build(lane.gate, pq->physical, *table,
                                             bound_bytes, &oversized);
        });
        if (oversized) lane.declined.insert(fp);
      }
      Time(id, kInsert, [&] {
        lane.cache->Insert(fp, snap,
                           bqe::serve::ResultCache::CachedResult{table, true,
                                                                 false},
                           std::move(maint));
        return 0;
      });
    }
    Record(id, kRead, start);
    return rows;
  }

  bool Write(const Op& op, std::string* err) {
    Lane& lane = *lanes_[op.target];
    bqe::BoundedEngine& engine = *lane.engine;
    std::vector<bqe::Delta> deltas = shadow_->Batch(op);
    Clock::time_point start = Clock::now();
    {
      bqe::WriterGateLock wl(&lane.gate);
      bqe::CoherenceSnapshot pre = engine.Coherence();
      bqe::Result<bqe::MaintenanceStats> st =
          Time(op.id, kApply, [&] { return engine.Apply(deltas); });
      if (!st.ok()) {
        *err = "Apply: " + st.status().ToString();
        return false;
      }
      bqe::CoherenceSnapshot post = engine.Coherence();
      if (post != pre) {
        if (post.schema_epoch == pre.schema_epoch) {
          bqe::serve::RefreshSummary sum = Time(op.id, kRefresh, [&] {
            return lane.cache->Refresh(lane.gate, engine.last_applied().deltas,
                                       pre, post);
          });
          if (sum.fallbacks != 0) {
            // The service defers the rebuild of a fallen-back handle by one
            // execution (ConsumeDeferredRebuild); the replay builds handles
            // as on a first reuse, so it would diverge from here on.
            *err = bqe::StrCat("operation ", op.id, ": ", sum.fallbacks,
                               " refresh fallbacks, which the replay does "
                               "not model");
            return false;
          }
        } else {
          lane.cache->SweepStale(post);
        }
      }
    }
    Record(op.id, kWrite, start);
    return true;
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t executions() const { return executions_; }
  uint64_t fetched() const { return fetched_; }
  uint64_t row_path() const { return row_path_; }

 private:
  /// What PrepareCompiled() does on a plan-cache miss for a covered query:
  /// the engine's own Prepare(), timed whole, then Compile. Prepare's calls
  /// are also made one by one with the engine's options, for the sub-spans;
  /// a decomposed plan whose access bound or SQL differs from the engine's
  /// fails the run, so the sub-spans cannot drift from what Prepare does.
  std::shared_ptr<const bqe::PreparedQuery> Prepare(uint64_t id,
                                                    bqe::BoundedEngine& engine,
                                                    const bqe::RaExprPtr& q,
                                                    std::string* err) {
    Clock::time_point start = Clock::now();
    std::string sub_sql;
    double sub_bound = 0;
    if (!Decompose(id, engine, q, &sub_bound, &sub_sql, err)) return nullptr;
    Record(id, kDecomposed, start);

    auto pq = std::make_shared<bqe::PreparedQuery>();
    bqe::Result<bqe::PrepareInfo> info =
        Time(id, kPrepare, [&] { return engine.Prepare(q); });
    if (!info.ok() || !info->covered || info->used_rewrite) {
      *err = bqe::StrCat("operation ", id, ": BoundedEngine::Prepare ",
                         info.ok() ? "did not plan the query as given"
                                   : info.status().ToString());
      return nullptr;
    }
    pq->info = std::move(*info);
    std::string sql = pq->info.sql;
    if (sql.empty()) {
      bqe::Result<std::string> s = bqe::PlanToSql(pq->info.plan);
      if (s.ok()) sql = std::move(*s);
    }
    if (pq->info.plan.StaticAccessBound() != sub_bound || sql != sub_sql) {
      *err = bqe::StrCat("operation ", id,
                         ": the decomposed preparation planned differently "
                         "from BoundedEngine::Prepare");
      return nullptr;
    }
    bqe::Result<bqe::PhysicalPlan> pp = Time(id, kCompile, [&] {
      return bqe::PhysicalPlan::Compile(pq->info.plan, engine.indices());
    });
    if (!pp.ok()) {
      *err = "Compile: " + pp.status().ToString();
      return nullptr;
    }
    pq->physical = std::make_shared<const bqe::PhysicalPlan>(std::move(*pp));
    for (const bqe::AccessIndex* idx : pq->physical->fetch_indices()) {
      pq->bound_indices.push_back(
          bqe::BoundIndexSnapshot{idx, idx->mirror_generation()});
    }
    pq->schema_epoch = engine.SchemaEpoch();
    return pq;
  }

  /// Prepare's calls one by one, as BoundedEngine::Prepare makes them for a
  /// query covered as given; reports the plan's access bound and SQL.
  bool Decompose(uint64_t id, bqe::BoundedEngine& engine,
                 const bqe::RaExprPtr& q, double* bound, std::string* sql,
                 std::string* err) {
    bqe::Result<bqe::NormalizedQuery> nq = Time(id, kNormalize, [&] {
      return bqe::Normalize(q, engine.db().catalog());
    });
    if (!nq.ok()) {
      *err = "Normalize: " + nq.status().ToString();
      return false;
    }
    bqe::Result<bqe::CoverageReport> rep = Time(id, kCoverage, [&] {
      return bqe::CheckCoverage(*nq, engine.schema());
    });
    if (!rep.ok() || !rep->covered) {
      *err = bqe::StrCat("operation ", id, ": query not covered");
      return false;
    }
    const bqe::AccessSchema* plan_schema = &engine.schema();
    bqe::AccessSchema minimized;
    if (eo_.minimize) {
      bqe::Result<bqe::MinimizeResult> m = Time(id, kMinimize, [&] {
        return bqe::MinimizeAccess(*nq, engine.schema(), eo_.minimize_algo);
      });
      if (m.ok()) {
        minimized = std::move(m->minimized);
        plan_schema = &minimized;
      }
    }
    bqe::Result<bqe::CoverageReport> rep2 = Time(id, kCoverage, [&] {
      return bqe::CheckCoverage(*nq, *plan_schema);
    });
    if (!rep2.ok()) {
      *err = "CheckCoverage: " + rep2.status().ToString();
      return false;
    }
    bqe::Result<bqe::BoundedPlan> plan = Time(id, kPlan, [&] {
      return bqe::GeneratePlan(*nq, *rep2);
    });
    if (!plan.ok()) {
      *err = "GeneratePlan: " + plan.status().ToString();
      return false;
    }
    bqe::Result<std::string> s =
        Time(id, kPlan2Sql, [&] { return bqe::PlanToSql(*plan); });
    if (!s.ok()) {
      *err = "PlanToSql: " + s.status().ToString();
      return false;
    }
    *bound = plan->StaticAccessBound();
    *sql = std::move(*s);
    return true;
  }

  Workload* shadow_;
  bqe::serve::ServiceOptions so_;
  bqe::EngineOptions eo_ = BenchEngineOptions();
  Clock::time_point origin_ = Clock::now();
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<Span> spans_;
  uint64_t executions_ = 0;
  uint64_t fetched_ = 0;
  uint64_t row_path_ = 0;
};

}  // namespace

ReplayResult Replay(const Options& opts, Workload* shadow, Workload* service,
                    const std::vector<OpRecord>& recs, double read_p50_us,
                    double write_p50_us) {
  ReplayResult out;
  Replayer rp(shadow, BenchServiceOptions());
  std::unordered_map<uint64_t, const OpRecord*> by_id;
  for (const OpRecord& r : recs) {
    by_id[r.op.id] = &r;
    std::string err;
    if (r.op.kind == Op::Kind::kRead) {
      int64_t rows = rp.Read(r.op, &err);
      if (rows < 0) {
        out.ok = false;
        out.err = err;
        break;
      }
      if (service->deterministic_order() && rows != r.rows) {
        out.ok = false;
        out.err = bqe::StrCat("replayed operation ", r.op.id, " returned ",
                              rows, " rows, the service ", r.rows);
        break;
      }
    } else if (!rp.Write(r.op, &err)) {
      out.ok = false;
      out.err = err;
      break;
    }
  }

  // Per-operation sums per layer; medians over measured operations, or over
  // the warm-up's where a layer does no measured work (planning and
  // execution on hot_views).
  std::unordered_map<uint64_t, std::array<double, kNumLayers>> per_op;
  for (const Span& s : rp.spans()) {
    auto [it, fresh] = per_op.try_emplace(s.op);
    if (fresh) it->second.fill(-1);
    double& v = it->second[s.layer];
    v = v < 0 ? s.us : v + s.us;
  }
  auto median = [&](std::initializer_list<Layer> layers) {
    std::vector<double> measured, all;
    for (const auto& [id, sums] : per_op) {
      double v = 0;
      bool any = false;
      for (Layer l : layers) {
        if (sums[l] >= 0) {
          v += sums[l];
          any = true;
        }
      }
      if (!any) continue;
      all.push_back(v);
      if (!by_id.at(id)->op.warmup) measured.push_back(v);
    }
    return Percentile(measured.empty() ? all : measured, 0.5);
  };
  // The replayed reads, less the decomposed preparation, which the service
  // does not make; and the service's own time beside the engine's calls.
  std::vector<double> replayed, overhead;
  for (const auto& [id, sums] : per_op) {
    const OpRecord& r = *by_id.at(id);
    if (r.op.warmup || r.op.kind != Op::Kind::kRead) continue;
    replayed.push_back(sums[kRead] - std::max(0.0, sums[kDecomposed]));
    double children = 0;
    for (int l = 0; l < kRead; ++l) {
      // The decomposed calls repeat the engine's Prepare: not the service's.
      if (l < kNormalize || l > kDecomposed) children += std::max(0.0, sums[l]);
    }
    overhead.push_back(r.latency_us() - children);
  }
  auto& m = out.metrics;
  m.emplace_back("ra.fingerprint_us", median({kFingerprint}));
  m.emplace_back("ra.normalize_us", median({kNormalize}));
  m.emplace_back("core.coverage_us", median({kCoverage}));
  m.emplace_back("core.minimize_us", median({kMinimize}));
  m.emplace_back("core.plan_us", median({kPlan}));
  m.emplace_back("core.plan2sql_us", median({kPlan2Sql}));
  m.emplace_back("core.prepare_us", median({kPrepare}));
  m.emplace_back("exec.compile_us", median({kCompile}));
  m.emplace_back("exec.execute_us", median({kExecute}));
  double execs = static_cast<double>(std::max<uint64_t>(1, rp.executions()));
  m.emplace_back("exec.row_path_share", rp.row_path() / execs);
  m.emplace_back("exec.tuples_fetched", rp.fetched() / execs);
  m.emplace_back("constraints.apply_us", median({kApply}));
  m.emplace_back("ivm.refresh_us", median({kRefresh}));
  m.emplace_back("serve.hit_read_us", median({kFingerprint, kLookup}));
  m.emplace_back("serve.overhead_us", Percentile(overhead, 0.5));
  m.emplace_back("trace.read_overhead_us",
                 Percentile(replayed, 0.5) - read_p50_us);
  m.emplace_back("trace.write_overhead_us",
                 write_p50_us > 0 ? median({kWrite}) - write_p50_us : 0.0);

  if (!opts.spans_out.empty()) {
    std::ofstream f(opts.spans_out);
    f << "op\tspan\tparent\tstart_us\tus\n";
    for (const Span& s : rp.spans()) {
      Layer p = Parent(s.layer);
      f << s.op << '\t' << kLayerNames[s.layer] << '\t'
        << (p == kNumLayers ? "-" : kLayerNames[p]) << '\t' << s.start_us
        << '\t' << s.us << '\n';
    }
  }
  return out;
}

}  // namespace servebench
