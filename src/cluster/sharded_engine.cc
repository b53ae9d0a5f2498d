#include "cluster/sharded_engine.h"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>

#include "common/strings.h"
#include "exec/key_codec.h"
#include "exec/parallel.h"
#include "ra/expr.h"

namespace bqe {
namespace cluster {

namespace {

/// RAII exclusive hold over an ordered set of shard gates. Callers pass the
/// gates in one global order (ascending shard id, replica last), so
/// concurrent Apply calls acquire in the same order and cannot deadlock.
/// The capability analysis cannot follow a runtime loop of acquisitions
/// over a dynamic gate list, hence the suppression; the exclusion itself is
/// still runtime-real (every gate is locked before any sub-batch applies).
class GateWriteHold {
 public:
  explicit GateWriteHold(std::vector<WriterPriorityGate*> gates)
      NO_THREAD_SAFETY_ANALYSIS : gates_(std::move(gates)) {
    for (WriterPriorityGate* g : gates_) g->lock();
  }
  ~GateWriteHold() NO_THREAD_SAFETY_ANALYSIS {
    for (auto it = gates_.rbegin(); it != gates_.rend(); ++it) (*it)->unlock();
  }

  GateWriteHold(const GateWriteHold&) = delete;
  GateWriteHold& operator=(const GateWriteHold&) = delete;

 private:
  std::vector<WriterPriorityGate*> gates_;
};

/// First-seen-stable dedupe on encoded keys. Agrees with the row path's
/// TupleHash-set Dedupe because the key codec makes Value-equality and
/// byte-equality coincide; partitioned (the PR 5 radix kernel) once the
/// input is large enough to matter, degenerating to one bare KeyTable
/// below that.
constexpr size_t kPartitionedMergeMinRows = size_t{1} << 12;

size_t MergeParts(size_t rows) {
  return rows >= kPartitionedMergeMinRows ? 8 : 1;
}

void EncodedDedupe(std::vector<Tuple>* rows) {
  PartitionedKeyTable seen(MergeParts(rows->size()), rows->size());
  std::vector<Tuple> out;
  out.reserve(rows->size());
  std::string enc;
  for (Tuple& row : *rows) {
    enc.clear();
    AppendEncodedTuple(row, &enc);
    bool fresh = false;
    seen.InsertOrFind(enc, &fresh);
    if (fresh) out.push_back(std::move(row));
  }
  *rows = std::move(out);
}

bool EvalPlanPredicate(const Tuple& row, const PlanPredicate& p) {
  const Value& l = row[static_cast<size_t>(p.lhs)];
  if (p.kind == PlanPredicate::Kind::kColConst) {
    return EvalCmp(p.op, l, p.constant);
  }
  return EvalCmp(p.op, l, row[static_cast<size_t>(p.rhs)]);
}

size_t AutoThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  size_t n = hw == 0 ? 1 : static_cast<size_t>(hw);
  return std::min(n, WorkerPool::kMaxThreads);
}

}  // namespace

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Create(
    const Database& db, const AccessSchema& schema, ShardedOptions opts) {
  auto eng = std::unique_ptr<ShardedEngine>(new ShardedEngine());
  BQE_ASSIGN_OR_RETURN(
      eng->router_,
      ShardRouter::Build(schema, db.catalog(), opts.slots, opts.shards));
  eng->opts_ = opts;

  // Copies `db` into a fresh instance: all rows for the replica, or just
  // the rows shard `shard` owns under some constraint. Rows were validated
  // on insert into the source database, so InsertUnchecked is safe.
  auto make_db = [&](bool full,
                     size_t shard) -> Result<std::unique_ptr<Database>> {
    auto out = std::make_unique<Database>();
    for (const std::string& rel : db.catalog().RelationNames()) {
      BQE_RETURN_IF_ERROR(out->CreateTable(*db.catalog().Get(rel)));
      const Table* src = db.Get(rel);
      if (src == nullptr) continue;
      Table* dst = out->GetMutable(rel);
      for (const Tuple& row : src->rows()) {
        if (full) {
          dst->InsertUnchecked(row);
          continue;
        }
        for (size_t s : eng->router_.ShardsOfRow(rel, row)) {
          if (s == shard) {
            dst->InsertUnchecked(row);
            break;
          }
        }
      }
    }
    return out;
  };

  EngineOptions shard_engine_opts = opts.engine;
  // A conventional-evaluation fallback over a *partial* database would
  // answer wrongly; non-covered queries go to the full replica instead.
  shard_engine_opts.baseline_fallback = false;
  for (size_t s = 0; s < opts.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    BQE_ASSIGN_OR_RETURN(shard->db, make_db(/*full=*/false, s));
    shard->engine = std::make_unique<BoundedEngine>(shard->db.get(), schema,
                                                    shard_engine_opts);
    BQE_RETURN_IF_ERROR(shard->engine->BuildIndices());
    eng->shards_.push_back(std::move(shard));
  }
  if (opts.fallback_replica) {
    auto rep = std::make_unique<Shard>();
    BQE_ASSIGN_OR_RETURN(rep->db, make_db(/*full=*/true, 0));
    rep->engine =
        std::make_unique<BoundedEngine>(rep->db.get(), schema, opts.engine);
    BQE_RETURN_IF_ERROR(rep->engine->BuildIndices());
    eng->replica_ = std::move(rep);
  }
  return eng;
}

size_t ShardedEngine::PlanningShard(const std::string& fingerprint) const {
  return static_cast<size_t>(HashBytes(fingerprint)) % shards_.size();
}

Result<std::shared_ptr<const PreparedQuery>> ShardedEngine::PrepareCompiled(
    const RaExprPtr& query, bool* cache_hit) const {
  const Shard& s = *shards_[PlanningShard(BoundedEngine::QueryFingerprint(query))];
  ReaderGateLock rl(&s.gate);
  return s.engine->PrepareCompiled(query, cache_hit);
}

bool ShardedEngine::StillCoherent(const std::string& fingerprint,
                                  const PreparedQuery& pq) const {
  return shards_[PlanningShard(fingerprint)]->engine->StillCoherent(pq);
}

Result<ExecuteResult> ShardedEngine::Execute(const RaExprPtr& query) const {
  bool cache_hit = false;
  BQE_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> pq,
                       PrepareCompiled(query, &cache_hit));
  if (pq->info.covered) {
    BQE_ASSIGN_OR_RETURN(ExecuteResult res, ExecutePrepared(*pq));
    res.plan_cache_hit = cache_hit;
    return res;
  }
  if (replica_ == nullptr) {
    return Status::NotCovered(pq->info.explanation);
  }
  ReaderGateLock rl(&replica_->gate);
  return replica_->engine->Execute(query);
}

Result<ExecuteResult> ShardedEngine::ExecutePrepared(const PreparedQuery& pq,
                                                     uint64_t task_tag,
                                                     size_t num_threads) const {
  if (!pq.info.covered) {
    return Status::FailedPrecondition(
        "non-covered preparation: route through Execute()");
  }
  ExecuteResult res;
  res.used_bounded_plan = true;
  BQE_ASSIGN_OR_RETURN(
      res.table,
      ExecutePlanScattered(pq.info.plan, task_tag, num_threads,
                           &res.bounded_stats));
  return res;
}

Result<Table> ShardedEngine::ExecutePlanScattered(const BoundedPlan& plan,
                                                  uint64_t task_tag,
                                                  size_t num_threads,
                                                  ExecStats* stats) const {
  struct StepData {
    std::vector<Tuple> rows;
  };
  ExecStats local;
  ExecStats* st = stats != nullptr ? stats : &local;
  if (plan.output < 0 || plan.output >= static_cast<int>(plan.steps.size())) {
    return Status::Internal("plan has no output step");
  }
  // Shards are built from one catalog + access schema, so static step
  // types agree across them; derive against shard 0.
  BQE_ASSIGN_OR_RETURN(
      std::vector<std::vector<ValueType>> types,
      DerivePlanStepTypes(plan, shards_[0]->engine->indices()));

  std::vector<StepData> results(plan.steps.size());
  std::string enc;  // Reused encode scratch for the central merge steps.
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const PlanStep& s = plan.steps[i];
    StepData& out = results[i];
    switch (s.kind) {
      case PlanStep::Kind::kConst:
        out.rows.push_back(s.row);
        break;
      case PlanStep::Kind::kEmpty:
        break;
      case PlanStep::Kind::kFetch: {
        BQE_RETURN_IF_ERROR(ScatterFetch(
            plan, s, results[static_cast<size_t>(s.input)].rows, task_tag,
            num_threads, st, &out.rows));
        break;
      }
      case PlanStep::Kind::kProject: {
        const StepData& in = results[static_cast<size_t>(s.input)];
        out.rows.reserve(in.rows.size());
        for (const Tuple& row : in.rows) {
          out.rows.push_back(ProjectTuple(row, s.cols));
        }
        if (s.dedupe) EncodedDedupe(&out.rows);
        break;
      }
      case PlanStep::Kind::kFilter: {
        const StepData& in = results[static_cast<size_t>(s.input)];
        out.rows.reserve(in.rows.size());
        for (const Tuple& row : in.rows) {
          bool keep = true;
          for (const PlanPredicate& p : s.preds) {
            if (!EvalPlanPredicate(row, p)) {
              keep = false;
              break;
            }
          }
          if (keep) out.rows.push_back(row);
        }
        break;
      }
      case PlanStep::Kind::kProduct: {
        const StepData& l = results[static_cast<size_t>(s.left)];
        const StepData& r = results[static_cast<size_t>(s.right)];
        constexpr size_t kMaxReserve = 1u << 20;
        size_t ln = l.rows.size(), rn = r.rows.size();
        out.rows.reserve(rn != 0 && ln > kMaxReserve / rn ? kMaxReserve
                                                          : ln * rn);
        for (const Tuple& a : l.rows) {
          for (const Tuple& b : r.rows) {
            Tuple t = a;
            t.insert(t.end(), b.begin(), b.end());
            out.rows.push_back(std::move(t));
          }
        }
        break;
      }
      case PlanStep::Kind::kJoin: {
        const StepData& l = results[static_cast<size_t>(s.left)];
        const StepData& r = results[static_cast<size_t>(s.right)];
        std::vector<int> lk, rk;
        for (auto [a, b] : s.join_cols) {
          lk.push_back(a);
          rk.push_back(b);
        }
        // Build-side chains in insertion order, probe in left order —
        // the same row stream the single-engine row path emits.
        KeyTable groups(r.rows.size());
        std::vector<std::vector<uint32_t>> chains;
        for (uint32_t bi = 0; bi < r.rows.size(); ++bi) {
          enc.clear();
          AppendEncodedTuple(ProjectTuple(r.rows[bi], rk), &enc);
          bool fresh = false;
          uint32_t g = groups.InsertOrFind(enc, &fresh);
          if (fresh) chains.emplace_back();
          chains[g].push_back(bi);
        }
        for (const Tuple& a : l.rows) {
          enc.clear();
          AppendEncodedTuple(ProjectTuple(a, lk), &enc);
          uint32_t g = groups.Find(enc);
          if (g == KeyTable::kNoGroup) continue;
          for (uint32_t bi : chains[g]) {
            Tuple t = a;
            const Tuple& b = r.rows[bi];
            t.insert(t.end(), b.begin(), b.end());
            out.rows.push_back(std::move(t));
          }
        }
        break;
      }
      case PlanStep::Kind::kUnion: {
        // Cross-shard dedupe-union: both gathered streams concatenate and
        // the merge finishes centrally on encoded keys.
        out.rows = results[static_cast<size_t>(s.left)].rows;
        const StepData& r = results[static_cast<size_t>(s.right)];
        out.rows.insert(out.rows.end(), r.rows.begin(), r.rows.end());
        EncodedDedupe(&out.rows);
        break;
      }
      case PlanStep::Kind::kDiff: {
        // Cross-shard difference: the subtrahend's gathered multiplicity
        // state becomes one central exclusion set (the PR 5 partitioned
        // kernel), probed by the minuend stream in order.
        const StepData& l = results[static_cast<size_t>(s.left)];
        const StepData& r = results[static_cast<size_t>(s.right)];
        PartitionedKeyTable right(MergeParts(r.rows.size()), r.rows.size());
        for (const Tuple& b : r.rows) {
          enc.clear();
          AppendEncodedTuple(b, &enc);
          bool fresh = false;
          right.InsertOrFind(enc, &fresh);
        }
        for (const Tuple& a : l.rows) {
          enc.clear();
          AppendEncodedTuple(a, &enc);
          if (right.Find(enc) == PartitionedKeyTable::kNoGroup) {
            out.rows.push_back(a);
          }
        }
        EncodedDedupe(&out.rows);
        break;
      }
    }
    st->intermediate_rows += out.rows.size();
    OpStats& os = st->ForKind(s.kind);
    ++os.calls;
    os.rows_out += out.rows.size();
  }

  const StepData& last = results[static_cast<size_t>(plan.output)];
  const std::vector<ValueType>& out_types =
      types[static_cast<size_t>(plan.output)];
  std::vector<Attribute> attrs;
  attrs.reserve(plan.output_names.size());
  for (size_t c = 0; c < plan.output_names.size(); ++c) {
    ValueType t = c < out_types.size() ? out_types[c] : ValueType::kNull;
    attrs.push_back(Attribute{plan.output_names[c], t});
  }
  Table out(RelationSchema("result", std::move(attrs)));
  for (const Tuple& row : last.rows) out.InsertUnchecked(row);
  st->output_rows = out.NumRows();
  return out;
}

Status ShardedEngine::ScatterFetch(const BoundedPlan& plan, const PlanStep& s,
                                   const std::vector<Tuple>& input,
                                   uint64_t task_tag, size_t num_threads,
                                   ExecStats* st,
                                   std::vector<Tuple>* out) const {
  const AccessConstraint& c = plan.actualized.at(s.constraint_id);
  int source = c.source_id >= 0 ? c.source_id : c.id;

  // Distinct probe keys in first-seen order (the row path's Dedupe),
  // reusing each key's encoding for slot routing.
  KeyTable seen(input.size());
  std::vector<Tuple> keys;
  std::vector<std::vector<size_t>> by_shard(shards_.size());
  std::string enc;
  for (const Tuple& key : input) {
    enc.clear();
    AppendEncodedTuple(key, &enc);
    bool fresh = false;
    seen.InsertOrFind(enc, &fresh);
    if (!fresh) continue;
    by_shard[router_.ShardOfEncoded(enc)].push_back(keys.size());
    keys.push_back(key);
  }

  std::vector<size_t> engaged;
  for (size_t sh = 0; sh < shards_.size(); ++sh) {
    if (!by_shard[sh].empty()) engaged.push_back(sh);
  }
  std::vector<const AccessIndex*> idx(shards_.size(), nullptr);
  for (size_t sh : engaged) {
    idx[sh] = shards_[sh]->engine->indices().Get(source);
    if (idx[sh] == nullptr) {
      return Status::Internal(StrCat("shard ", sh, ": no index for constraint ",
                                     c.ToString(), " (source id ", source,
                                     ")"));
    }
  }

  // One scatter task per engaged shard: fetch that shard's keys under its
  // reader gate into disjoint per-key bucket slots, gather in key order.
  std::vector<std::vector<Tuple>> buckets(keys.size());
  std::atomic<uint64_t> fetched{0};
  auto run_shard = [&](size_t sh) {
    const Shard& shard = *shards_[sh];
    ReaderGateLock rl(&shard.gate);
    uint64_t local = 0;
    for (size_t pos : by_shard[sh]) {
      buckets[pos] = idx[sh]->Fetch(keys[pos], &local);
    }
    fetched.fetch_add(local, std::memory_order_relaxed);
    shard.scatter_tasks_ctr.fetch_add(1, std::memory_order_relaxed);
  };

  size_t workers = num_threads == 0 ? AutoThreads() : num_threads;
  workers = std::min(workers, engaged.size());
  if (engaged.size() <= 1 || workers <= 1) {
    for (size_t sh : engaged) run_shard(sh);
  } else {
    WorkerPool::Shared().ParallelFor(
        engaged.size(), WorkerPool::GroupOptions{workers, task_tag},
        [&](size_t, size_t t) { run_shard(engaged[t]); });
  }

  st->fetch_probes += keys.size();
  st->tuples_fetched += fetched.load(std::memory_order_relaxed);
  for (std::vector<Tuple>& bucket : buckets) {
    for (Tuple& row : bucket) out->push_back(std::move(row));
  }
  return Status::Ok();
}

Result<MaintenanceStats> ShardedEngine::Apply(const std::vector<Delta>& deltas,
                                              OverflowPolicy policy) {
  std::vector<std::vector<Delta>> split = router_.SplitDeltas(deltas);
  std::vector<size_t> touched;
  std::vector<WriterPriorityGate*> gates;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (split[s].empty()) continue;
    touched.push_back(s);
    gates.push_back(&shards_[s]->gate);
  }
  if (replica_ != nullptr) gates.push_back(&replica_->gate);
  GateWriteHold hold(std::move(gates));

  for (size_t s : touched) {
    Shard& shard = *shards_[s];
    BQE_RETURN_IF_ERROR(shard.engine->Apply(split[s], policy));
    shard.delta_batches_ctr.fetch_add(1, std::memory_order_relaxed);
    shard.deltas_routed_ctr.fetch_add(split[s].size(), std::memory_order_relaxed);
  }

  MaintenanceStats out;
  if (replica_ != nullptr) {
    // The replica applies the whole logical batch, so its stats *are* the
    // single-engine stats for this Apply.
    BQE_ASSIGN_OR_RETURN(out, replica_->engine->Apply(deltas, policy));
  } else {
    // No replica: report logical per-delta counts; per-shard index touches
    // fold into index_updates (a delta owned by k shards updates the
    // relation's indices on each, so this can exceed the single-engine
    // count — it measures work done, not logical change).
    for (const Delta& d : deltas) {
      if (d.kind == Delta::Kind::kInsert) {
        ++out.inserts;
      } else {
        ++out.deletes;
      }
    }
    out.deltas_applied = deltas.size();
    if (touched.empty()) out = MaintenanceStats{};
  }

  if (out.deltas_applied > 0 || !touched.empty()) {
    last_applied_.deltas = deltas;
    last_applied_.data_epoch = Coherence().data_epoch;
  }
  return out;
}

CoherenceSnapshot ShardedEngine::Coherence() const {
  CoherenceSnapshot out;
  auto fold = [&out](const Shard& s) {
    CoherenceSnapshot c = s.engine->Coherence();
    out.schema_epoch += c.schema_epoch;
    out.data_epoch += c.data_epoch;
  };
  for (const std::unique_ptr<Shard>& s : shards_) fold(*s);
  if (replica_ != nullptr) fold(*replica_);
  return out;
}

std::vector<Tuple> ShardedEngine::RoutedFetch(const AccessIndex& binding,
                                              const Tuple& key) const {
  const Shard& shard = *shards_[router_.ShardOfKey(key)];
  const AccessIndex* idx =
      shard.engine->indices().Get(binding.constraint().id);
  return idx != nullptr ? idx->Fetch(key) : std::vector<Tuple>{};
}

bool ShardedEngine::RoutedPatchLog(const AccessIndex& binding,
                                   std::vector<uint64_t>* stamp,
                                   std::vector<BucketPatch>* out) const {
  const int cid = binding.constraint().id;
  if (stamp->empty()) {
    stamp->reserve(shards_.size());
    for (const std::unique_ptr<Shard>& s : shards_) {
      const AccessIndex* idx = s->engine->indices().Get(cid);
      stamp->push_back(idx != nullptr ? idx->patch_log_stamp() : 0);
    }
    return true;
  }
  if (stamp->size() != shards_.size()) return false;  // Foreign cursor.
  bool ok = true;
  std::vector<BucketPatch> shard_events;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const AccessIndex* idx = shards_[i]->engine->indices().Get(cid);
    if (idx == nullptr) continue;
    shard_events.clear();
    const bool shard_ok = idx->PatchLogSince((*stamp)[i], &shard_events);
    (*stamp)[i] = idx->patch_log_stamp();
    if (!shard_ok) {
      ok = false;  // Keep draining: every cursor must land at "now".
      continue;
    }
    for (BucketPatch& ev : shard_events) {
      // Ownership filter: only the owning shard's copy of this transition
      // counts — a replica holding the row for a different constraint's
      // key logs the same event against a bucket it is never probed for.
      if (router_.ShardOfKey(ev.key) != i) continue;
      out->push_back(std::move(ev));
    }
  }
  return ok;
}

void ShardedEngine::SetFreezeHook(AccessIndex::FreezeHook hook) const {
  for (const std::unique_ptr<Shard>& s : shards_) {
    s->engine->indices().SetFreezeHook(hook);
  }
  if (replica_ != nullptr) replica_->engine->indices().SetFreezeHook(hook);
}

ShardStatsSnapshot ShardedEngine::shard_stats(size_t shard) const {
  const Shard& s = *shards_[shard];
  ShardStatsSnapshot out;
  out.coherence = s.engine->Coherence();
  out.scatter_tasks = s.scatter_tasks_ctr.load(std::memory_order_relaxed);
  out.delta_batches = s.delta_batches_ctr.load(std::memory_order_relaxed);
  out.deltas_routed = s.deltas_routed_ctr.load(std::memory_order_relaxed);
  return out;
}

PlanCacheStats ShardedEngine::plan_cache_stats() const {
  PlanCacheStats out;
  for (const std::unique_ptr<Shard>& s : shards_) {
    PlanCacheStats c = s->engine->plan_cache_stats();
    out.hits += c.hits;
    out.misses += c.misses;
    out.evictions += c.evictions;
    out.reprepares += c.reprepares;
    out.breaker_builds += c.breaker_builds;
    out.partitioned_builds += c.partitioned_builds;
    out.serial_builds += c.serial_builds;
    out.build_us += c.build_us;
    out.build_feedback_repicks += c.build_feedback_repicks;
  }
  return out;
}

}  // namespace cluster
}  // namespace bqe
