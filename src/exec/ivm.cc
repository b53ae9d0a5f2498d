#include "exec/ivm.h"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "exec/key_codec.h"
#include "ra/expr.h"
#include "storage/tuple.h"

namespace bqe {

namespace {

/// Hash-node + key-string bookkeeping per retained map entry, coarse.
constexpr size_t kEntryOverhead = 48;

std::string Enc(const Tuple& t) {
  std::string s;
  AppendEncodedTuple(t, &s);
  return s;
}

/// The estimate of one retained row. It counts sizes, not capacities: the
/// copy a map or bag stores need not have the capacity of the tuple it was
/// copied from (a Concat result keeps the spare room its growth left), so a
/// capacity-based charge on insert and a capacity-based credit on removal
/// would count different tuples and drift apart under churn.
size_t TupleBytes(const Tuple& t) {
  size_t b = sizeof(Tuple) + t.size() * sizeof(Value);
  for (const Value& v : t) {
    if (v.type() == ValueType::kString) b += v.AsString().size();
  }
  return b;
}

void SubBytes(size_t* total, size_t amount) {
  *total -= std::min(*total, amount);
}

/// Signed bag delta flowing between operators: rows entering the op's
/// output and rows leaving it, both with multiplicity (duplicates allowed).
/// A row may appear on both sides (an upstream set-semantic op can emit a
/// transient pair); downstream consumers and the final patch treat the two
/// lists as one signed bag, so such pairs cancel.
struct SignedRows {
  std::vector<Tuple> plus, minus;
};

/// One retained fetch probe: the key's input-row multiplicity and the
/// bucket the index resolved for it, as a hash set of distinct rows keyed
/// on their encoding — so replaying one bucket patch-log event is O(1),
/// not O(bucket).
struct FetchEntry {
  Tuple key;
  int64_t count = 0;
  std::unordered_map<std::string, Tuple> bucket;
};

/// One retained multiplicity-map entry for set-semantic ops.
struct CountEntry {
  Tuple row;
  int64_t count = 0;
};

/// A join/product side retained as a bag with a hash index on its key
/// projection (empty projection = the single product bucket).
struct BagIndex {
  std::vector<int> key_cols;
  std::unordered_map<std::string, std::vector<Tuple>> buckets;
};

std::string BagKey(const BagIndex& bag, const Tuple& row,
                   const std::vector<int>& row_key_cols) {
  (void)bag;
  return Enc(ProjectTuple(row, row_key_cols));
}

void BagAdd(BagIndex* bag, const Tuple& row, size_t* bytes) {
  bag->buckets[BagKey(*bag, row, bag->key_cols)].push_back(row);
  *bytes += TupleBytes(row) + kEntryOverhead;
}

bool BagRemove(BagIndex* bag, const Tuple& row, size_t* bytes) {
  auto it = bag->buckets.find(BagKey(*bag, row, bag->key_cols));
  if (it == bag->buckets.end()) return false;
  std::vector<Tuple>& rows = it->second;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] != row) continue;
    SubBytes(bytes, TupleBytes(rows[i]) + kEntryOverhead);
    rows[i] = std::move(rows.back());
    rows.pop_back();
    if (rows.empty()) bag->buckets.erase(it);
    return true;
  }
  return false;
}

/// The rows of `bag` matching `row`'s key (projected through the *probing*
/// side's key columns — byte-compatible with the bag's own key encoding per
/// the key codec's contract), or nullptr when no row matches.
const std::vector<Tuple>* BagProbe(const BagIndex& bag, const Tuple& row,
                                   const std::vector<int>& row_key_cols) {
  auto it = bag.buckets.find(BagKey(bag, row, row_key_cols));
  return it == bag.buckets.end() ? nullptr : &it->second;
}

Tuple Concat(const Tuple& a, const Tuple& b) {
  Tuple t = a;
  t.insert(t.end(), b.begin(), b.end());
  return t;
}

bool PassesPreds(const Tuple& row, const std::vector<PlanPredicate>& preds) {
  for (const PlanPredicate& p : preds) {
    const Value& l = row[static_cast<size_t>(p.lhs)];
    bool ok = p.kind == PlanPredicate::Kind::kColConst
                  ? EvalCmp(p.op, l, p.constant)
                  : EvalCmp(p.op, l, row[static_cast<size_t>(p.rhs)]);
    if (!ok) return false;
  }
  return true;
}

/// Re-resolves one retained bucket wholesale: diffs the freshly fetched
/// distinct rows against the retained hash bucket, emits the signed
/// difference, and installs the fresh bucket. O(old + new) — the
/// truncated-log fallback path only.
void RediffBucket(FetchEntry* e, std::vector<Tuple> now, SignedRows* out,
                  size_t* bytes) {
  std::unordered_map<std::string, Tuple> fresh;
  fresh.reserve(now.size());
  for (Tuple& r : now) {
    std::string enc = Enc(r);
    if (e->bucket.find(enc) == e->bucket.end()) out->plus.push_back(r);
    *bytes += TupleBytes(r) + kEntryOverhead;
    fresh.emplace(std::move(enc), std::move(r));
  }
  for (auto& [enc, r] : e->bucket) {
    SubBytes(bytes, TupleBytes(r) + kEntryOverhead);
    if (fresh.find(enc) == fresh.end()) out->minus.push_back(std::move(r));
  }
  e->bucket = std::move(fresh);
}

double MicrosSince(std::chrono::steady_clock::time_point from,
                   std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

/// Per-operator retained state; which fields are live depends on the op
/// kind (see class comment in ivm.h). One flat struct instead of a variant:
/// the unused maps cost a few empty buckets per op, and the refresh switch
/// stays free of casts.
struct PlanMaintenance::OpState {
  std::unordered_map<std::string, FetchEntry> probed;          // kFetch.
  /// Bucket patch-log cursor for this op's index binding (kFetch): where
  /// the last Build/Refresh left off.
  uint64_t log_stamp = 0;                                      // kFetch.
  BagIndex left, right;                                        // kJoin/kProduct.
  std::unordered_map<std::string, CountEntry> counts;          // dedupe/kUnion.
  std::unordered_map<std::string, CountEntry> lcounts, rcounts;  // kDiff.
};

PlanMaintenance::~PlanMaintenance() = default;

std::unique_ptr<PlanMaintenance> PlanMaintenance::Build(
    const WriterPriorityGate& gate, std::shared_ptr<const PhysicalPlan> plan,
    const Table& result, size_t max_bytes, bool* size_exceeded) {
  (void)gate;  // Capability parameter: the REQUIRES_SHARED contract is it.
  if (size_exceeded != nullptr) *size_exceeded = false;
  if (plan == nullptr) return nullptr;
  std::unique_ptr<PlanMaintenance> m(new PlanMaintenance());
  m->plan_ = std::move(plan);
  const std::vector<PhysicalOp>& ops = m->plan_->ops();
  const int output = m->plan_->output();
  if (output < 0 || output >= static_cast<int>(ops.size())) return nullptr;
  // The delta classification set is the plan's compile-time read set.
  m->read_rels_.insert(m->plan_->fetch_rels().begin(),
                       m->plan_->fetch_rels().end());
  m->states_.reserve(ops.size());
  size_t* bytes = &m->approx_bytes_;

  // One serial pass in op order (inputs precede consumers), mirroring the
  // row-path operator semantics exactly while retaining per-op state. The
  // derived rows are only needed transiently for downstream ops and the
  // final bag verification.
  std::vector<std::vector<Tuple>> rows(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const PhysicalOp& op = ops[i];
    m->states_.push_back(std::make_unique<OpState>());
    OpState& st = *m->states_.back();
    std::vector<Tuple>& out = rows[i];
    switch (op.kind) {
      case PlanStep::Kind::kConst:
        out.push_back(op.const_row);
        break;
      case PlanStep::Kind::kEmpty:
        break;
      case PlanStep::Kind::kFetch: {
        if (op.index == nullptr || op.input < 0) return nullptr;
        // Stamp the index's bucket patch log at the retained buckets'
        // resolution point: Refresh() replays exactly the events logged
        // after this onto them.
        st.log_stamp = op.index->patch_log_stamp();
        // The fetch step probes with the *distinct* input rows; retain each
        // key's multiplicity so input deltas only matter on 0 <-> 1.
        for (const Tuple& key : rows[static_cast<size_t>(op.input)]) {
          if (*bytes > max_bytes) break;
          auto [it, fresh] = st.probed.try_emplace(Enc(key));
          FetchEntry& e = it->second;
          if (!fresh) {
            ++e.count;
            continue;
          }
          e.key = key;
          e.count = 1;
          *bytes += TupleBytes(key) + kEntryOverhead;
          for (Tuple& r : op.index->Fetch(key)) {
            *bytes += TupleBytes(r) + kEntryOverhead;
            out.push_back(r);
            e.bucket.emplace(Enc(r), std::move(r));
          }
        }
        break;
      }
      case PlanStep::Kind::kProject: {
        if (op.input < 0) return nullptr;
        const std::vector<Tuple>& in = rows[static_cast<size_t>(op.input)];
        if (!op.dedupe) {
          out.reserve(in.size());
          for (const Tuple& r : in) out.push_back(ProjectTuple(r, op.cols));
          break;
        }
        for (const Tuple& r : in) {
          Tuple p = ProjectTuple(r, op.cols);
          auto [it, fresh] = st.counts.try_emplace(Enc(p));
          CountEntry& e = it->second;
          ++e.count;
          if (fresh) {
            e.row = p;
            *bytes += TupleBytes(p) + kEntryOverhead;
            out.push_back(std::move(p));
          }
        }
        break;
      }
      case PlanStep::Kind::kFilter: {
        if (op.input < 0) return nullptr;
        for (const Tuple& r : rows[static_cast<size_t>(op.input)]) {
          if (PassesPreds(r, op.preds)) out.push_back(r);
        }
        break;
      }
      case PlanStep::Kind::kProduct:
      case PlanStep::Kind::kJoin: {
        if (op.left < 0 || op.right < 0) return nullptr;
        st.left.key_cols = op.lkey;    // Both empty for kProduct: one
        st.right.key_cols = op.rkey;   // bucket, i.e. the nested loop.
        const std::vector<Tuple>& lrows = rows[static_cast<size_t>(op.left)];
        const std::vector<Tuple>& rrows = rows[static_cast<size_t>(op.right)];
        for (const Tuple& r : lrows) {
          if (*bytes > max_bytes) break;
          BagAdd(&st.left, r, bytes);
        }
        for (const Tuple& r : rrows) {
          if (*bytes > max_bytes) break;
          BagAdd(&st.right, r, bytes);
        }
        if (*bytes > max_bytes) break;  // Post-switch check aborts.
        for (const Tuple& a : lrows) {
          const std::vector<Tuple>* bucket =
              BagProbe(st.right, a, st.left.key_cols);
          if (bucket == nullptr) continue;
          for (const Tuple& b : *bucket) out.push_back(Concat(a, b));
        }
        break;
      }
      case PlanStep::Kind::kUnion: {
        if (op.left < 0 || op.right < 0) return nullptr;
        for (int side : {op.left, op.right}) {
          for (const Tuple& r : rows[static_cast<size_t>(side)]) {
            auto [it, fresh] = st.counts.try_emplace(Enc(r));
            CountEntry& e = it->second;
            ++e.count;
            if (fresh) {
              e.row = r;
              *bytes += TupleBytes(r) + kEntryOverhead;
              out.push_back(r);
            }
          }
        }
        break;
      }
      case PlanStep::Kind::kDiff: {
        if (op.left < 0 || op.right < 0) return nullptr;
        for (const Tuple& r : rows[static_cast<size_t>(op.right)]) {
          auto [it, fresh] = st.rcounts.try_emplace(Enc(r));
          CountEntry& e = it->second;
          ++e.count;
          if (fresh) {
            e.row = r;
            *bytes += TupleBytes(r) + kEntryOverhead;
          }
        }
        for (const Tuple& r : rows[static_cast<size_t>(op.left)]) {
          std::string enc = Enc(r);
          auto [it, fresh] = st.lcounts.try_emplace(enc);
          CountEntry& e = it->second;
          ++e.count;
          if (fresh) {
            e.row = r;
            *bytes += TupleBytes(r) + kEntryOverhead;
            if (st.rcounts.find(enc) == st.rcounts.end()) out.push_back(r);
          }
        }
        break;
      }
    }
    // Early size abort: a handle the caller is going to refuse anyway must
    // not pay the rest of the replay or the verification sort. The heavy
    // per-row accumulators (fetch buckets, join bags) also break out of
    // their own loops on the same condition, so the overshoot past
    // `max_bytes` is at most one retained entry.
    if (m->approx_bytes_ > max_bytes) {
      if (size_exceeded != nullptr) *size_exceeded = true;
      return nullptr;
    }
  }

  // Verify the derived output bag against the cached table exactly. The
  // vectorized executor only promises the same *bag* as these row-path
  // semantics, and only with this check does a later patch provably apply
  // to a table the retained state accounts for.
  const std::vector<Tuple>& derived = rows[static_cast<size_t>(output)];
  if (derived.size() != result.NumRows()) return nullptr;
  std::unordered_map<std::string, int64_t> bag;
  for (const Tuple& r : result.rows()) ++bag[Enc(r)];
  for (const Tuple& r : derived) {
    auto it = bag.find(Enc(r));
    if (it == bag.end() || it->second == 0) return nullptr;
    --it->second;
  }
  m->approx_bytes_ += sizeof(PlanMaintenance) + ops.size() * sizeof(OpState);
  return m;
}

RefreshOutcome PlanMaintenance::Refresh(
    const WriterPriorityGate& gate, const std::vector<Delta>& deltas,
    const std::shared_ptr<const Table>& current,
    std::shared_ptr<const Table>* patched, RefreshStats* stats) {
  (void)gate;  // Capability parameter: the REQUIRES contract is it.
  if (stats != nullptr) *stats = RefreshStats{};
  if (dead_ || current == nullptr || patched == nullptr) {
    dead_ = true;
    return RefreshOutcome::kNotMaintainable;
  }
  const std::vector<PhysicalOp>& ops = plan_->ops();
  const size_t output = static_cast<size_t>(plan_->output());
  size_t* bytes = &approx_bytes_;

  // Phase clocks only when the caller wants stats: three steady_clock
  // reads per refresh, none per row.
  using Clock = std::chrono::steady_clock;
  const bool timed = stats != nullptr;
  Clock::time_point t_start, t_classified, t_propagated;
  if (timed) t_start = Clock::now();

  // Classify the batch against the plan's fetch read set.
  std::unordered_map<std::string_view, std::vector<const Delta*>> by_rel;
  size_t relevant = 0;
  for (const Delta& d : deltas) {
    if (read_rels_.count(d.rel) == 0) continue;
    by_rel[std::string_view(d.rel)].push_back(&d);
    ++relevant;
  }
  if (timed) {
    t_classified = Clock::now();
    stats->deltas_relevant = relevant;
    stats->classify_us = MicrosSince(t_start, t_classified);
  }
  if (relevant == 0) {
    // The batch only touched relations outside the read set: the cached
    // table is already the post-batch answer, it just needs re-keying to
    // the new snapshot by the caller. (No bound index logged an event
    // either — an index only records transitions of its own relation — so
    // the patch-log cursors are already current.)
    *patched = current;
    return RefreshOutcome::kRefreshed;
  }

  // Propagate the signed micro-batch through the op DAG in index order.
  // Any inconsistency (count underflow, missing retained row) or
  // spec-unmaintainable shape returns false and kills the handle: retained
  // state may be partially advanced past the pre-batch world.
  std::vector<SignedRows> dio(ops.size());
  bool ok = [&]() -> bool {
    for (size_t i = 0; i < ops.size(); ++i) {
      const PhysicalOp& op = ops[i];
      OpState& st = *states_[i];
      SignedRows& out = dio[i];
      switch (op.kind) {
        case PlanStep::Kind::kConst:
        case PlanStep::Kind::kEmpty:
          break;
        case PlanStep::Kind::kFetch: {
          const SignedRows& in = dio[static_cast<size_t>(op.input)];
          // Input-side key transitions first. A key freshly probed here
          // resolves against the live *post-batch* index, so the log
          // replay below must skip its events — they are already folded
          // into the fresh bucket.
          std::unordered_set<std::string> fresh_keys;
          for (const Tuple& key : in.minus) {
            auto it = st.probed.find(Enc(key));
            if (it == st.probed.end() || it->second.count <= 0) return false;
            FetchEntry& e = it->second;
            if (--e.count == 0) {
              SubBytes(bytes, TupleBytes(e.key) + kEntryOverhead);
              for (auto& [enc, r] : e.bucket) {
                SubBytes(bytes, TupleBytes(r) + kEntryOverhead);
                out.minus.push_back(std::move(r));
              }
              st.probed.erase(it);
            }
          }
          for (const Tuple& key : in.plus) {
            std::string ek = Enc(key);
            auto [it, fresh] = st.probed.try_emplace(ek);
            FetchEntry& e = it->second;
            if (!fresh) {
              ++e.count;
              continue;
            }
            e.key = key;
            e.count = 1;
            *bytes += TupleBytes(key) + kEntryOverhead;
            for (Tuple& r : op.index->Fetch(key)) {
              *bytes += TupleBytes(r) + kEntryOverhead;
              out.plus.push_back(r);
              e.bucket.emplace(Enc(r), std::move(r));
            }
            fresh_keys.insert(std::move(ek));
          }
          // Index-side: the mirror patch log *is* the signed bucket delta
          // of this batch — replay the events that land on retained keys,
          // O(1) each, instead of re-resolving whole buckets. Drained only
          // when the batch touched this op's relation: an index logs only
          // its own relation's transitions, so otherwise the cursor is
          // already current.
          if (by_rel.find(std::string_view(op.index->constraint().rel)) ==
              by_rel.end()) {
            break;
          }
          // The cursor moves to "now" even when events were lost to a
          // budget-forced mirror rebuild (PatchLogSince false): the
          // wholesale fallback below brings the buckets to "now" too.
          std::vector<BucketPatch> events;
          const bool logged = op.index->PatchLogSince(st.log_stamp, &events);
          st.log_stamp = op.index->patch_log_stamp();
          if (logged) {
            for (BucketPatch& ev : events) {
              std::string ek = Enc(ev.key);
              auto it = st.probed.find(ek);
              if (it == st.probed.end()) continue;      // Key never probed.
              if (fresh_keys.count(ek) != 0) continue;  // Post-batch above.
              FetchEntry& e = it->second;
              if (stats != nullptr) ++stats->bucket_diff_hits;
              std::string er = Enc(ev.row);
              if (ev.sign > 0) {
                auto [rit, added] = e.bucket.emplace(std::move(er), ev.row);
                if (!added) return false;  // Log/bucket disagree: impossible.
                *bytes += TupleBytes(ev.row) + kEntryOverhead;
                out.plus.push_back(std::move(ev.row));
              } else {
                auto rit = e.bucket.find(er);
                if (rit == e.bucket.end()) return false;  // Disagreement.
                SubBytes(bytes, TupleBytes(rit->second) + kEntryOverhead);
                out.minus.push_back(std::move(rit->second));
                e.bucket.erase(rit);
              }
            }
            break;
          }
          // Truncated log: a budget-forced mirror rebuild dropped events
          // since the last refresh, which can only have happened within
          // this very batch (every prior batch's events were consumed in
          // order). Fall back to wholesale re-resolution of the retained
          // keys this batch's deltas land on — the pre-log behavior, now
          // the rare path. The cursor already advanced to "now", so the
          // next batch replays the log again.
          {
            auto rel_it =
                by_rel.find(std::string_view(op.index->constraint().rel));
            std::unordered_set<std::string> redone;
            for (const Delta* d : rel_it->second) {
              Tuple key = op.index->FetchKeyOf(d->row);
              std::string ek = Enc(key);
              auto it = st.probed.find(ek);
              if (it == st.probed.end()) continue;      // Key never probed.
              if (fresh_keys.count(ek) != 0) continue;  // Already post-batch.
              if (!redone.insert(ek).second) continue;  // One fetch per key.
              if (stats != nullptr) ++stats->bucket_refetch_fallbacks;
              RediffBucket(&it->second, op.index->Fetch(key), &out, bytes);
            }
          }
          break;
        }
        case PlanStep::Kind::kProject: {
          const SignedRows& in = dio[static_cast<size_t>(op.input)];
          if (!op.dedupe) {
            for (const Tuple& r : in.plus) {
              out.plus.push_back(ProjectTuple(r, op.cols));
            }
            for (const Tuple& r : in.minus) {
              out.minus.push_back(ProjectTuple(r, op.cols));
            }
            break;
          }
          // Set semantics: emit only on support transitions.
          auto touch = [&](Tuple p, int64_t sign) -> bool {
            std::string enc = Enc(p);
            auto [it, fresh] = st.counts.try_emplace(std::move(enc));
            CountEntry& e = it->second;
            if (fresh) {
              e.row = std::move(p);
              *bytes += TupleBytes(e.row) + kEntryOverhead;
            }
            bool was = e.count > 0;
            e.count += sign;
            if (e.count < 0) return false;
            if (!was && e.count > 0) out.plus.push_back(e.row);
            if (was && e.count == 0) out.minus.push_back(e.row);
            if (e.count == 0) {
              SubBytes(bytes, TupleBytes(e.row) + kEntryOverhead);
              st.counts.erase(it);
            }
            return true;
          };
          for (const Tuple& r : in.plus) {
            if (!touch(ProjectTuple(r, op.cols), 1)) return false;
          }
          for (const Tuple& r : in.minus) {
            if (!touch(ProjectTuple(r, op.cols), -1)) return false;
          }
          break;
        }
        case PlanStep::Kind::kFilter: {
          const SignedRows& in = dio[static_cast<size_t>(op.input)];
          for (const Tuple& r : in.plus) {
            if (PassesPreds(r, op.preds)) out.plus.push_back(r);
          }
          for (const Tuple& r : in.minus) {
            if (PassesPreds(r, op.preds)) out.minus.push_back(r);
          }
          break;
        }
        case PlanStep::Kind::kProduct:
        case PlanStep::Kind::kJoin: {
          const SignedRows& dl = dio[static_cast<size_t>(op.left)];
          const SignedRows& dr = dio[static_cast<size_t>(op.right)];
          // Two-stage signed propagation: dL meets R-old, commit dL, then
          // dR meets L-new. The second stage's committed left side is what
          // gives the dL x dR cross term exactly once, with the product of
          // the signs.
          for (const Tuple& a : dl.plus) {
            const std::vector<Tuple>* b = BagProbe(st.right, a, op.lkey);
            if (b == nullptr) continue;
            for (const Tuple& r : *b) out.plus.push_back(Concat(a, r));
          }
          for (const Tuple& a : dl.minus) {
            const std::vector<Tuple>* b = BagProbe(st.right, a, op.lkey);
            if (b == nullptr) continue;
            for (const Tuple& r : *b) out.minus.push_back(Concat(a, r));
          }
          for (const Tuple& a : dl.plus) BagAdd(&st.left, a, bytes);
          for (const Tuple& a : dl.minus) {
            if (!BagRemove(&st.left, a, bytes)) return false;
          }
          for (const Tuple& b : dr.plus) {
            const std::vector<Tuple>* l = BagProbe(st.left, b, op.rkey);
            if (l != nullptr) {
              for (const Tuple& a : *l) out.plus.push_back(Concat(a, b));
            }
          }
          for (const Tuple& b : dr.minus) {
            const std::vector<Tuple>* l = BagProbe(st.left, b, op.rkey);
            if (l != nullptr) {
              for (const Tuple& a : *l) out.minus.push_back(Concat(a, b));
            }
          }
          for (const Tuple& b : dr.plus) BagAdd(&st.right, b, bytes);
          for (const Tuple& b : dr.minus) {
            if (!BagRemove(&st.right, b, bytes)) return false;
          }
          break;
        }
        case PlanStep::Kind::kUnion: {
          auto touch = [&](const Tuple& r, int64_t sign) -> bool {
            auto [it, fresh] = st.counts.try_emplace(Enc(r));
            CountEntry& e = it->second;
            if (fresh) {
              e.row = r;
              *bytes += TupleBytes(r) + kEntryOverhead;
            }
            bool was = e.count > 0;
            e.count += sign;
            if (e.count < 0) return false;
            if (!was && e.count > 0) out.plus.push_back(e.row);
            if (was && e.count == 0) out.minus.push_back(e.row);
            if (e.count == 0) {
              SubBytes(bytes, TupleBytes(e.row) + kEntryOverhead);
              st.counts.erase(it);
            }
            return true;
          };
          for (int side : {op.left, op.right}) {
            const SignedRows& in = dio[static_cast<size_t>(side)];
            for (const Tuple& r : in.plus) {
              if (!touch(r, 1)) return false;
            }
            for (const Tuple& r : in.minus) {
              if (!touch(r, -1)) return false;
            }
          }
          break;
        }
        case PlanStep::Kind::kDiff: {
          const SignedRows& dl = dio[static_cast<size_t>(op.left)];
          const SignedRows& dr = dio[static_cast<size_t>(op.right)];
          auto lcount = [&](const std::string& enc) -> int64_t {
            auto it = st.lcounts.find(enc);
            return it == st.lcounts.end() ? 0 : it->second.count;
          };
          auto rcount = [&](const std::string& enc) -> int64_t {
            auto it = st.rcounts.find(enc);
            return it == st.rcounts.end() ? 0 : it->second.count;
          };
          // Net the subtrahend delta per row first: a transient plus/minus
          // pair from an upstream set-semantic op is no transition at all,
          // and netting keeps one from masquerading as a resurrection.
          struct NetRow {
            const Tuple* row = nullptr;
            int64_t net = 0;
          };
          std::unordered_map<std::string, NetRow> rnet;
          for (const Tuple& r : dr.plus) {
            NetRow& n = rnet[Enc(r)];
            n.row = &r;
            ++n.net;
          }
          for (const Tuple& r : dr.minus) {
            NetRow& n = rnet[Enc(r)];
            if (n.row == nullptr) n.row = &r;
            --n.net;
          }
          for (auto& [enc, n] : rnet) {
            if (n.net > 0) {
              auto [it, fresh] = st.rcounts.try_emplace(enc);
              CountEntry& e = it->second;
              if (fresh) {
                e.row = *n.row;
                *bytes += TupleBytes(e.row) + kEntryOverhead;
              }
              bool was = e.count > 0;
              e.count += n.net;
              // A subtrahend key gaining support suppresses a live row.
              if (!was && lcount(enc) > 0) {
                out.minus.push_back(st.lcounts.find(enc)->second.row);
              }
            } else if (n.net < 0) {
              auto it = st.rcounts.find(enc);
              if (it == st.rcounts.end() || it->second.count < -n.net) {
                return false;  // Underflow: impossible, batch was applied.
              }
              CountEntry& e = it->second;
              e.count += n.net;
              if (e.count > 0) {
                // Surviving duplicates still hold the suppression: a pure
                // support-count decrement, no output change possible.
                if (stats != nullptr) ++stats->subtrahend_decrements;
                continue;
              }
              SubBytes(bytes, TupleBytes(e.row) + kEntryOverhead);
              st.rcounts.erase(it);
              if (lcount(enc) > 0) {
                // Support hit zero under a retained minuend row: a
                // previously-suppressed row actually resurrects, the one
                // difference shape still handed to the recompute fallback.
                if (stats != nullptr) ++stats->resurrection_fallbacks;
                return false;
              }
              // The key never suppressed any retained row: bookkeeping
              // only, the deletion cannot surface anything.
              if (stats != nullptr) ++stats->subtrahend_decrements;
            }
          }
          for (const Tuple& r : dl.plus) {
            std::string enc = Enc(r);
            auto [it, fresh] = st.lcounts.try_emplace(std::move(enc));
            CountEntry& e = it->second;
            if (fresh) {
              e.row = r;
              *bytes += TupleBytes(r) + kEntryOverhead;
            }
            bool was = e.count > 0;
            ++e.count;
            if (!was && rcount(Enc(r)) == 0) out.plus.push_back(r);
          }
          for (const Tuple& r : dl.minus) {
            std::string enc = Enc(r);
            auto it = st.lcounts.find(enc);
            if (it == st.lcounts.end() || it->second.count <= 0) return false;
            CountEntry& e = it->second;
            if (--e.count == 0) {
              if (rcount(enc) == 0) out.minus.push_back(e.row);
              SubBytes(bytes, TupleBytes(e.row) + kEntryOverhead);
              st.lcounts.erase(it);
            }
          }
          break;
        }
      }
    }
    return true;
  }();
  if (timed) {
    t_propagated = Clock::now();
    stats->propagate_us = MicrosSince(t_classified, t_propagated);
  }
  if (!ok) {
    dead_ = true;
    return RefreshOutcome::kNotMaintainable;
  }

  // Apply the output's *net* signed bag to the cached table. Netting first
  // (instead of removing minus rows and appending plus rows independently)
  // makes transient plus/minus pairs from upstream set-semantic transitions
  // cancel instead of tripping the missing-row check.
  const SignedRows& out = dio[output];
  if (out.plus.empty() && out.minus.empty()) {
    *patched = current;
    return RefreshOutcome::kRefreshed;
  }
  struct Net {
    const Tuple* row = nullptr;
    int64_t count = 0;
  };
  std::unordered_map<std::string, Net> net;
  for (const Tuple& r : out.plus) {
    Net& n = net[Enc(r)];
    n.row = &r;
    ++n.count;
  }
  for (const Tuple& r : out.minus) {
    Net& n = net[Enc(r)];
    if (n.row == nullptr) n.row = &r;
    --n.count;
  }
  size_t added = 0, removed = 0;
  Table t(current->schema());
  for (const Tuple& r : current->rows()) {
    auto it = net.find(Enc(r));
    if (it != net.end() && it->second.count < 0) {
      ++it->second.count;
      ++removed;
      continue;
    }
    t.InsertUnchecked(r);
  }
  for (const auto& [enc, n] : net) {
    if (n.count < 0) {
      // A net removal the cached table does not contain: the retained state
      // and the table disagree. Never expected (Build verified the bag);
      // fall back rather than serve a speculative patch.
      dead_ = true;
      return RefreshOutcome::kNotMaintainable;
    }
    for (int64_t k = 0; k < n.count; ++k) {
      t.InsertUnchecked(*n.row);
      ++added;
    }
  }
  if (stats != nullptr) {
    stats->rows_added = added;
    stats->rows_removed = removed;
  }
  if (timed) stats->patch_us = MicrosSince(t_propagated, Clock::now());
  *patched = std::make_shared<const Table>(std::move(t));
  return RefreshOutcome::kRefreshed;
}

}  // namespace bqe
