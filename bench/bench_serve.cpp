// Serving-layer throughput/latency: the same mixed read/delta workload
// (workload/graph_churn.h at bench scale) pushed by 8 client threads through
// two serving disciplines over identical engines:
//
//   serial_mutex  the pre-serving architecture: every caller holds one
//                 global mutex around engine.Execute()/Apply() — requests
//                 fully serialize, each paying its own cache lookup.
//   service       the src/serve QueryService: bounded-queue admission,
//                 same-fingerprint batching (one execution fans out to all
//                 coalesced callers), pinned-plan execution (no cache lock),
//                 concurrent dispatchers with fair-share tagged task
//                 groups, and deltas through the writer-priority gate.
//
// Correctness is differential: both modes apply the identical delta set,
// and each mode's final per-query answer must match a freshly prepared
// plan over its own live indices as an exact bag; across modes the answers
// must agree as sets. The headline metrics are qps and p50/p95/p99 request
// latency; CI gates on speedup >= 2 at equal correctness.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "serve/query_service.h"
#include "workload/graph_churn.h"

namespace bqe {
namespace bench {
namespace {

constexpr int kClients = 8;
constexpr int kRequestsPerClient = 60;
constexpr int kDistinctQueries = 6;
constexpr int kDeltaEvery = 8;  // Client 0: every 8th request is a delta.
/// Client pipeline depth through the service: each client keeps up to
/// kBurst requests in flight (async Submit, then collect). The mutex
/// architecture cannot pipeline — a caller holds the engine for the whole
/// call — which is precisely the async-admission gap this bench measures.
constexpr int kBurst = 10;

workload::GraphChurnConfig BenchConfig() {
  workload::GraphChurnConfig cfg;
  cfg.pids = 50;
  cfg.friends_per_pid = 20;
  cfg.cafes = 200;
  return cfg;
}

/// The request mix is a pure function of (client, i), identical across
/// modes: clients round-robin the distinct query pool; client 0 replaces
/// every kDeltaEvery-th request with one data-only delta batch.
bool IsDelta(int client, int i) { return client == 0 && i % kDeltaEvery == 0; }
size_t QueryIndex(int client, int i) {
  return static_cast<size_t>(client * 17 + i) % kDistinctQueries;
}
int DeltaSeq(int i) { return i / kDeltaEvery; }

struct ModeResult {
  std::vector<double> latencies_ms;
  double wall_ms = 0;
  uint64_t answered = 0;
  uint64_t errors = 0;
  /// Final answers, one per distinct query, for the differential check.
  std::vector<Table> final_answers;
  bool row_for_row_ok = true;
  serve::ServiceStats service_stats;  // Service mode only.
};

Table FreshlyPreparedAnswer(const BoundedEngine& engine, const RaExprPtr& q) {
  Result<PrepareInfo> info = engine.Prepare(q);
  if (!info.ok() || !info->covered) return Table{RelationSchema("empty", {})};
  Result<PhysicalPlan> pp = PhysicalPlan::Compile(info->plan, engine.indices());
  if (!pp.ok()) return Table{RelationSchema("empty", {})};
  Result<Table> t = ExecutePhysicalPlan(*pp, nullptr, {});
  return t.ok() ? std::move(*t) : Table{RelationSchema("empty", {})};
}

/// Exact multiset equality, order-free: an IVM-refreshed cached table
/// keeps surviving rows in place and appends net additions, so its row
/// order legitimately differs from a fresh execution's.
bool SameBag(const Table& a, const Table& b) {
  if (a.NumRows() != b.NumRows()) return false;
  std::vector<Tuple> x = a.rows(), y = b.rows();
  std::sort(x.begin(), x.end());
  std::sort(y.begin(), y.end());
  return x == y;
}

/// One full run of the workload through either discipline.
ModeResult RunMode(bool use_service) {
  using Clock = std::chrono::steady_clock;
  workload::GraphChurnFixture fx =
      workload::MakeGraphChurnFixture(BenchConfig());
  EngineOptions eopts;  // exec_threads auto; identical for both modes.
  BoundedEngine engine(&fx.db, fx.schema, eopts);
  Status built = engine.BuildIndices();
  ModeResult out;
  if (!built.ok()) {
    std::fprintf(stderr, "BuildIndices: %s\n", built.ToString().c_str());
    out.errors = 1;
    return out;
  }
  std::vector<RaExprPtr> queries;
  for (int i = 0; i < kDistinctQueries; ++i) {
    queries.push_back(workload::FriendsNycCafesQuery(fx.cfg.Pid(i)));
  }

  std::unique_ptr<serve::QueryService> service;
  std::mutex serial_mu;  // The pre-serving discipline's one global lock.
  if (use_service) {
    serve::ServiceOptions sopts;
    sopts.shards = 4;
    sopts.batch_window = 32;
    service = std::make_unique<serve::QueryService>(&engine, sopts);
  }

  // Warm every fingerprint once so both modes measure steady-state serving.
  for (const RaExprPtr& q : queries) {
    if (use_service) {
      if (!service->Query(q).status.ok()) ++out.errors;
    } else if (!engine.Execute(q).ok()) {
      ++out.errors;
    }
  }

  std::vector<std::vector<double>> lat(kClients);
  std::atomic<uint64_t> errors{0};
  Clock::time_point t0 = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<double>& my_lat = lat[static_cast<size_t>(c)];
      my_lat.reserve(kRequestsPerClient);
      if (use_service) {
        // Async pipelined client: submit a burst, then collect. Latency is
        // admission-to-resolution, so queueing and batching delay count.
        struct Pending {
          Clock::time_point t0;
          std::future<serve::QueryResponse> query;
          std::future<serve::DeltaResponse> deltas;
          bool is_delta = false;
        };
        for (int base = 0; base < kRequestsPerClient; base += kBurst) {
          std::vector<Pending> burst;
          int end = std::min(base + kBurst, kRequestsPerClient);
          for (int i = base; i < end; ++i) {
            Pending p;
            p.t0 = Clock::now();
            if (IsDelta(c, i)) {
              p.is_delta = true;
              p.deltas = service->SubmitDeltas(
                  workload::GraphChurnBatch(fx.cfg, "sv", DeltaSeq(i)));
            } else {
              p.query = service->Submit(queries[QueryIndex(c, i)]);
            }
            burst.push_back(std::move(p));
          }
          for (Pending& p : burst) {
            bool ok;
            if (p.is_delta) {
              ok = p.deltas.get().status.ok();
            } else {
              serve::QueryResponse r = p.query.get();
              ok = r.status.ok() && r.table != nullptr;
            }
            if (!ok) errors.fetch_add(1);
            my_lat.push_back(
                std::chrono::duration<double, std::milli>(Clock::now() - p.t0)
                    .count());
          }
        }
      } else {
        // The pre-serving architecture: synchronous callers around one
        // engine mutex. No pipelining is *possible* — the caller holds the
        // engine for the full call.
        for (int i = 0; i < kRequestsPerClient; ++i) {
          Clock::time_point r0 = Clock::now();
          bool ok;
          if (IsDelta(c, i)) {
            std::vector<Delta> batch =
                workload::GraphChurnBatch(fx.cfg, "sv", DeltaSeq(i));
            std::lock_guard<std::mutex> lk(serial_mu);
            ok = engine.Apply(batch).ok();
          } else {
            std::lock_guard<std::mutex> lk(serial_mu);
            ok = engine.Execute(queries[QueryIndex(c, i)]).ok();
          }
          if (!ok) errors.fetch_add(1);
          my_lat.push_back(
              std::chrono::duration<double, std::milli>(Clock::now() - r0)
                  .count());
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  out.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  out.errors += errors.load();
  for (const std::vector<double>& l : lat) {
    out.latencies_ms.insert(out.latencies_ms.end(), l.begin(), l.end());
  }
  out.answered = out.latencies_ms.size();

  // Differential: final answers vs a freshly prepared plan, row for row.
  for (const RaExprPtr& q : queries) {
    Table got{RelationSchema("empty", {})};
    if (use_service) {
      serve::QueryResponse r = service->Query(q);
      if (r.status.ok() && r.table != nullptr) got = *r.table;
    } else {
      Result<ExecuteResult> r = engine.Execute(q);
      if (r.ok()) got = std::move(r->table);
    }
    if (!SameBag(got, FreshlyPreparedAnswer(engine, q))) {
      out.row_for_row_ok = false;
    }
    out.final_answers.push_back(std::move(got));
  }
  if (use_service) {
    out.service_stats = service->stats();
    service->Shutdown();
  }
  return out;
}

}  // namespace
}  // namespace bench
}  // namespace bqe

int main(int argc, char** argv) {
  using namespace bqe;
  using namespace bqe::bench;
  BenchOptions opts = ParseBenchOptions(argc, argv);

  PrintHeader("Serving-layer throughput under mixed read/delta load");
  std::printf(
      "%d clients x %d requests (1 in %d from client 0 is a delta batch), "
      "%d distinct queries\n\n",
      kClients, kRequestsPerClient, kDeltaEvery, kDistinctQueries);
  std::printf("%-13s %9s %9s %9s %9s %9s %7s\n", "mode", "qps", "p50_ms",
              "p95_ms", "p99_ms", "mean_ms", "errors");

  BenchReport report("bench_serve", opts.reps);
  LatencySummary serial_sum, service_sum;
  ModeResult serial, service;
  bool correct = true;
  {
    std::vector<double> serial_lat, service_lat;
    double serial_wall = 0, service_wall = 0;
    for (int rep = 0; rep < opts.reps; ++rep) {
      serial = RunMode(/*use_service=*/false);
      service = RunMode(/*use_service=*/true);
      serial_wall += serial.wall_ms;
      service_wall += service.wall_ms;
      serial_lat.insert(serial_lat.end(), serial.latencies_ms.begin(),
                        serial.latencies_ms.end());
      service_lat.insert(service_lat.end(), service.latencies_ms.begin(),
                         service.latencies_ms.end());
      correct = correct && serial.row_for_row_ok && service.row_for_row_ok &&
                serial.errors == 0 && service.errors == 0;
      // Same deltas -> same answers, independent of interleaving.
      for (size_t qi = 0; qi < serial.final_answers.size(); ++qi) {
        correct = correct && Table::SameSet(serial.final_answers[qi],
                                            service.final_answers[qi]);
      }
    }
    serial_sum = SummarizeLatencies(&serial_lat, serial_wall);
    service_sum = SummarizeLatencies(&service_lat, service_wall);
  }

  struct Row {
    const char* name;
    const LatencySummary* s;
    const ModeResult* r;
  } rows[] = {{"serial_mutex", &serial_sum, &serial},
              {"service", &service_sum, &service}};
  for (const Row& row : rows) {
    std::printf("%-13s %9.0f %9.3f %9.3f %9.3f %9.3f %7llu\n", row.name,
                row.s->qps, row.s->p50_ms, row.s->p95_ms, row.s->p99_ms,
                row.s->mean_ms,
                static_cast<unsigned long long>(row.r->errors));
    BenchReport::Cell& cell = report.AddCell("graph_churn_scaled")
                                  .Label("mode", row.name)
                                  .Label("clients", kClients)
                                  .Label("requests", kClients * kRequestsPerClient);
    AddLatencyMetrics(cell, *row.s)
        .Metric("errors", static_cast<double>(row.r->errors));
  }

  double speedup =
      serial_sum.qps == 0 ? 0.0 : service_sum.qps / serial_sum.qps;
  const serve::ServiceStats& ss = service.service_stats;
  std::printf("\nthroughput speedup (service/serial): %.2fx\n", speedup);
  std::printf("service: %llu executed, %llu coalesced, %llu pin hits, "
              "%llu repins, %llu engine reprepares\n",
              static_cast<unsigned long long>(ss.executed),
              static_cast<unsigned long long>(ss.coalesced),
              static_cast<unsigned long long>(ss.pin_hits),
              static_cast<unsigned long long>(ss.repins),
              static_cast<unsigned long long>(ss.engine.reprepares));
  if (!correct) std::printf("WARNING: modes diverged or errored!\n");
  report.AddCell("graph_churn_scaled")
      .Label("mode", "summary")
      .Metric("speedup", speedup)
      .Metric("correct", correct ? 1.0 : 0.0)
      .Metric("coalesced", static_cast<double>(ss.coalesced))
      .Metric("pin_hits", static_cast<double>(ss.pin_hits))
      .Metric("engine_reprepares", static_cast<double>(ss.engine.reprepares));
  if (!report.WriteJson(opts.json_path)) return 1;
  return 0;
}
