// servebench: one serving workload against the single-engine QueryService.
//
//   servebench --workload hot_views|user_lookups|adhoc_queries --seed N
//              --seconds S --trace 0|1 [--smoke]
//              [--spans-out FILE] [--raw-out FILE]
//
// Sets the workload up once, measures a fixed number of rounds of
// operations sized to take about S seconds (RoundsFor), checks its answers,
// and prints one
// JSON object as the last line of standard output: the end-to-end metrics
// with --trace 0, the per-layer metrics of a traced replay with --trace 1.
// The line before it ("counts {...}") carries the counts that are fixed by
// construction and the input make-up.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench.h"
#include "common/strings.h"
#include "exec/parallel.h"

namespace servebench {
namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: servebench --workload hot_views|user_lookups|"
               "adhoc_queries --seed N --seconds S --trace 0|1 [--smoke] "
               "[--spans-out FILE] [--raw-out FILE]\n");
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (a == "--smoke") {
      o->smoke = true;
      continue;
    }
    if ((v = value(a.c_str())) == nullptr) return false;
    if (a == "--workload") {
      o->workload = v;
    } else if (a == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o->seconds = std::atof(v);
    } else if (a == "--trace") {
      o->trace = std::atoi(v) != 0;
    } else if (a == "--spans-out") {
      o->spans_out = v;
    } else if (a == "--raw-out") {
      o->raw_out = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return false;
    }
  }
  return !o->workload.empty() && o->seconds > 0;
}

/// Peak resident set of this process, in MiB.
double PeakRssMib() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// Reads whose client interval overlapped a write's interval. Writes come
/// from one client at a time, so their intervals are disjoint and sorted.
void Stalls(const std::vector<OpRecord>& recs, double* share, double* us) {
  std::vector<std::pair<double, double>> writes;
  for (const OpRecord& r : recs) {
    if (r.op.kind == Op::Kind::kWrite) writes.emplace_back(r.t0_us, r.t1_us);
  }
  std::sort(writes.begin(), writes.end());
  size_t reads = 0;
  std::vector<double> stalled;
  for (const OpRecord& r : recs) {
    if (r.op.warmup || r.op.kind != Op::Kind::kRead) continue;
    ++reads;
    auto it = std::lower_bound(writes.begin(), writes.end(),
                               std::make_pair(r.t1_us, 0.0));
    if (it != writes.begin() && std::prev(it)->second > r.t0_us) {
      stalled.push_back(r.latency_us());
    }
  }
  *share = reads == 0 ? 0 : static_cast<double>(stalled.size()) / reads;
  *us = Median(stalled);
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  Options o;
  std::unique_ptr<Workload> w;
  if (!ParseArgs(argc, argv, &o) || (w = MakeWorkload(o)) == nullptr) {
    Usage();
    return 2;
  }

  // Set-up: data generation, BuildIndices, service start and warm-up.
  std::vector<OpRecord> recs;
  Clock::time_point setup_start = Clock::now();
  w->set_origin(setup_start);
  SetupTimes st;
  std::string err;
  if (!w->Build(&st, &err)) {
    std::fprintf(stderr, "set-up failed: %s\n", err.c_str());
    return 1;
  }
  for (const Op& op : w->WarmupOps()) recs.push_back(w->RunOp(op, true));
  double setup_s = MicrosBetween(setup_start, Clock::now()) / 1e6;

  Counters measured;
  double secs = w->RunMeasured(o.seconds, &recs, &measured);
  double peak_rss = PeakRssMib();  // Before the checks' own allocations.
  Counters totals = w->Snapshot();
  uint64_t cache_bytes = 0, cache_entries = 0;
  size_t tuples = 0;
  for (Target& t : w->targets()) {
    bqe::serve::ServiceStats s = t.service->stats();
    cache_bytes += s.result_cache.bytes;
    cache_entries += s.result_cache.entries;
    tuples += t.db->TotalTuples();
  }

  std::vector<double> reads, writes;
  uint64_t failed = 0;
  for (const OpRecord& r : recs) {
    if (r.op.warmup) continue;
    if (!r.ok) ++failed;
    (r.op.kind == Op::Kind::kRead ? reads : writes).push_back(r.latency_us());
  }

  bool correct = true;
  std::string fixed;
  Clock::time_point check_start = Clock::now();
  if (!w->Check(recs, &err)) {
    std::fprintf(stderr, "check failed: %s\n", err.c_str());
    correct = false;
  }
  if (!w->CheckCounters(recs, measured, &fixed, &err)) {
    std::fprintf(stderr, "check failed: %s\n", err.c_str());
    correct = false;
  }
  std::fprintf(stderr,
               "phases: set-up %.2f s, measured %.2f s, checks %.2f s, "
               "peak rss %.0f MiB (after checks %.0f MiB)\n",
               setup_s, secs,
               MicrosBetween(check_start, Clock::now()) / 1e6, peak_rss,
               PeakRssMib());

  // Thread budget: client threads plus one dispatcher per service; the
  // dispatcher is its executions' only worker (exec_threads = 1), which the
  // shared pool confirms by never running an item on a pool thread. A run
  // that oversubscribes the host measures the scheduler, not the program.
  int budget = w->client_threads() + static_cast<int>(w->targets().size());
  long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  uint64_t pool_items = bqe::WorkerPool::Shared().stats().pool_items;
  if (budget > nproc || pool_items != 0) {
    std::fprintf(stderr,
                 "check failed: thread budget %d exceeds nproc %ld, or the "
                 "worker pool ran %llu items\n",
                 budget, nproc, static_cast<unsigned long long>(pool_items));
    correct = false;
  }

  if (!o.raw_out.empty()) {
    // Raw read samples, for pooling runs made in separate processes.
    std::ofstream f(o.raw_out);
    auto list = [&](const std::vector<double>& v) {
      std::string out = "[";
      for (size_t i = 0; i < v.size(); ++i) {
        out += (i > 0 ? ", " : "") + Num(v[i]);
      }
      return out + "]";
    };
    f << "{\"reads_us\": " << list(reads) << ", \"measured_s\": " << Num(secs)
      << "}\n";
  }

  double read_p50 = Percentile(reads, 0.5);
  double write_p50 = Percentile(writes, 0.5);
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  if (!o.trace) {
    metrics = {{"read_p50_us", {read_p50, "us"}},
               {"read_p99_us", {Percentile(reads, 0.99), "us"}},
               {"write_p50_us", {write_p50, "us"}},
               {"reads_per_s", {reads.size() / secs, "1/s"}},
               {"setup_s", {setup_s, "s"}},
               {"peak_rss_mib", {peak_rss, "MiB"}}};
  } else {
    std::unique_ptr<Workload> shadow = MakeWorkload(o);
    shadow->set_serve(false);
    SetupTimes shadow_st;
    if (!shadow->Build(&shadow_st, &err)) {
      std::fprintf(stderr, "shadow set-up failed: %s\n", err.c_str());
      return 1;
    }
    ReplayResult rr =
        Replay(o, shadow.get(), w.get(), recs, read_p50, write_p50);
    if (!rr.ok) {
      std::fprintf(stderr, "traced replay failed: %s\n", rr.err.c_str());
      correct = false;
    }
    auto unit = [](const std::string& name) {
      if (name.size() > 3 && name.compare(name.size() - 3, 3, "_us") == 0) {
        return "us";
      }
      if (name.size() > 2 && name.compare(name.size() - 2, 2, "_s") == 0) {
        return "s";
      }
      if (name.size() > 4 && name.compare(name.size() - 4, 4, "_mib") == 0) {
        return "MiB";
      }
      return name.find("share") != std::string::npos ||
                     name.find("ratio") != std::string::npos
                 ? "ratio"
                 : "count";
    };
    double stall_share = 0, stall_us = 0;
    Stalls(recs, &stall_share, &stall_us);
    double plan_lookups =
        static_cast<double>(totals.plan_hits + totals.plan_misses);
    double measured_reads = static_cast<double>(reads.size());
    std::vector<std::pair<std::string, double>> all = rr.metrics;
    all.emplace_back("core.plan_cache_hit_ratio",
                     plan_lookups > 0 ? totals.plan_hits / plan_lookups : 0);
    all.emplace_back("constraints.mirror_rebuilds",
                     static_cast<double>(totals.freezes));
    all.emplace_back("constraints.build_indices_s", st.build_indices_s);
    all.emplace_back("constraints.index_entries",
                     static_cast<double>(st.index_entries));
    all.emplace_back("ivm.refreshes", static_cast<double>(totals.refreshes));
    all.emplace_back("ivm.refresh_fallbacks",
                     static_cast<double>(totals.refresh_fallbacks));
    all.emplace_back("serve.result_cache_hit_ratio",
                     measured_reads > 0 ? measured.result_hits / measured_reads
                                        : 0);
    all.emplace_back("serve.result_cache_evictions",
                     static_cast<double>(totals.evictions));
    // What the cached answers and their maintenance handles hold at the
    // end of the run; on hot_views it grows with every batch.
    all.emplace_back("serve.result_cache_mib",
                     static_cast<double>(cache_bytes) / (1 << 20));
    all.emplace_back("serve.stalled_read_share", stall_share);
    all.emplace_back("serve.stalled_read_us", stall_us);
    for (auto& [name, v] : all) {
      metrics.push_back({name, {v, unit(name)}});
    }
  }

  std::printf(
      "counts {\"workload\": \"%s\", \"seed\": %llu, \"fixed\": %s, "
      "\"reads\": %zu, \"writes\": %zu, \"measured_s\": %s, "
      "\"tuples\": %zu, \"index_entries\": %zu, \"result_cache_bytes\": %llu, "
      "\"result_cache_entries\": %llu, \"result_cache_budget\": %zu, "
      "\"threads_budget\": %d, \"nproc\": %ld%s}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed),
      fixed.c_str(), reads.size(), writes.size(), Num(secs).c_str(), tuples,
      st.index_entries, static_cast<unsigned long long>(cache_bytes),
      static_cast<unsigned long long>(cache_entries),
      BenchServiceOptions().result_cache_bytes, budget, nproc,
      w->Facts().c_str());
  std::string line = bqe::StrCat(
      "{\"correct\": ", correct ? "true" : "false",
      ", \"attempted\": ", reads.size() + writes.size(),
      ", \"failed\": ", failed, ", \"metrics\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += bqe::StrCat("\"", metrics[i].first, "\": {\"value\": ",
                        Num(metrics[i].second.first), ", \"unit\": \"",
                        metrics[i].second.second, "\"}");
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
