// Shared types of the serving benchmark: client operations, what the
// service run observed for each, and the workload interface that main.cc
// and the traced replay (replay.cc) run against.
#ifndef SERVEBENCH_BENCH_H_
#define SERVEBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "constraints/maintain.h"
#include "core/engine.h"
#include "ra/expr.h"
#include "serve/query_service.h"
#include "storage/database.h"

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Run-wide knobs from the command line.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;  ///< Toy sizes, every check on.
  std::string spans_out;  ///< Where the traced run writes its spans.
  std::string raw_out;    ///< Where to write the raw latency samples.
};

/// One client operation. Everything it carries is regenerable from its
/// fields, so the traced replay re-creates the exact query or batch.
struct Op {
  enum class Kind : uint8_t { kRead, kWrite };
  Kind kind = Kind::kRead;
  bool warmup = false;  ///< Part of set-up: not in the measured figures.
  uint8_t target = 0;   ///< Engine/service index (adhoc: the dataset).
  uint32_t arg = 0;     ///< View, user, query or batch number.
  uint64_t id = 0;      ///< Operation id; spans are tagged with it.
};

/// What the service run saw for one operation.
struct OpRecord {
  Op op;
  double t0_us = 0;  ///< Client call start, relative to the run origin.
  double t1_us = 0;  ///< Client call return.
  bool ok = false;
  bool bounded = false;
  uint32_t rows = 0;
  std::shared_ptr<const bqe::Table> table;  ///< Kept when the workload asks.

  double latency_us() const { return t1_us - t0_us; }
};

/// One engine plus the service in front of it.
struct Target {
  std::string name;
  bqe::Database* db = nullptr;  ///< Owned by the workload.
  std::unique_ptr<bqe::BoundedEngine> engine;
  std::unique_ptr<bqe::serve::QueryService> service;
};

/// Rounds of operations a measured phase of `seconds` makes. The count is
/// a function of --seconds alone, never of how fast the program runs, so
/// every count fixed by construction (and the state the run builds up,
/// such as the maintained views' bytes) is the same on a faster program;
/// `rounds_per_second` is the rate the workload ran at on the 4-vCPU host
/// the benchmark was sized on, so a run measures about `seconds` there.
inline int64_t RoundsFor(double seconds, double rounds_per_second) {
  return std::max<int64_t>(1, std::llround(seconds * rounds_per_second));
}

/// Set-up timings of one instance.
struct SetupTimes {
  double build_indices_s = 0;
  size_t index_entries = 0;
};

/// Fixed-by-construction counters over the measured phase, read from the
/// service and plan-cache stats as differences around each measured stretch.
struct Counters {
  uint64_t executed = 0;
  uint64_t result_hits = 0;
  uint64_t refreshes = 0;
  uint64_t refresh_fallbacks = 0;
  uint64_t evictions = 0;
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t freezes = 0;

  static Counters Of(const bqe::serve::ServiceStats& s);
  Counters operator-(const Counters& o) const;
  Counters& operator+=(const Counters& o);
};

/// A workload: builds its data, serves its operations, checks its answers.
/// One object is one instance (set-up once, driven once).
class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  /// Generates the data, builds the indices and starts the services.
  virtual bool Build(SetupTimes* t, std::string* err) = 0;
  /// Operations executed after Build() as part of set-up.
  virtual std::vector<Op> WarmupOps() = 0;
  /// Drives the measured phase through the services, a fixed number of
  /// rounds sized by RoundsFor(seconds, ...); appends records. Returns the
  /// measured wall seconds.
  virtual double RunMeasured(double seconds, std::vector<OpRecord>* recs,
                             Counters* measured) = 0;
  /// Post-run checks that do not rely on the engine's own answers.
  virtual bool Check(const std::vector<OpRecord>& recs, std::string* err) = 0;
  /// Fixed-by-construction counts; false when one deviates.
  virtual bool CheckCounters(const std::vector<OpRecord>& recs,
                             const Counters& c, std::string* summary,
                             std::string* err) = 0;

  virtual bqe::RaExprPtr Query(const Op& op) = 0;
  virtual std::vector<bqe::Delta> Batch(const Op& op) = 0;

  /// Client threads the workload runs (the main thread included).
  virtual int client_threads() const = 0;
  /// Whether reads and writes follow one deterministic order, so the
  /// replay's answers must match the service's row for row.
  virtual bool deterministic_order() const = 0;
  /// Workload-specific input facts, as `, "key": value` JSON members.
  virtual std::string Facts() const { return ""; }

  std::vector<Target>& targets() { return targets_; }

  /// Runs one operation through its target's service and records it,
  /// keeping the answer table when asked.
  OpRecord RunOp(const Op& op, bool keep_table);

  Counters Snapshot() const;

  /// Zero of the records' timestamps.
  void set_origin(Clock::time_point o) { origin_ = o; }
  /// Off for the traced replay's shadow instance, which has no services.
  void set_serve(bool s) { serve_ = s; }

 protected:
  std::vector<Target> targets_;
  Clock::time_point origin_ = Clock::now();
  bool serve_ = true;
};

/// Service and engine thread options every workload uses: one dispatcher
/// per target, serial execution on that dispatcher.
bqe::EngineOptions BenchEngineOptions();
bqe::serve::ServiceOptions BenchServiceOptions();

std::unique_ptr<Workload> MakeWorkload(const Options& opts);

/// Per-layer figures of one traced replay.
struct ReplayResult {
  bool ok = true;
  std::string err;
  std::vector<std::pair<std::string, double>> metrics;
};

/// Replays `recs` (in order) through the layers' public functions over
/// `shadow`, a second instance built from the same seed, recording one span
/// per call. `service` is the instance the records came from.
ReplayResult Replay(const Options& opts, Workload* shadow, Workload* service,
                    const std::vector<OpRecord>& recs, double read_p50_us,
                    double write_p50_us);

double Percentile(std::vector<double> v, double q);

}  // namespace servebench

#endif  // SERVEBENCH_BENCH_H_
