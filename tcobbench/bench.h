// Shared pieces of the benchmark binary: run configuration, result
// metrics, timing and resource helpers, and the in-memory span recorder
// of traced runs.
#ifndef TCOBBENCH_BENCH_H_
#define TCOBBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

namespace tcobbench {

using Clock = std::chrono::steady_clock;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Perturbs one expected answer, so a correct engine must fail the
  /// check (the answer check's self-test).
  bool plant_wrong_answer = false;
  /// Scratch directory of this run (database files, private WAL); the
  /// caller removes it.
  std::string work_dir;
  /// Where traced runs write their span and flight-recorder files.
  std::string out_dir;
  /// When the process started (setup_s is measured from here).
  Clock::time_point process_start;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Marks the run incorrect and reports the first few mismatches.
  void Wrong(const std::string& what);
  /// Counts a failed operation and reports the first few failures.
  void Failed(const std::string& what);

 private:
  int reported_ = 0;
};

double SecondsSince(Clock::time_point t);
double MicrosSince(Clock::time_point t);

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

/// User + system CPU seconds of the whole process (every thread).
double ProcessCpuSeconds();
/// High-water resident set of the process, MiB.
double PeakRssMb();
/// Total bytes of the regular files under `dir`.
uint64_t DirBytes(const std::string& dir);

/// Difference of one counter between two registry snapshots.
uint64_t CounterDelta(const tcob::MetricsSnapshot& before,
                      const tcob::MetricsSnapshot& after,
                      const std::string& name);
/// Count and sum deltas of a histogram between two snapshots.
std::pair<uint64_t, uint64_t> HistogramDelta(
    const tcob::MetricsSnapshot& before, const tcob::MetricsSnapshot& after,
    const std::string& name);
/// a / b, or 0 when b is 0.
double Ratio(double a, double b);

/// Spans of a traced run, kept in memory per thread ("lane") and written
/// out once as Chrome trace_event JSON. Each span carries its own id,
/// its parent's id and the id of the operation it belongs to. A null
/// Lane* (untraced runs) makes every call a no-op.
class SpanRecorder {
 public:
  struct Event {
    const char* name;
    char ph;  // 'B' or 'E'
    Clock::time_point at;
    uint64_t span;
    uint64_t parent;
    uint64_t op;
  };
  struct Lane {
    int tid = 0;
    std::vector<Event> events;
    std::vector<uint64_t> open;  // ids of the spans open on this lane
  };
  explicit SpanRecorder(Clock::time_point epoch) : epoch_(epoch) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// A lane for the calling thread; stays owned by the recorder.
  Lane* NewLane();
  tcob::Status WriteJson(const std::string& path) const;

 private:
  friend class Span;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

/// RAII span: begins on construction, ends on destruction.
class Span {
 public:
  Span(SpanRecorder::Lane* lane, const char* name, uint64_t op);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder::Lane* lane_;
  const char* name_;
};

}  // namespace tcobbench

#endif  // TCOBBENCH_BENCH_H_
