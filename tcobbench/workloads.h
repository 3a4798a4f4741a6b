// The benchmark's workloads. Each builds its own seeded database in the
// run's scratch directory, times a closed-loop phase of whole rounds of
// operations, checks every answer against the generator's ledger, and
// reports end-to-end metrics (untraced run) or per-layer metrics
// (traced run).
#ifndef TCOBBENCH_WORKLOADS_H_
#define TCOBBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "bench.h"

namespace tcobbench {

RunResult RunSliceNow(const RunConfig& cfg);
RunResult RunHistoryCold(const RunConfig& cfg);
RunResult RunCommitMix(const RunConfig& cfg);

/// Latencies and resource use of one timed phase.
struct TimedPhase {
  std::vector<double> latency_us;
  uint64_t ops = 0;
  double wall_s = 0;
  double cpu_s = 0;
};

/// Appends the end-to-end metrics of an untraced run. `tail_q` is the
/// workload's fixed tail percentile.
void AddEndToEnd(const TimedPhase& phase, double setup_s, double tail_q,
                 uint64_t stored_bytes, RunResult* result);

}  // namespace tcobbench

#endif  // TCOBBENCH_WORKLOADS_H_
