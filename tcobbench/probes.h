// Per-layer numbers of a traced run: direct timed calls into each
// layer's public functions (the probe phase), and per-operation ratios
// of the engine's own counters over the timed phase.
#ifndef TCOBBENCH_PROBES_H_
#define TCOBBENCH_PROBES_H_

#include <string>
#include <vector>

#include "bench.h"
#include "db/database.h"
#include "ledger.h"

namespace tcobbench {

struct ProbeInput {
  tcob::Database* db = nullptr;
  const Ledger* ledger = nullptr;
  /// Instant of the time-slice probes (NOW, or a past instant for the
  /// cold-history workload).
  Timestamp t = 0;
  /// The workload's statements, for the parse probe.
  std::vector<std::string> statements;
  /// True: the materializer probe is a full-axis history sweep and the
  /// matching statement a HISTORY one; false: a time slice at t.
  bool history = false;
  /// Private scratch directory for the probes' own files.
  std::string work_dir;
  SpanRecorder::Lane* lane = nullptr;
};

/// Runs every probe and appends its metric to `result`. Writes to the
/// database last (the transaction probes), so nothing read before is
/// disturbed.
void RunProbes(const ProbeInput& in, RunResult* result);

/// Appends the counter-derived per-layer ratios over the timed phase:
/// `ops` operations, of which `commits` committed writes.
void AddCounterRatios(const tcob::MetricsSnapshot& before,
                      const tcob::MetricsSnapshot& after, uint64_t ops,
                      uint64_t commits, RunResult* result);

}  // namespace tcobbench

#endif  // TCOBBENCH_PROBES_H_
