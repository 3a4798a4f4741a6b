// tcobbench: one run of one workload of the TCOB end-to-end benchmark.
//
//   tcobbench --workload NAME --seed N --seconds S --trace 0|1
//             [--plant-wrong-answer] [--out-dir DIR]
//
// Prints one JSON object as the last line of standard output:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and exits 0 when every answer was right (failed operations are
// counted in "failed", not in the exit code).
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: tcobbench --workload slice_now|history_cold|"
               "commit_mix --seed N --seconds S --trace 0|1 "
               "[--plant-wrong-answer] [--out-dir DIR]\n",
               why);
  return 2;
}

void PrintResult(const tcobbench::RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  tcobbench::RunConfig cfg;
  cfg.process_start = tcobbench::Clock::now();
  cfg.out_dir = ".bench_out";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--plant-wrong-answer") {
      cfg.plant_wrong_answer = true;
    } else if ((v = value()) == nullptr) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      cfg.workload = v;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      cfg.seconds = std::atoi(v);
      have_seconds = cfg.seconds > 0;
    } else if (arg == "--trace") {
      cfg.trace = std::strcmp(v, "1") == 0;
      have_trace = cfg.trace || std::strcmp(v, "0") == 0;
    } else if (arg == "--out-dir") {
      cfg.out_dir = v;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  tcobbench::RunResult (*run)(const tcobbench::RunConfig&) = nullptr;
  if (cfg.workload == "slice_now") run = tcobbench::RunSliceNow;
  if (cfg.workload == "history_cold") run = tcobbench::RunHistoryCold;
  if (cfg.workload == "commit_mix") run = tcobbench::RunCommitMix;
  if (run == nullptr) return Usage("unknown workload");

  namespace fs = std::filesystem;
  std::error_code ec;
  cfg.work_dir = cfg.out_dir + "/work-" + cfg.workload + "-" +
                 std::to_string(static_cast<long long>(::getpid()));
  fs::remove_all(cfg.work_dir, ec);
  fs::create_directories(cfg.work_dir, ec);
  if (ec) {
    std::cerr << "cannot create " << cfg.work_dir << ": " << ec.message()
              << "\n";
    return 1;
  }
  const tcobbench::RunResult result = run(cfg);
  fs::remove_all(cfg.work_dir, ec);
  PrintResult(result);
  return result.correct ? 0 : 1;
}
