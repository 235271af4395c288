// Replays one workload through the public serving API and measures it.
//
// Untraced mode: repeated reps, each with a fresh set-up (engines trained,
// cluster or service built, stores opened), a warm-up prefix, the timed
// window, the timed reads and the correctness checks; the end-to-end metrics
// aggregate the reps.
// Traced mode: two untraced reps for the baseline wall time, one rep with
// spans around every public call, then the single-threaded layer pass over
// the same buffers, which yields the per-layer metrics and the ledger.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "json/json.h"
#include "measure.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< scratch space for file-backed stores
  std::string out_dir;   ///< reports and trace files
  trips::json::Value metadata;  ///< run metadata, echoed into the trace file
};

struct RunOutput {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  MetricMap metrics;                  ///< end-to-end, or per-layer when traced
  size_t reps = 0;
  /// Human-readable sections (ledger, per-rep table) printed before the
  /// result line.
  std::string text;
  std::string trace_file;
};

RunOutput RunWorkload(const WorkloadInput& input, const RunOptions& options);

/// Pool workers of every service/cluster the benchmark builds.
inline constexpr size_t kWorkers = 2;

}  // namespace perfbench
