// The four perfbench workloads. Three train SmallCNN through
// simmpi::Runtime + trainer::DistributedTrainer (the executed half);
// plan_sweep prices collectives, shuffles and epochs with netsim and the
// epoch model (the modeled half). METRICS.md gives each one's reason.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: untraced run, end-to-end metrics. true: traced run, per-layer
  /// metrics plus the tracing overhead.
  bool trace = false;
  /// Fresh directory of this run for record files and checkpoints.
  std::string tmp_dir;
  /// Where a traced run writes its Chrome trace ("" = not written).
  std::string trace_path;
};

const std::vector<std::string>& workload_names();

/// Run one workload; returns the metrics and the output-check verdict.
Result run_workload(const RunOptions& opts);

// Entry points of the two halves (training.cpp, plan_sweep.cpp).
bool is_training_workload(const std::string& name);
Result run_training(const RunOptions& opts);
Result run_plan_sweep(const RunOptions& opts);

/// Operations an untraced run times at least, so that p95 has ten
/// samples beyond it.
inline constexpr std::size_t kMinTimedOps = 200;

}  // namespace perfbench
