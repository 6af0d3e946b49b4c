#include "workloads.hpp"

#include <stdexcept>

namespace perfbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "compute_1r", "comm_4r", "baseline_io_2r", "plan_sweep"};
  return names;
}

Result run_workload(const RunOptions& opts) {
  if (opts.workload == "plan_sweep") return run_plan_sweep(opts);
  if (is_training_workload(opts.workload)) return run_training(opts);
  throw std::invalid_argument("unknown workload " + opts.workload);
}

}  // namespace perfbench
