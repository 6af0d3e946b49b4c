// The benchmark's metric catalogue: every end-to-end metric an untraced
// run prints and every per-layer metric a traced run prints, with unit
// and direction. BENCHMARK.json lists the same names (perfbench_test
// checks that the two agree); METRICS.md explains each one.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  ///< "higher" or "lower"
};

const std::vector<MetricSpec>& end_to_end_specs();
const std::vector<MetricSpec>& per_layer_specs();

/// Per-layer values of one traced run. Every catalogued metric starts at
/// 0, which stands for "this workload does not exercise the layer";
/// set() rejects names outside the catalogue.
class Ledger {
 public:
  Ledger();
  void set(std::string_view name, double value);
  /// Append every metric, in catalogue order, to `out`.
  void emit(Result& out) const;

 private:
  std::vector<double> values_;
};

}  // namespace perfbench
