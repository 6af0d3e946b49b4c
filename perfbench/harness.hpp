// Measurement and reporting helpers shared by the perfbench workloads:
// order statistics, per-step slowest-rank aggregation, obs counter
// deltas, span self times, process CPU/RSS readings and the one-line
// JSON result the benchmark prints last.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median (mean of the two middle values for an even count). Throws
/// std::invalid_argument on an empty sample.
double median(std::vector<double> v);

/// Nearest-rank percentile: the smallest sample with at least q·n
/// samples at or below it (q in (0, 1]). Throws on an empty sample.
double percentile(std::vector<double> v, double q);

/// Step wall times of every rank, indexed [rank][step], reduced to the
/// slowest rank's time for each step (a synchronous step waits for its
/// slowest rank). Ranks must have recorded the same number of steps.
std::vector<double> slowest_per_step(
    const std::vector<std::vector<double>>& per_rank);

/// Split a section of n ops into `blocks` runs of consecutive ops (sizes
/// differ by at most one) and return each run's cost per op. `marks`
/// holds n + 1 cumulative readings (wall or CPU seconds): one at the
/// section start and one after each op. Needs 1 <= blocks <= n.
std::vector<double> per_op_in_blocks(const std::vector<double>& marks,
                                     std::size_t blocks);

/// Median of each of `blocks` runs of consecutive samples, split as in
/// per_op_in_blocks. Needs 1 <= blocks <= samples.size().
std::vector<double> block_medians(const std::vector<double>& samples,
                                  std::size_t blocks);

/// Smallest value; throws std::invalid_argument on an empty vector.
double lowest(const std::vector<double>& v);

/// Per-counter increase between two obs::Metrics snapshots. Counters
/// registered after `before` count from zero; a counter that went
/// backwards (a reset in between) throws std::logic_error.
std::map<std::string, std::uint64_t> counter_deltas(
    const dct::obs::MetricsSnapshot& before,
    const dct::obs::MetricsSnapshot& after);

/// Total self time and call count of every span name.
struct SpanTotal {
  double self_s = 0.0;
  std::size_t count = 0;
};

/// Self time of each span: its duration minus the part covered by the
/// spans nested directly inside it on the same thread. Instants and
/// flow halves are ignored.
std::map<std::string, SpanTotal> span_self_times(
    const std::vector<dct::obs::CollectedEvent>& events);

/// Process CPU time (all threads, CLOCK_PROCESS_CPUTIME_ID), in seconds.
double process_cpu_seconds();

/// Peak resident set size of the process, in MiB.
double peak_rss_mb();

/// Host the run measured on: core count, CPU model, and at the start and
/// end of the run the 1-minute load average and the time of a fixed
/// single-threaded reference loop, so a run on a contended or slowed
/// host is visible next to its figures.
struct HostStamp {
  long nproc = 0;
  std::string cpu_model;
  double load1_start = 0.0;
  double load1_end = 0.0;
  double ref_loop_ms_start = 0.0;
  double ref_loop_ms_end = 0.0;

  static HostStamp at_start();
  void stamp_end();
  std::string to_json() const;
};

/// Category of the spans the benchmark records around its calls into
/// each layer (the program's own spans carry other categories).
inline constexpr std::string_view kBenchCat = "bench";

/// Median wall time, in seconds, of `reps` calls of `fn`, each inside a
/// benchmark span named `span`.
template <typename Fn>
double time_median(std::string_view span, int reps, Fn&& fn) {
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    dct::obs::SpanScope s(span, kBenchCat);
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0));
  }
  return median(std::move(t));
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: output-check verdict, operation counts and
/// named metrics, printed as one JSON line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit);
  /// Record a failed output check (counts one failed operation).
  void fail(const std::string& why);

  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  /// with every value printed in full precision. A non-finite value is
  /// not representable in JSON, so it is reported as 0 and the result is
  /// marked incorrect.
  std::string to_json() const;
};

}  // namespace perfbench
